package repro.catalyst

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.PropChecks
import repro.exec.AggSpec

/** The operator's aggregation-state algebra: associativity/commutativity of
  * merge (required for GRASP to combine fragments in any order) and SQL
  * NULL semantics.
  */
class AggStateOpsSpec extends AnyFunSuite with PropChecks {

  private val specs = Seq(
    AggSpec.sum("v", "s"), AggSpec.min("v", "mn"), AggSpec.max("v", "mx"),
    AggSpec.count("c"), AggSpec.avg("v", "a"))
  private val ops = new AggStateOps(specs)

  private val w = ops.totalSlots

  /** A fresh state at offset `base` of an array with room for two states. */
  private def fresh(base: Int): Array[Double] = {
    val st = Array.fill(2 * w)(Double.NaN)
    ops.init(st, base)
    st
  }

  /** The state of `values` at offset `base`. */
  private def stateOf(values: Seq[Double], base: Int = 0): Array[Double] = {
    val st = fresh(base)
    values.foreach(v => ops.update(st, base, Array(v, v, v, v, v)))
    st
  }

  test("fresh state finalizes to neutral values") {
    Seq(0, w).foreach { base =>
      val st = fresh(base)
      assert(ops.finalValue(st, base, 0) == 0.0)  // SUM
      assert(ops.finalValue(st, base, 1) == null) // MIN of nothing
      assert(ops.finalValue(st, base, 2) == null) // MAX of nothing
      assert(ops.finalValue(st, base, 3) == 0L)   // COUNT(*)
      assert(ops.finalValue(st, base, 4) == null) // AVG of nothing
    }
  }

  test("single update finalizes to the value itself") {
    val st = stateOf(Seq(7.0), base = w)
    assert(ops.finalValue(st, w, 0) == 7.0)
    assert(ops.finalValue(st, w, 1) == 7.0)
    assert(ops.finalValue(st, w, 2) == 7.0)
    assert(ops.finalValue(st, w, 3) == 1L)
    assert(ops.finalValue(st, w, 4) == 7.0)
    assert(st.take(w).forall(_.isNaN), "an update wrote outside its state")
  }

  test("NaN input is NULL: skipped by everything except COUNT(*)") {
    val st = fresh(0)
    ops.update(st, 0, Array(Double.NaN, Double.NaN, Double.NaN, Double.NaN, Double.NaN))
    assert(ops.finalValue(st, 0, 0) == 0.0)
    assert(ops.finalValue(st, 0, 1) == null)
    assert(ops.finalValue(st, 0, 3) == 1L)
    assert(ops.finalValue(st, 0, 4) == null)
  }

  test("property: merge equals concatenated updates (associativity)") {
    val gen = Gen.listOf(Gen.chooseNum(-100.0, 100.0))
    forAllSampled(gen, gen) { (xs, ys) =>
      val merged = stateOf(xs)
      ops.merge(merged, 0, stateOf(ys, base = w), w)
      val together = stateOf(xs ++ ys)
      merged.take(w).zip(together.take(w)).foreach { case (a, b) =>
        // SUM slots accumulate in different order: compare up to fp noise.
        assert(math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b)), s"xs=$xs ys=$ys")
      }
    }
  }

  test("property: merge is commutative") {
    val gen = Gen.nonEmptyListOf(Gen.chooseNum(-50.0, 50.0))
    forAllSampled(gen, gen) { (xs, ys) =>
      val ab = stateOf(xs, base = w); ops.merge(ab, w, stateOf(ys), 0)
      val ba = stateOf(ys); ops.merge(ba, 0, stateOf(xs, base = w), w)
      // SUM/AVG accumulate in different order: compare finalized values.
      specs.indices.foreach { i =>
        (ops.finalValue(ab, w, i), ops.finalValue(ba, 0, i)) match {
          case (x: Double, y: Double) => assert(math.abs(x - y) < 1e-9)
          case (x, y) => assert(x == y)
        }
      }
    }
  }

  test("state slots: AVG takes two, everything else one") {
    assert(ops.totalSlots == 6)
  }
}
