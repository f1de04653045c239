package repro.catalyst

import scala.collection.mutable

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropChecks
import repro.exec.AggSpec

/** The operator's per-share hash table, checked against a plain
  * `Map[Long, Array[Double]]` whose states [[AggStateOps]] builds one key at
  * a time. Values are small integers (or NULL), so every merge order gives
  * bit-identical states.
  */
class StateTableSpec extends AnyFunSuite with PropChecks {

  private val ops = new AggStateOps(Seq(
    AggSpec.sum("v", "s"), AggSpec.min("v", "mn"), AggSpec.max("v", "mx"),
    AggSpec.count("c"), AggSpec.avg("v", "a")))
  private val w = ops.totalSlots

  private type Update = (Long, Double)

  private def tableOf(updates: Seq[Update]): StateTable = {
    val t = new StateTable(ops, 0)
    updates.foreach { case (k, v) => t.update(k, Array.fill(5)(v)) }
    t
  }

  /** The reference: one state array per key, in first-insertion order. */
  private def reference(updates: Seq[Update]): mutable.LinkedHashMap[Long, Array[Double]] = {
    val ref = mutable.LinkedHashMap.empty[Long, Array[Double]]
    updates.foreach { case (k, v) =>
      val st = ref.getOrElseUpdate(k, { val s = new Array[Double](w); ops.init(s, 0); s })
      ops.update(st, 0, Array.fill(5)(v))
    }
    ref
  }

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  /** Every entry of `t`, in entry order: its key and the raw bits of its state. */
  private def contents(t: StateTable): Seq[(Long, Seq[Long])] =
    (0 until t.size).map(i => t.key(i) -> bits(t.states.slice(i * w, (i + 1) * w)))

  private def assertMatches(t: StateTable, ref: mutable.LinkedHashMap[Long, Array[Double]]): Unit = {
    assert(t.size == ref.size)
    assert(contents(t).toMap == ref.iterator.map { case (k, st) => k -> bits(st) }.toMap)
  }

  private val special = Seq(0L, -1L, -2L, -1000003L, Long.MinValue, Long.MinValue + 1, Long.MaxValue, 1L)

  /** Keys that all start probing at the same slot while the table has at
    * most 1024 slots, so they collide at every early capacity.
    */
  private val colliding: Seq[Long] = {
    val home = StateTable.hash(0L) & 1023
    Iterator.from(1).map(_.toLong).filter(k => (StateTable.hash(k) & 1023) == home).take(12).toSeq
  }

  private val values: Gen[Double] =
    Gen.frequency(9 -> Gen.chooseNum(-50, 50).map(_.toDouble), 1 -> Gen.const(Double.NaN))

  private val keys: Gen[Long] =
    Gen.oneOf(Gen.oneOf(special ++ colliding), Gen.chooseNum(-20L, 20L))

  private val updates: Gen[List[Update]] = Gen.listOf(Gen.zip(keys, values))

  test("keys 0, negatives, Long.MinValue/MaxValue and colliding probes keep their own states") {
    assert(colliding.size == 12)
    forAllSampled(Gen.listOfN(200, Gen.zip(Gen.oneOf(special ++ colliding), values))) { ups =>
      val t = tableOf(ups)
      val ref = reference(ups)
      assertMatches(t, ref)
      assert((0 until t.size).map(t.key) == ref.keys.toSeq, "entries are not in insertion order")
    }
  }

  test("inserts grow the table across several doublings") {
    val rnd = new scala.util.Random(17)
    val distinct = (Seq.fill(5000)(rnd.nextLong()) ++ special ++ colliding).distinct
    // Each key is updated up to three times, interleaved with the growth.
    val ups = distinct.flatMap(k => Seq.fill(1 + rnd.nextInt(3))(k -> rnd.nextInt(100).toDouble))
    val shuffled = rnd.shuffle(ups)
    val t = tableOf(shuffled)
    assert(t.size == distinct.size)
    assertMatches(t, reference(shuffled))
  }

  test("property: merging k tables equals the concatenated updates") {
    forAllSampled(Gen.choose(1, 5).flatMap(k => Gen.listOfN(k, updates))) { parts =>
      val inputs = parts.map(tableOf(_))
      val merged = StateTable.union(ops, inputs)
      assertMatches(merged, reference(parts.flatten))
      inputs.filter(_.size > 0) match {
        case Seq(only) => assert(merged eq only, "a lone non-empty table is not reused")
        case _         => assert(!inputs.exists(_ eq merged))
      }
    }
  }

  test("property: merging leaves the input tables bit-identical") {
    forAllSampled(Gen.choose(1, 5).flatMap(k => Gen.listOfN(k, updates))) { parts =>
      val inputs = parts.map(tableOf(_))
      val before = inputs.map(contents)
      StateTable.union(ops, inputs)
      assert(inputs.map(contents) == before)
    }
  }
}
