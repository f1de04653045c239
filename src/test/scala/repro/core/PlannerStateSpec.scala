package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Algorithm 1 (ESTCARD / UPDATE) behaviour. */
class PlannerStateSpec extends AnyFunSuite {

  private val hasher = new MinHasher(numHashes = 200, seed = 5)

  private def state(sets: Array[Long]*): PlannerState =
    PlannerState.fromKeySets(sets.map(s => Array(s)).toArray, hasher)

  test("cardinalities come from the key sets") {
    val st = state(KeySet.fromRange(0, 10), KeySet.fromRange(5, 25), KeySet.empty)
    assert(st.cardinality(0, 0) == 10)
    assert(st.cardinality(1, 0) == 20)
    assert(st.cardinality(2, 0) == 0)
    assert(st.hasData(0, 0) && !st.hasData(2, 0))
  }

  test("ESTCARD of identical sets equals the single-set cardinality") {
    val st = state(KeySet.fromRange(0, 100), KeySet.fromRange(0, 100))
    assert(st.estCard(0, 1, 0) == 100)
  }

  test("ESTCARD of disjoint sets is close to the sum") {
    val st = state(KeySet.fromRange(0, 1000), KeySet.fromRange(5000, 6000))
    val est = st.estCard(0, 1, 0)
    assert(math.abs(est - 2000) <= 120, s"est=$est")
  }

  test("ESTCARD with an empty side returns the other side's cardinality") {
    val st = state(KeySet.fromRange(0, 50), KeySet.empty)
    assert(st.estCard(0, 1, 0) == 50)
  }

  test("ESTCARD approximates |S ∪ T| within ~10% on half-overlapping sets") {
    val st = state(KeySet.fromRange(0, 2000), KeySet.fromRange(1000, 3000))
    val est = st.estCard(0, 1, 0)
    assert(math.abs(est - 3000.0) / 3000.0 <= 0.12, s"est=$est")
  }

  test("UPDATE moves the union estimate to the receiver and empties the sender") {
    val st = state(KeySet.fromRange(0, 100), KeySet.fromRange(50, 150))
    val expected = st.estCard(0, 1, 0)
    st.update(0, 1, 0)
    assert(st.cardinality(1, 0) == expected)
    assert(st.cardinality(0, 0) == 0)
    assert(st.hasher.isEmptySignature(st.signature(0, 0)))
  }

  test("UPDATE merges signatures so later estimates see the union") {
    val a = KeySet.fromRange(0, 500)
    val b = KeySet.fromRange(400, 900)
    val c = KeySet.fromRange(0, 900)
    val st = state(a, b, c)
    st.update(0, 1, 0) // fragment 1 now holds ~a ∪ b = c
    val j = st.estJaccard(1, 2, 0)
    assert(j >= 0.9, s"expected near-identical after union, got J=$j")
  }

  test("chained UPDATEs never touch the data, only signatures (paper §3.3)") {
    val st = state(
      KeySet.fromRange(0, 300), KeySet.fromRange(100, 400),
      KeySet.fromRange(200, 500), KeySet.empty)
    st.update(0, 1, 0)
    st.update(1, 2, 0)
    // True union is [0, 500) = 500 keys; estimate should be in the ballpark.
    val est = st.cardinality(2, 0)
    assert(math.abs(est - 500.0) / 500.0 <= 0.2, s"est=$est")
    assert(st.done(Mapping.allToOne(2)))
  }

  test("done reflects Eq. 2 completion") {
    val st = state(KeySet.fromRange(0, 10), KeySet.fromRange(0, 10))
    val m = Mapping.allToOne(1)
    assert(!st.done(m))
    st.update(0, 1, 0)
    assert(st.done(m))
  }

  test("copy isolates mutation") {
    val st = state(KeySet.fromRange(0, 10), KeySet.fromRange(0, 10))
    val snapshot = st.copy()
    st.update(0, 1, 0)
    assert(snapshot.cardinality(0, 0) == 10)
    assert(st.cardinality(0, 0) == 0)
  }

  test("fromStats round-trips cardinalities and signatures") {
    val card = Array(Array(5L), Array(7L))
    val sigs = Array(hasher.signature(1L to 5L), hasher.signature(10L to 16L))
    val st = PlannerState.fromStats(card, sigs, hasher)
    assert(st.cardinality(0, 0) == 5 && st.cardinality(1, 0) == 7)
    assert(st.signature(0, 0).sameElements(sigs(0)))
  }

  test("fromKeySets over 48 fragments equals a sequential per-share build, every time") {
    val rnd = new scala.util.Random(17)
    val (n, m) = (48, 3)
    val keys = Array.fill(n, m)(KeySet.fromUnsorted(Array.fill(rnd.nextInt(60))(rnd.nextLong() % 500)))
    for (_ <- 1 to 5) {
      val st = PlannerState.fromKeySets(keys, hasher)
      for (v <- 0 until n; l <- 0 until m) {
        assert(st.cardinality(v, l) == keys(v)(l).length.toLong, s"($v,$l)")
        assert(st.signature(v, l).sameElements(hasher.signature(keys(v)(l).toSeq)), s"($v,$l)")
      }
    }
  }

  test("ragged stats arrays are rejected") {
    intercept[IllegalArgumentException] {
      PlannerState.fromStats(
        Array(Array(1L), Array(1L, 2L)),
        Array(hasher.emptySignature, hasher.emptySignature),
        hasher)
    }
    intercept[IllegalArgumentException] {
      PlannerState.fromStats(
        Array(Array(1L, 2L), Array(1L, 2L)),
        Array(Array.concat(hasher.emptySignature, hasher.emptySignature), hasher.emptySignature),
        hasher)
    }
  }
}
