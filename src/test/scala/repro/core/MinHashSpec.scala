package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropChecks
import org.scalacheck.Gen

/** Unit tests for the minhash machinery of §3.3. */
class MinHashSpec extends AnyFunSuite with PropChecks {

  private val hasher = new MinHasher(numHashes = 100, seed = 42)

  test("empty signature is all-MaxValue and recognized as empty") {
    val sig = hasher.emptySignature
    assert(sig.length == 100)
    assert(sig.forall(_ == Int.MaxValue))
    assert(hasher.isEmptySignature(sig))
  }

  test("signature of a non-empty set is not the empty signature") {
    assert(!hasher.isEmptySignature(hasher.signature(Seq(1L, 2L, 3L))))
  }

  test("signature is insensitive to key order and duplicates") {
    val a = hasher.signature(Seq(5L, 1L, 9L, 1L, 5L))
    val b = hasher.signature(Seq(9L, 5L, 1L))
    assert(a.sameElements(b))
  }

  test("identical sets have estimated Jaccard exactly 1") {
    val s = hasher.signature(1L to 50L)
    assert(hasher.estimateJaccard(s, s.clone()) == 1.0)
  }

  test("two empty sets have estimated Jaccard 0 (so ESTCARD(∅,∅) = 0)") {
    assert(hasher.estimateJaccard(hasher.emptySignature, hasher.emptySignature) == 0.0)
  }

  test("disjoint large sets have low estimated Jaccard") {
    val s = hasher.signature(1L to 1000L)
    val t = hasher.signature(100001L to 101000L)
    assert(hasher.estimateJaccard(s, t) <= 0.1)
  }

  test("union signature equals signature of union (minhash union property)") {
    val a = (1L to 300L).toArray
    val b = (200L to 500L).toArray
    val direct = hasher.signature(a ++ b)
    val merged = hasher.union(hasher.signature(a), hasher.signature(b))
    assert(direct.sameElements(merged))
  }

  test("unionInto mutates the accumulator to the pairwise minimum") {
    val acc = hasher.signature(1L to 10L)
    val other = hasher.signature(5L to 20L)
    val expect = hasher.union(acc, other)
    hasher.unionInto(acc, 0, other, 0)
    assert(acc.sameElements(expect))
  }

  test("union with the empty signature is the identity") {
    val s = hasher.signature(1L to 40L)
    assert(hasher.union(s, hasher.emptySignature).sameElements(s))
  }

  test("estimate is within 15% of true Jaccard for half-overlapping 2k-sets") {
    // Satuluri & Parthasarathy: within 10% with 95% probability at n = 100;
    // this is one fixed draw so allow 15%.
    val a = (1L to 2000L).toArray
    val b = (1001L to 3000L).toArray
    val trueJ = KeySet.jaccard(a, b) // 1000 / 3000
    val estJ = hasher.estimateJaccard(hasher.signature(a), hasher.signature(b))
    assert(math.abs(estJ - trueJ) <= 0.15, s"est $estJ vs true $trueJ")
  }

  test("more hash functions tighten the estimate (n=400)") {
    val big = new MinHasher(numHashes = 400, seed = 9)
    val a = (1L to 2000L).toArray
    val b = (1001L to 3000L).toArray
    val trueJ = KeySet.jaccard(a, b)
    val estJ = big.estimateJaccard(big.signature(a), big.signature(b))
    assert(math.abs(estJ - trueJ) <= 0.10, s"est $estJ vs true $trueJ")
  }

  test("different seeds give different hash families") {
    val h2 = new MinHasher(numHashes = 100, seed = 43)
    assert(!hasher.signature(1L to 10L).sameElements(h2.signature(1L to 10L)))
  }

  test("hash values stay inside [0, Prime)") {
    forAllSampled(Gen.long) { x: Long =>
      val h = hasher.hash(0, x)
      assert(h >= 0 && h < MinHasher.Prime)
    }
  }

  test("signature arity mismatch is rejected") {
    val other = new MinHasher(numHashes = 16)
    intercept[IllegalArgumentException] {
      hasher.estimateJaccard(hasher.emptySignature, other.emptySignature)
    }
  }

  /** The agreement count that tested every agreeing component for
    * emptiness, as the oracle of the branch-free one.
    */
  private def perComponentEstimate(s1: Array[Int], s2: Array[Int]): Double = {
    var agree = 0
    var agreeEmpty = 0
    var j = 0
    while (j < s1.length) {
      val h = s1(j)
      if (h == s2(j)) {
        agree += 1
        if (h == Int.MaxValue) agreeEmpty += 1
      }
      j += 1
    }
    if (agreeEmpty == s1.length) 0.0 else agree.toDouble / s1.length
  }

  test("property: estimateJaccard equals the per-component emptiness count") {
    val small = new MinHasher(numHashes = 8, seed = 1)
    // Few distinct values, a quarter of them "+infinity", so that partial
    // and full agreement, on values and on empty components, are common.
    val component = Gen.frequency(3 -> Gen.chooseNum(0, 3), 1 -> Gen.const(Int.MaxValue))
    val sig = Gen.listOfN(small.numHashes, component).map(_.toArray)
    val empty = Gen.delay(Gen.const(small.emptySignature))
    val pair = Gen.oneOf(
      Gen.zip(sig, sig),
      sig.map(s => (s, s.clone())),
      Gen.zip(empty, empty),
      Gen.zip(sig, empty),
      Gen.zip(empty, sig),
    )
    forAllSampled(Gen.listOfN(20, pair)) { pairs =>
      pairs.foreach { case (a, b) =>
        assert(small.estimateJaccard(a, b) == perComponentEstimate(a, b),
          s"${a.mkString(",")} vs ${b.mkString(",")}")
      }
    }
    val full = Gen.listOf(Gen.chooseNum(0L, 200L)).map(hasher.signature(_))
    forAllSampled(full, full) { (a, b) =>
      assert(hasher.estimateJaccard(a, b) == perComponentEstimate(a, b))
      assert(hasher.estimateJaccard(a, a.clone()) == perComponentEstimate(a, a))
    }
  }

  test("property: component j is the minimum over the keys of (a_j·fold(x) + b_j) mod Prime") {
    val small = new MinHasher(numHashes = 16, seed = 7)
    forAllSampled(Gen.listOf(Gen.long)) { keys =>
      val sig = small.signature(keys)
      for (j <- 0 until small.numHashes) {
        // The definition, computed in Long from the hash family's parameters.
        val expect = keys.map(x => (small.as(j) * small.fold(x) + small.bs(j)) % MinHasher.Prime)
          .minOption.getOrElse(Long.MaxValue)
        if (keys.isEmpty) assert(sig(j) == Int.MaxValue)
        else assert(sig(j).toLong == expect, s"component $j of ${keys.mkString(",")}")
      }
    }
    // The empty component is above every hash.
    assert(MinHasher.Empty.toLong > MinHasher.Prime - 1)
    forAllSampled(Gen.long)(x => assert((0 until 16).forall(j => hasher.hash(j, x) < MinHasher.Empty)))
  }

  /** Component j of the signature of `keys`, in `BigInt` from the hash
    * family's parameters, so no Long arithmetic or `%` by a constant is
    * shared with the kernel.
    */
  private def bigIntSignature(h: MinHasher, keys: Seq[Long]): Array[Int] =
    Array.tabulate(h.numHashes) { j =>
      keys.map(x => (BigInt(h.as(j)) * BigInt(h.fold(x)) + BigInt(h.bs(j))).mod(BigInt(2147483629L)))
        .minOption.fold(Int.MaxValue)(_.toInt)
    }

  test("property: every entry point equals the BigInt definition, at every length and on extreme keys") {
    val small = new MinHasher(numHashes = 16, seed = 11)
    val extreme = Seq(Long.MinValue, Long.MaxValue, -1L, 0L)
    val keyGen = Gen.frequency(3 -> Gen.long, 1 -> Gen.oneOf(extreme))
    def check(keys: Array[Long], len: Int): Unit = {
      val expect = bigIntSignature(small, keys.take(len).toSeq)
      val viaAdd = small.emptySignature
      keys.take(len).foreach(small.add(viaAdd, _))
      val clue = s"${keys.mkString(",")} (len $len)"
      assert(small.signature(keys, len).sameElements(expect), clue)
      assert(small.signature(keys.take(len).toSeq).sameElements(expect), clue)
      assert(viaAdd.sameElements(expect), clue)
    }
    // Lengths 0 to 5, the whole array and a prefix of it, so the kernel's
    // pairs and its odd tail are both covered.
    for (n <- 0 to 5; keys <- Seq(Array.tabulate(n)(i => extreme(i % 4)), Array.tabulate(n)(i => i * 7919L - 3))) {
      check(keys, n)
      for (len <- 0 until n) check(keys, len)
    }
    forAllSampled(Gen.listOf(keyGen), Gen.chooseNum(0, 3)) { (keys, cut) =>
      val arr = keys.toArray
      check(arr, arr.length)
      check(arr, math.max(0, arr.length - cut))
    }
    intercept[IllegalArgumentException](small.signature(Array(1L, 2L), 3))
  }

  test("the offset forms read the signatures at their offsets") {
    val (a, b) = (hasher.signature(1L to 300L), hasher.signature(200L to 500L))
    val packed = Array.concat(hasher.emptySignature, a, b)
    val k = hasher.numHashes
    assert(hasher.estimateJaccard(packed, k, packed, 2 * k) == hasher.estimateJaccard(a, b))
    assert(hasher.estimateJaccard(packed, 0, packed, 0) == 0.0)
    hasher.unionInto(packed, k, packed, 2 * k)
    assert(packed.slice(k, 2 * k).sameElements(hasher.union(a, b)))
    assert(packed.take(k).sameElements(hasher.emptySignature) && packed.drop(2 * k).sameElements(b))
  }

  test("property: union signature is commutative and associative") {
    val gen = Gen.nonEmptyListOf(Gen.chooseNum(0L, 5000L))
    forAllSampled(gen, gen, gen) { (xs, ys, zs) =>
      val (a, b, c) = (hasher.signature(xs), hasher.signature(ys), hasher.signature(zs))
      assert(hasher.union(a, b).sameElements(hasher.union(b, a)))
      assert(
        hasher.union(hasher.union(a, b), c).sameElements(hasher.union(a, hasher.union(b, c))))
    }
  }

  test("property: union signature equals direct signature of concatenation") {
    val gen = Gen.listOf(Gen.chooseNum(0L, 100000L))
    forAllSampled(gen, gen) { (xs, ys) =>
      val direct = hasher.signature(xs ++ ys)
      val merged = hasher.union(hasher.signature(xs), hasher.signature(ys))
      assert(direct.sameElements(merged))
    }
  }
}
