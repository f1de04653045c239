package repro.core

/** Minhash signatures (§3.3 of the paper).
  *
  * A signature is the component-wise minimum of `numHashes` universal hash
  * functions applied to every key of a set. Signatures support the two
  * operations GRASP needs during planning without touching the data again:
  *
  *  - Jaccard similarity estimation: the fraction of components on which two
  *    signatures agree (Fig. 6 of the paper);
  *  - union: the component-wise minimum of two signatures equals the
  *    signature of the union of the underlying sets.
  *
  * The paper uses n = 100 hash functions so a signature stays under 1 KB;
  * that is the default here too.
  */
final class MinHasher(val numHashes: Int = MinHasher.PaperHashes, seed: Long = 42L)
    extends Serializable {
  require(numHashes > 0, s"numHashes must be positive, got $numHashes")

  import MinHasher.Prime

  // h_j(x) = (a_j * x + b_j) mod p with a_j in [1, p) and b_j in [0, p).
  // p < 2^31 keeps (a * x + b) inside a Long for x < 2^31; 64-bit keys are
  // folded to 31 bits first.
  private[core] val as: Array[Long] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(numHashes)(1L + rnd.nextLong(Prime - 1))
  }
  private[core] val bs: Array[Long] = {
    val rnd = new scala.util.Random(seed + 1)
    Array.fill(numHashes)(rnd.nextLong(Prime))
  }

  /** Fold an arbitrary 64-bit key into the [0, 2^31) hash domain. */
  @inline def fold(x: Long): Long = {
    val mixed = x ^ (x >>> 32) ^ (x >>> 17)
    mixed & 0x7FFFFFFFL
  }

  /** Value of hash function `j` on key `x`. */
  @inline def hash(j: Int, x: Long): Long = (as(j) * fold(x) + bs(j)) % Prime

  /** Signature of the empty set: every component is "+infinity". */
  def emptySignature: Array[Long] = Array.fill(numHashes)(Long.MaxValue)

  def isEmptySignature(sig: Array[Long]): Boolean = sig.forall(_ == Long.MaxValue)

  /** Fold one key into an existing (mutable) signature. */
  def add(sig: Array[Long], x: Long): Unit = {
    var j = 0
    while (j < numHashes) {
      val h = hash(j, x)
      if (h < sig(j)) sig(j) = h
      j += 1
    }
  }

  /** Signature of a key set. */
  def signature(keys: IterableOnce[Long]): Array[Long] = {
    val sig = emptySignature
    keys.iterator.foreach(add(sig, _))
    sig
  }

  /** Signature of the union: component-wise minimum. Inputs are not mutated. */
  def union(s1: Array[Long], s2: Array[Long]): Array[Long] = {
    require(s1.length == numHashes && s2.length == numHashes, "signature arity mismatch")
    val out = new Array[Long](numHashes)
    var j = 0
    while (j < numHashes) { out(j) = math.min(s1(j), s2(j)); j += 1 }
    out
  }

  /** In-place union into `acc`. */
  def unionInto(acc: Array[Long], other: Array[Long]): Unit = {
    var j = 0
    while (j < numHashes) { if (other(j) < acc(j)) acc(j) = other(j); j += 1 }
  }

  /** Estimated Jaccard similarity: fraction of agreeing components (Fig. 6).
    * Two empty sets are defined to have similarity 0 so that
    * ESTCARD(∅, ∅) = 0. The count loop has no other test in it, so it
    * compiles branch-free; both signatures are empty only if every
    * component agrees, so emptiness is checked only then.
    */
  def estimateJaccard(s1: Array[Long], s2: Array[Long]): Double = {
    require(s1.length == numHashes && s2.length == numHashes, "signature arity mismatch")
    var agree = 0
    var j = 0
    while (j < numHashes) {
      if (s1(j) == s2(j)) agree += 1
      j += 1
    }
    if (agree == numHashes && isEmptySignature(s1)) 0.0 else agree.toDouble / numHashes
  }
}

object MinHasher {
  /** n = 100 hash functions, as in §3.3 ("signatures are less than 1KB"). */
  val PaperHashes: Int = 100

  /** Largest prime below 2^31; the hash domain. */
  val Prime: Long = 2147483629L
}
