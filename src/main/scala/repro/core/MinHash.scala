package repro.core

import scala.collection.mutable

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
  * that is the default here too. A component is an `Int`, so a signature
  * takes 400 bytes. That is exact: every hash lies in [0, `Prime`) and
  * `Prime` < 2^31, so `toInt` keeps its value, and the empty component,
  * `Int.MaxValue`, stays above every hash. Equality and minimum, and so
  * every estimate and union, are those of the hashes themselves.
  *
  * Signatures may sit inside a larger array: the offset forms of
  * [[estimateJaccard]] and [[unionInto]] read `numHashes` components from
  * each given offset.
  *
  * Every key set is hashed by one kernel, the array form of [[signature]];
  * [[add]] is its one-key loop. Two choices make it fast without changing a
  * single component:
  *
  *  - `Prime` is a literal constant, so the JIT may compile `% Prime` as a
  *    multiplication and shifts (Granlund & Montgomery, PLDI 1994) instead
  *    of a 64-bit hardware division, whose cost varies widely by CPU;
  *  - the kernel takes two keys per pass over the components: it computes
  *    both keys' hashes and takes their minimum without a branch (which of
  *    two hashes is smaller is a coin flip, so a branch would mispredict
  *    half the time); then one compare against the signature, which rarely
  *    changes once it holds a few keys, serves both keys.
  */
final class MinHasher(val numHashes: Int = MinHasher.PaperHashes, seed: Long = 42L)
    extends Serializable {
  require(numHashes > 0, s"numHashes must be positive, got $numHashes")

  import MinHasher.{Empty, Prime}

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

  /** Value of hash function `j` on key `x`, in [0, `Prime`). */
  @inline def hash(j: Int, x: Long): Long = (as(j) * fold(x) + bs(j)) % Prime

  /** Signature of the empty set: every component is "+infinity". */
  def emptySignature: Array[Int] = Array.fill(numHashes)(Empty)

  def isEmptySignature(sig: Array[Int]): Boolean = isEmptyAt(sig, 0)

  /** The signature at `off` in `sigs` is the empty set's. */
  private def isEmptyAt(sigs: Array[Int], off: Int): Boolean = {
    var j = 0
    while (j < numHashes) {
      if (sigs(off + j) != Empty) return false
      j += 1
    }
    true
  }

  /** Fold one key into an existing (mutable) signature. */
  def add(sig: Array[Int], x: Long): Unit = {
    val a = as
    val b = bs
    val fx = fold(x)
    var j = 0
    while (j < numHashes) {
      val h = ((a(j) * fx + b(j)) % Prime).toInt
      if (h < sig(j)) sig(j) = h
      j += 1
    }
  }

  /** Signature of the first `len` keys of `keys`; the array is only read. */
  def signature(keys: Array[Long], len: Int): Array[Int] = {
    require(len >= 0 && len <= keys.length, s"length $len outside [0, ${keys.length}]")
    val sig = emptySignature
    val a = as
    val b = bs
    var i = 0
    while (i + 1 < len) {
      val x = fold(keys(i))
      val y = fold(keys(i + 1))
      var j = 0
      while (j < numHashes) {
        val hx = (a(j) * x + b(j)) % Prime
        val d = hx - (a(j) * y + b(j)) % Prime
        val h = (hx - (d & ~(d >> 63))).toInt // min(hx, hy), with no branch
        if (h < sig(j)) sig(j) = h
        j += 1
      }
      i += 2
    }
    if (i < len) add(sig, keys(i))
    sig
  }

  /** Signature of a key set. */
  def signature(keys: IterableOnce[Long]): Array[Int] = {
    val all = (new mutable.ArrayBuilder.ofLong ++= keys).result()
    signature(all, all.length)
  }

  /** Signature of the union: component-wise minimum. Inputs are not mutated. */
  def union(s1: Array[Int], s2: Array[Int]): Array[Int] = {
    require(s1.length == numHashes && s2.length == numHashes, "signature arity mismatch")
    val out = s1.clone()
    unionInto(out, 0, s2, 0)
    out
  }

  /** In-place union of the signature at `otherOff` in `other` into the one
    * at `accOff` in `acc`.
    */
  def unionInto(acc: Array[Int], accOff: Int, other: Array[Int], otherOff: Int): Unit = {
    var j = 0
    while (j < numHashes) {
      val x = other(otherOff + j)
      if (x < acc(accOff + j)) acc(accOff + j) = x
      j += 1
    }
  }

  /** Estimated Jaccard similarity: fraction of agreeing components (Fig. 6).
    * Two empty sets are defined to have similarity 0 so that
    * ESTCARD(∅, ∅) = 0.
    */
  def estimateJaccard(s1: Array[Int], s2: Array[Int]): Double = {
    require(s1.length == numHashes && s2.length == numHashes, "signature arity mismatch")
    estimateJaccard(s1, 0, s2, 0)
  }

  /** [[estimateJaccard]] of the signatures at `aOff` in `a` and `bOff` in
    * `b`. The count has no branch: `(d | -d) >>> 31` is 1 exactly when the
    * components differ. Both signatures are empty only if every component
    * agrees, so emptiness is checked only then.
    */
  def estimateJaccard(a: Array[Int], aOff: Int, b: Array[Int], bOff: Int): Double = {
    var differ = 0
    var j = 0
    while (j < numHashes) {
      val d = a(aOff + j) ^ b(bOff + j)
      differ += (d | -d) >>> 31
      j += 1
    }
    if (differ == 0 && isEmptyAt(a, aOff)) 0.0 else (numHashes - differ).toDouble / numHashes
  }
}

object MinHasher {
  /** n = 100 hash functions, as in §3.3 ("signatures are less than 1KB"). */
  val PaperHashes: Int = 100

  /** Largest prime below 2^31; the hash domain. A literal, so that every
    * `% Prime` is compiled as a division by a constant.
    */
  final val Prime = 2147483629L

  /** The empty set's component, above every hash. */
  val Empty: Int = Int.MaxValue

  // Components are stored as Ints: every hash must fit below the empty one.
  require(Prime < Int.MaxValue, s"hash domain $Prime does not fit below the empty component")
}
