package repro.core

import java.util.Arrays

/** Exact key-set algebra used by the ground-truth simulator.
  *
  * A key set is a sorted, duplicate-free `Array[Long]`. The simulator merges
  * fragments with these (exact cardinalities), while the GRASP planner only
  * ever sees minhash estimates — mirroring the paper, where planning uses
  * signatures but execution moves real data.
  */
object KeySet {
  val empty: Array[Long] = Array.emptyLongArray

  /** Sorted distinct keys from an arbitrary array (input is not mutated). */
  def fromUnsorted(keys: Array[Long]): Array[Long] = fromUnsorted(keys, 0, keys.length)

  /** Sorted distinct keys of `keys(from until to)` (input is not mutated). */
  def fromUnsorted(keys: Array[Long], from: Int, to: Int): Array[Long] = {
    if (from == to) return empty
    val copy = Arrays.copyOfRange(keys, from, to)
    Arrays.sort(copy)
    var n = 1
    var i = 1
    while (i < copy.length) {
      if (copy(i) != copy(n - 1)) { copy(n) = copy(i); n += 1 }
      i += 1
    }
    if (n == copy.length) copy else Arrays.copyOf(copy, n)
  }

  def fromRange(startInclusive: Long, endExclusive: Long): Array[Long] = {
    require(endExclusive >= startInclusive, "bad range")
    Array.range(0, (endExclusive - startInclusive).toInt).map(_ + startInclusive)
  }

  /** Union of two sorted distinct arrays, O(n + m). */
  def union(a: Array[Long], b: Array[Long]): Array[Long] = {
    if (a.isEmpty) return b
    if (b.isEmpty) return a
    val out = new Array[Long](a.length + b.length)
    var i = 0; var j = 0; var n = 0
    while (i < a.length && j < b.length) {
      val x = a(i); val y = b(j)
      if (x < y) { out(n) = x; i += 1 }
      else if (x > y) { out(n) = y; j += 1 }
      else { out(n) = x; i += 1; j += 1 }
      n += 1
    }
    while (i < a.length) { out(n) = a(i); i += 1; n += 1 }
    while (j < b.length) { out(n) = b(j); j += 1; n += 1 }
    if (n == out.length) out else Arrays.copyOf(out, n)
  }

  /** |a ∩ b| for sorted distinct arrays. */
  def intersectionSize(a: Array[Long], b: Array[Long]): Long = {
    var i = 0; var j = 0; var n = 0L
    while (i < a.length && j < b.length) {
      val x = a(i); val y = b(j)
      if (x < y) i += 1
      else if (x > y) j += 1
      else { n += 1; i += 1; j += 1 }
    }
    n
  }

  /** |a ∪ b| without materializing the union. */
  def unionSize(a: Array[Long], b: Array[Long]): Long =
    a.length.toLong + b.length.toLong - intersectionSize(a, b)

  /** Exact Jaccard similarity |a ∩ b| / |a ∪ b| (0 for two empty sets). */
  def jaccard(a: Array[Long], b: Array[Long]): Double = {
    val u = unionSize(a, b)
    if (u == 0) 0.0 else intersectionSize(a, b).toDouble / u
  }
}
