package repro.core

import java.util.Arrays

/** The coordinator's `Card` and `MinH` arrays and Algorithm 1 of the paper.
  *
  * `Card(v, l)` is the estimated cardinality of partition `l` at fragment
  * `v`; `MinH(v, l)` its minhash signature. `estCard` estimates
  * `|X(s) ∪ X(t)|` from the signatures via `(|S| + |T|) / (1 + J)` and
  * `update` folds an executed `s → t` transfer back into the arrays — the
  * data is never touched again after the initial statistics pass (§3.3).
  *
  * Both arrays are flat and partition-major: share (v, l) is number
  * `l·n + v`, so `card(l·n + v)` is its cardinality and its signature's k
  * `Int` components (400 bytes at the paper's k = 100; see [[MinHasher]] for
  * why `Int` is exact) start at `sigs((l·n + v)·k)`. The planner compares
  * the shares of one partition against each other, and those lie together.
  */
final class PlannerState private (
    val nFragments: Int,
    val numPartitions: Int,
    private val card: Array[Long],
    private val sigs: Array[Int],
    val hasher: MinHasher,
) {
  private val k = hasher.numHashes

  @inline private def share(v: Int, l: Int): Int = l * nFragments + v

  def cardinality(v: Int, l: Int): Long = card(share(v, l))

  /** A copy of `MinH(v, l)`. */
  def signature(v: Int, l: Int): Array[Int] = {
    val off = share(v, l) * k
    Arrays.copyOfRange(sigs, off, off + k)
  }

  def hasData(v: Int, l: Int): Boolean = card(share(v, l)) > 0

  /** ESTCARD(s, t, l) — Algorithm 1. Estimated |X^l(s) ∪ X^l(t)|. */
  def estCard(s: Int, t: Int, l: Int): Long =
    math.round((cardinality(s, l) + cardinality(t, l)).toDouble / (1.0 + estJaccard(s, t, l)))

  /** Estimated Jaccard similarity between X^l(s) and X^l(t). */
  def estJaccard(s: Int, t: Int, l: Int): Double =
    hasher.estimateJaccard(sigs, share(s, l) * k, sigs, share(t, l) * k)

  /** UPDATE(s, t, l) — Algorithm 1. Applies the `s → t` transfer of
    * partition `l`: `t` now holds the union, `s` becomes inactive for `l`.
    */
  def update(s: Int, t: Int, l: Int): Unit = {
    card(share(t, l)) = estCard(s, t, l)
    card(share(s, l)) = 0L
    val sOff = share(s, l) * k
    hasher.unionInto(sigs, share(t, l) * k, sigs, sOff)
    Arrays.fill(sigs, sOff, sOff + k, MinHasher.Empty)
  }

  /** True when every share sits at its destination (Eq. 2 / Eq. 7). */
  def done(mapping: Mapping): Boolean = AggPlan.stray(nFragments, mapping)(hasData).isEmpty

  /** Deep copy, so planning never mutates the caller's statistics. */
  def copy(): PlannerState =
    new PlannerState(nFragments, numPartitions, card.clone(), sigs.clone(), hasher)
}

object PlannerState {

  /** Build the arrays from per-(fragment, partition) exact key sets — the
    * "partition, pre-aggregate and calculate minhash signatures" step (2) of
    * Fig. 5, executed against ground-truth data. Fragments' signature rows
    * are independent, so they are hashed in parallel on the common pool;
    * each row is the same whichever thread builds it.
    */
  def fromKeySets(keys: Array[Array[Array[Long]]], hasher: MinHasher): PlannerState = {
    require(keys.nonEmpty, "no fragments")
    val numPartitions = keys(0).length
    require(keys.forall(_.length == numPartitions), "ragged partition arrays")
    val sigs = new Array[Array[Int]](keys.length)
    Arrays.parallelSetAll[Array[Int]](sigs, (v: Int) =>
      Array.concat(keys(v).map(ks => hasher.signature(ks, ks.length)).toIndexedSeq: _*))
    fromStats(keys.map(_.map(_.length.toLong)), sigs, hasher)
  }

  /** Build from pre-computed statistics (e.g. the operator's, computed
    * inside its Spark tasks — step 2 of Fig. 5 run by all compute nodes).
    * Fragment v's row is `card(v)`, its shares' cardinalities, and
    * `sigs(v)`, their signatures back to back: share l's at `l·k`. The rows
    * are copied straight into the flat arrays.
    */
  def fromStats(card: Array[Array[Long]], sigs: Array[Array[Int]], hasher: MinHasher): PlannerState = {
    require(card.length == sigs.length && card.nonEmpty, "bad stats arrays")
    val n = card.length
    val m = card(0).length
    val k = hasher.numHashes
    require(card.forall(_.length == m), "ragged Card array")
    require(sigs.forall(_.length == m * k), s"MinH rows must hold $m signatures of $k components")
    require(n.toLong * m * k <= Int.MaxValue, s"$n × $m signatures of $k components exceed one array")
    val flatCard = new Array[Long](m * n)
    val flatSigs = new Array[Int](m * n * k)
    for (v <- 0 until n; l <- 0 until m) {
      flatCard(l * n + v) = card(v)(l)
      System.arraycopy(sigs(v), l * k, flatSigs, (l * n + v) * k, k)
    }
    new PlannerState(n, m, flatCard, flatSigs, hasher)
  }
}
