package repro.core

/** The coordinator's `Card` and `MinH` arrays and Algorithm 1 of the paper.
  *
  * `Card(v, l)` is the estimated cardinality of partition `l` at fragment
  * `v`; `MinH(v, l)` its minhash signature. `estCard` estimates
  * `|X(s) ∪ X(t)|` from the signatures via `(|S| + |T|) / (1 + J)` and
  * `update` folds an executed `s → t` transfer back into the arrays — the
  * data is never touched again after the initial statistics pass (§3.3).
  */
final class PlannerState private (
    val nFragments: Int,
    val numPartitions: Int,
    private val card: Array[Array[Long]],
    private val sigs: Array[Array[Array[Long]]],
    val hasher: MinHasher,
) {

  def cardinality(v: Int, l: Int): Long = card(v)(l)
  def signature(v: Int, l: Int): Array[Long] = sigs(v)(l)
  def hasData(v: Int, l: Int): Boolean = card(v)(l) > 0

  /** ESTCARD(s, t, l) — Algorithm 1. Estimated |X^l(s) ∪ X^l(t)|. */
  def estCard(s: Int, t: Int, l: Int): Long = {
    val j = hasher.estimateJaccard(sigs(s)(l), sigs(t)(l))
    math.round((card(s)(l) + card(t)(l)).toDouble / (1.0 + j))
  }

  /** Estimated Jaccard similarity between X^l(s) and X^l(t). */
  def estJaccard(s: Int, t: Int, l: Int): Double =
    hasher.estimateJaccard(sigs(s)(l), sigs(t)(l))

  /** UPDATE(s, t, l) — Algorithm 1. Applies the `s → t` transfer of
    * partition `l`: `t` now holds the union, `s` becomes inactive for `l`.
    */
  def update(s: Int, t: Int, l: Int): Unit = {
    card(t)(l) = estCard(s, t, l)
    card(s)(l) = 0L
    hasher.unionInto(sigs(t)(l), sigs(s)(l))
    sigs(s)(l) = hasher.emptySignature
  }

  /** True when partition `l` has been fully aggregated to `dest`:
    * every other fragment's share is empty (Eq. 2 / Eq. 7).
    */
  def partitionDone(l: Int, dest: Int): Boolean = {
    var v = 0
    while (v < nFragments) {
      if (v != dest && card(v)(l) > 0) return false
      v += 1
    }
    true
  }

  def done(mapping: Mapping): Boolean =
    (0 until numPartitions).forall(l => partitionDone(l, mapping(l)))

  /** Deep copy, so planning never mutates the caller's statistics. */
  def copy(): PlannerState =
    new PlannerState(
      nFragments,
      numPartitions,
      card.map(_.clone()),
      sigs.map(_.map(_.clone())),
      hasher,
    )
}

object PlannerState {

  /** Build the arrays from per-(fragment, partition) exact key sets — the
    * "partition, pre-aggregate and calculate minhash signatures" step (2) of
    * Fig. 5, executed against ground-truth data.
    */
  def fromKeySets(keys: Array[Array[Array[Long]]], hasher: MinHasher): PlannerState = {
    val nFragments = keys.length
    require(nFragments > 0, "no fragments")
    val numPartitions = keys(0).length
    require(keys.forall(_.length == numPartitions), "ragged partition arrays")
    val card = Array.tabulate(nFragments, numPartitions)((v, l) => keys(v)(l).length.toLong)
    val sigs = Array.tabulate(nFragments, numPartitions) { (v, l) =>
      hasher.signature(keys(v)(l))
    }
    new PlannerState(nFragments, numPartitions, card, sigs, hasher)
  }

  /** Build from pre-computed statistics (e.g. the operator's, computed
    * inside its Spark tasks — step 2 of Fig. 5 run by all compute nodes).
    */
  def fromStats(
      card: Array[Array[Long]],
      sigs: Array[Array[Array[Long]]],
      hasher: MinHasher,
  ): PlannerState = {
    require(card.length == sigs.length && card.nonEmpty, "bad stats arrays")
    val numPartitions = card(0).length
    require(card.forall(_.length == numPartitions), "ragged Card array")
    require(sigs.forall(_.length == numPartitions), "ragged MinH array")
    new PlannerState(card.length, numPartitions, card.map(_.clone()), sigs.map(_.map(_.clone())), hasher)
  }
}
