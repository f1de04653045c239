package repro.core

import scala.collection.mutable.ArrayBuffer

/** GRASP — the GReedy Aggregation Scheduling Protocol (§3 of the paper).
  *
  * Planning inputs (Fig. 5): the bandwidth matrix `B`, the destination
  * mapping `M`, and the `Card`/`MinH` statistics. The planner repeatedly
  * builds one phase with Algorithm 2, applying the Eq. 8 cost heuristic
  * `C_i(s, t, l)`:
  *
  *  - ∞ for self/circular/empty transfers,
  *  - `COST(s → t)` when `t` is the final destination of `l`,
  *  - `COST(s → t) + ESTCARD(s,t,l)·w / B(s→t)` otherwise — the one-phase
  *    lookahead that prices the re-transmission of the merged result.
  *
  * The planner mutates only its own copy of the statistics; it returns the
  * phased plan plus the cost matrix of the first phase (for tests against
  * the paper's Fig. 7 example).
  *
  * Test-scope oracle: the direct transcription of Algorithm 2, which rescans
  * every candidate for every pick, over its own nested `Card`/`MinH` arrays
  * and its own transcription of Algorithm 1, so it shares no statistics code
  * with [[PlannerState]] past reading the input. [[GraspPlanner]] must
  * return the same plans.
  */
final class ReferenceGraspPlanner(
    stats: PlannerState,
    bandwidth: Array[Array[Double]],
    mapping: Mapping,
    tupleBytes: Double,
) {
  require(bandwidth.length == stats.nFragments, "bandwidth matrix arity mismatch")
  require(mapping.numPartitions == stats.numPartitions, "mapping arity mismatch")
  require(tupleBytes > 0, "tuple width must be positive")

  private val n = stats.nFragments
  private val m = stats.numPartitions
  private val k = stats.hasher.numHashes

  // The oracle's own Card and MinH, nested [v][l] and `Long`, read once from
  // `stats`; the empty component is Long.MaxValue. Nothing below reads
  // `stats` again, so a fault in PlannerState's layout after its
  // construction cannot hide here.
  private val card: Array[Array[Long]] = Array.tabulate(n, m)(stats.cardinality)
  private val minH: Array[Array[Array[Long]]] = Array.tabulate(n, m) { (v, l) =>
    stats.signature(v, l).map(c => if (c == Int.MaxValue) Long.MaxValue else c.toLong)
  }

  private def hasData(v: Int, l: Int): Boolean = card(v)(l) > 0

  /** Fig. 6: the fraction of agreeing components; 0 for two empty sets. */
  private def estJaccard(s: Int, t: Int, l: Int): Double = {
    val (a, b) = (minH(s)(l), minH(t)(l))
    val agree = (0 until k).count(j => a(j) == b(j))
    if (a.forall(_ == Long.MaxValue) && b.forall(_ == Long.MaxValue)) 0.0 else agree.toDouble / k
  }

  /** ESTCARD(s, t, l) — Algorithm 1: (|S| + |T|) / (1 + J), rounded. */
  private def estCard(s: Int, t: Int, l: Int): Long =
    math.round((card(s)(l) + card(t)(l)).toDouble / (1.0 + estJaccard(s, t, l)))

  /** UPDATE(s, t, l) — Algorithm 1: t holds the union, s nothing. */
  private def update(s: Int, t: Int, l: Int): Unit = {
    card(t)(l) = estCard(s, t, l)
    card(s)(l) = 0L
    minH(t)(l) = Array.tabulate(k)(j => math.min(minH(s)(l)(j), minH(t)(l)(j)))
    minH(s)(l) = Array.fill(k)(Long.MaxValue)
  }

  /** Eq. 2 / Eq. 7: every share is at its partition's destination. */
  private def done: Boolean =
    (0 until m).forall(l => (0 until n).forall(v => v == mapping(l) || !hasData(v, l)))

  // Memoized Jaccard estimates per (l, s, t). Signature comparison is
  // O(numHashes) and sits inside the Algorithm 2 argmin loop, so it is
  // cached and invalidated only for the rows/columns UPDATE touches. NaN
  // marks an invalid entry.
  private val jCache = Array.fill(m, n, n)(Double.NaN)

  private def jaccard(s: Int, t: Int, l: Int): Double = {
    val cached = jCache(l)(s)(t)
    if (!cached.isNaN) cached
    else {
      val j = estJaccard(s, t, l)
      jCache(l)(s)(t) = j
      jCache(l)(t)(s) = j
      j
    }
  }

  private def invalidate(v: Int, l: Int): Unit = {
    val plane = jCache(l)
    var x = 0
    while (x < n) { plane(v)(x) = Double.NaN; plane(x)(v) = Double.NaN; x += 1 }
  }

  private def applyUpdate(s: Int, t: Int, l: Int): Unit = {
    update(s, t, l)
    invalidate(s, l)
    invalidate(t, l)
  }

  /** ESTCARD through the Jaccard cache, unrounded as in Eq. 8. */
  private def estCardCached(s: Int, t: Int, l: Int): Double =
    (card(s)(l) + card(t)(l)).toDouble / (1.0 + jaccard(s, t, l))

  /** COST(s → t) of shipping fragment s's share of partition l (Eq. 5). */
  private def transferCost(s: Int, t: Int, l: Int): Double =
    card(s)(l) * tupleBytes / bandwidth(s)(t)

  /** Eq. 8. `Double.PositiveInfinity` encodes the ∞ penalties. Transfers to
    * an empty receiver are only allowed when the receiver is the final
    * destination of the partition (§2.1's selection constraint).
    */
  def cost(s: Int, t: Int, l: Int): Double = {
    if (s == t) return Double.PositiveInfinity
    if (s == mapping(l)) return Double.PositiveInfinity
    if (!hasData(s, l)) return Double.PositiveInfinity
    if (!hasData(t, l) && t != mapping(l)) return Double.PositiveInfinity
    if (t == mapping(l)) transferCost(s, t, l)
    else transferCost(s, t, l) + estCardCached(s, t, l) * tupleBytes / bandwidth(s)(t)
  }

  /** The full `C_i` matrix for the *current* planner state, for a single
    * partition — matches Fig. 7 of the paper (rows = sender, cols =
    * receiver).
    */
  def costMatrix(l: Int): Array[Array[Double]] =
    Array.tabulate(n, n)((s, t) => cost(s, t, l))

  /** Algorithm 2: select the transfers of one phase. Mutates the planner
    * state via UPDATE as transfers are picked. Returns an empty phase iff no
    * viable transfer exists.
    */
  private def selectPhase(): Phase = {
    val vSend = Array.fill(n)(true)
    val vRecv = Array.fill(n)(true)
    // V_l: nodes still allowed to operate on partition l within this phase.
    val vPart = Array.fill(m, n)(true)
    val picked = new ArrayBuffer[Transfer]
    var sendLeft = n
    var recvLeft = n

    var continue = true
    while (continue && sendLeft > 0 && recvLeft > 0) {
      // Pick (s → t, l) minimizing C_i over the remaining candidates.
      var bestS = -1; var bestT = -1; var bestL = -1
      var bestC = Double.PositiveInfinity
      var l = 0
      while (l < m) {
        var s = 0
        while (s < n) {
          if (vSend(s) && vPart(l)(s) && hasData(s, l) && s != mapping(l)) {
            var t = 0
            while (t < n) {
              if (t != s && vRecv(t) && vPart(l)(t)) {
                val c = cost(s, t, l)
                if (c < bestC) { bestC = c; bestS = s; bestT = t; bestL = l }
              }
              t += 1
            }
          }
          s += 1
        }
        l += 1
      }
      if (bestS < 0) continue = false
      else {
        vSend(bestS) = false; sendLeft -= 1
        vRecv(bestT) = false; recvLeft -= 1
        vPart(bestL)(bestS) = false
        vPart(bestL)(bestT) = false
        picked += Transfer(bestS, bestT, bestL)
        applyUpdate(bestS, bestT, bestL)
      }
    }
    Phase(picked.toVector)
  }

  /** Build the full plan: phases until Eq. 2 / Eq. 7 completion. */
  def plan(): AggPlan = {
    val phases = Vector.newBuilder[Phase]
    var guard = 0
    // Every transfer either merges two non-empty shares or delivers one to
    // its destination, so the total number of shares strictly decreases each
    // phase; n*m + 1 phases is a safe upper bound.
    val maxPhases = n * m + 1
    while (!done) {
      val phase = selectPhase()
      require(phase.transfers.nonEmpty,
        s"GRASP stalled: no viable transfer but aggregation incomplete (phase $guard)")
      phases += phase
      guard += 1
      require(guard <= maxPhases, s"GRASP exceeded $maxPhases phases — planner bug")
    }
    AggPlan(phases.result())
  }
}

object ReferenceGraspPlanner {
  /** Convenience: plan with the topology's in-isolation bandwidth matrix —
    * what the §3.2 startup benchmark would measure.
    */
  def plan(
      stats: PlannerState,
      topo: Topology,
      mapping: Mapping,
      tupleBytes: Double,
  ): AggPlan =
    new ReferenceGraspPlanner(stats, topo.bandwidthMatrix, mapping, tupleBytes).plan()
}
