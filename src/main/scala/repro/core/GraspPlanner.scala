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
  * Algorithm 2 runs incrementally, with the same picks as a full rescan. A
  * pick (s → t, l) changes only the statistics of shares (s, l) and (t, l),
  * and `V_l` bars both fragments from partition `l` for the rest of the
  * phase, so no remaining candidate's cost changes mid-phase. The planner
  * therefore prices every candidate once, keeps the finite ones in one order
  * by (cost, l, s, t) — the rescan's argmin with its first-in-scan-order
  * tie-break — and builds a phase with one greedy walk over that order.
  * After the phase only the rows and columns of the touched shares are
  * repriced, sorted and merged back in.
  *
  * The planner mutates only a private copy of the statistics; `cost` and
  * `costMatrix` report Eq. 8 on its current state (before `plan()`, the
  * first phase's matrix, as in the paper's Fig. 7 example).
  */
final class GraspPlanner(
    stats: PlannerState,
    bandwidth: Array[Array[Double]],
    mapping: Mapping,
    tupleBytes: Double,
) {
  require(bandwidth.length == stats.nFragments, "bandwidth matrix arity mismatch")
  require(mapping.numPartitions == stats.numPartitions, "mapping arity mismatch")
  require(tupleBytes > 0, "tuple width must be positive")
  require(stats.numPartitions.toLong * stats.nFragments * stats.nFragments < Int.MaxValue,
    "too many (s, t, l) candidates to plan")

  private val n = stats.nFragments
  private val m = stats.numPartitions
  private val state = stats.copy()

  /** COST(s → t) of shipping fragment s's share of partition l (Eq. 5). */
  private def transferCost(s: Int, t: Int, l: Int): Double =
    state.cardinality(s, l) * tupleBytes / bandwidth(s)(t)

  /** Eq. 8 is finite. Transfers to an empty receiver are only allowed when
    * the receiver is the final destination of the partition (§2.1's
    * selection constraint).
    */
  private def viable(s: Int, t: Int, l: Int): Boolean =
    s != t && s != mapping(l) && state.hasData(s, l) && (state.hasData(t, l) || t == mapping(l))

  /** Eq. 8 for (s → t, l) reads ESTCARD, and so J(s, t, l): both shares
    * hold data and neither fragment is the destination. Symmetric in s, t.
    */
  private def needsJaccard(s: Int, t: Int, l: Int): Boolean =
    t != mapping(l) && viable(s, t, l)

  /** Eq. 8, given `jaccard` = J(s, t, l) for the lookahead term.
    * `Double.PositiveInfinity` encodes the ∞ penalties.
    */
  private def eq8(s: Int, t: Int, l: Int, jaccard: Double): Double =
    if (!viable(s, t, l)) Double.PositiveInfinity
    else if (t == mapping(l)) transferCost(s, t, l)
    else {
      val estCard = (state.cardinality(s, l) + state.cardinality(t, l)).toDouble / (1.0 + jaccard)
      transferCost(s, t, l) + estCard * tupleBytes / bandwidth(s)(t)
    }

  /** Eq. 8 on the current planner state. */
  def cost(s: Int, t: Int, l: Int): Double = eq8(s, t, l, state.estJaccard(s, t, l))

  /** The full `C_i` matrix for the *current* planner state, for a single
    * partition — matches Fig. 7 of the paper (rows = sender, cols =
    * receiver).
    */
  def costMatrix(l: Int): Array[Array[Double]] =
    Array.tabulate(n, n)((s, t) => cost(s, t, l))

  // --- Planning state, filled by plan().

  /** Eq. 8 cost of candidate (s → t, l) at `index(s, t, l)`. */
  private val costs = new Array[Double](m * n * n)
  /** The finite candidates, sorted by [[before]]. */
  private var order = new Array[Int](0)

  /** Row-major over (l, s, t), so index order is the rescan's loop order. */
  private def index(s: Int, t: Int, l: Int): Int = (l * n + s) * n + t

  /** The strict total order of Algorithm 2's picks: cost, then scan order. */
  private def before(a: Int, b: Int): Boolean =
    costs(a) < costs(b) || (costs(a) == costs(b) && a < b)

  /** Reprices v → x and x → v in partition l; they share one signature
    * comparison.
    */
  private def price(v: Int, x: Int, l: Int): Unit = {
    val j = if (needsJaccard(v, x, l)) state.estJaccard(v, x, l) else 0.0
    costs(index(v, x, l)) = eq8(v, x, l, j)
    costs(index(x, v, l)) = eq8(x, v, l, j)
  }

  /** Merges the sorted runs `a[aFrom, aTo)` and `b[bFrom, bTo)` into `out`
    * from `at`.
    */
  private def merge(
      a: Array[Int], aFrom: Int, aTo: Int,
      b: Array[Int], bFrom: Int, bTo: Int,
      out: Array[Int], at: Int,
  ): Unit = {
    var i = aFrom; var j = bFrom; var k = at
    while (i < aTo && j < bTo) {
      if (before(b(j), a(i))) { out(k) = b(j); j += 1 }
      else { out(k) = a(i); i += 1 }
      k += 1
    }
    System.arraycopy(a, i, out, k, aTo - i)
    System.arraycopy(b, j, out, k + aTo - i, bTo - j)
  }

  /** Bottom-up merge sort of `xs[0, len)` by [[before]]; the result is in
    * the returned array, `xs` or `tmp`.
    */
  private def sortByCost(xs: Array[Int], len: Int, tmp: Array[Int]): Array[Int] = {
    var src = xs; var dst = tmp
    var width = 1
    while (width < len) {
      var lo = 0
      while (lo < len) {
        val mid = math.min(lo + width, len)
        val hi = math.min(lo + 2 * width, len)
        merge(src, lo, mid, src, mid, hi, dst, lo)
        lo = hi
      }
      val swap = src; src = dst; dst = swap
      width *= 2
    }
    src
  }

  /** Prices every candidate and sorts the finite ones. */
  private def initOrder(): Unit = {
    java.util.Arrays.fill(costs, Double.PositiveInfinity)
    for (l <- 0 until m; v <- 0 until n; x <- v + 1 until n) price(v, x, l)
    val finite = Array.range(0, costs.length).filter(c => costs(c) < Double.PositiveInfinity)
    order = sortByCost(finite, finite.length, new Array[Int](finite.length))
  }

  /** Algorithm 2: select the transfers of one phase by a greedy walk over
    * the order, applying `V_send`, `V_recv` and `V_l`. Mutates the planner
    * state via UPDATE as transfers are picked. Returns an empty phase iff no
    * viable transfer exists. `touched(l·n + v)` must be all false on entry;
    * on return it marks the shares the phase changed, the complement of
    * `V_l`.
    */
  private def selectPhase(touched: Array[Boolean]): Phase = {
    val vSend = Array.fill(n)(true)
    val vRecv = Array.fill(n)(true)
    val picked = new ArrayBuffer[Transfer]
    var sendLeft = n
    var recvLeft = n
    var i = 0
    while (i < order.length && sendLeft > 0 && recvLeft > 0) {
      val c = order(i)
      val ls = c / n
      val t = c - ls * n
      val l = ls / n
      val s = ls - l * n
      val lt = ls - s + t
      if (vSend(s) && vRecv(t) && !touched(ls) && !touched(lt)) {
        vSend(s) = false; sendLeft -= 1
        vRecv(t) = false; recvLeft -= 1
        touched(ls) = true
        touched(lt) = true
        picked += Transfer(s, t, l)
        state.update(s, t, l)
      }
      i += 1
    }
    Phase(picked.toVector)
  }

  /** Reprices the rows and columns of the `touched` shares, drops them
    * from the order and merges the finite ones back in. `dirty` and `tmp`
    * hold every repriced candidate: each pair is repriced once, so at most
    * m·n², and 4·(n − 1) per pick with at most n picks per phase.
    */
  private def reorder(phase: Phase, touched: Array[Boolean], dirty: Array[Int], tmp: Array[Int]): Unit = {
    var nDirty = 0
    for (tr <- phase.transfers; v <- Seq(tr.src, tr.dst)) {
      val l = tr.partition
      var x = 0
      while (x < n) {
        // A pair of two touched shares is repriced once, from its larger end.
        if (x != v && !(x < v && touched(l * n + x))) {
          price(v, x, l)
          val out = index(v, x, l)
          val in = index(x, v, l)
          if (costs(out) < Double.PositiveInfinity) { dirty(nDirty) = out; nDirty += 1 }
          if (costs(in) < Double.PositiveInfinity) { dirty(nDirty) = in; nDirty += 1 }
        }
        x += 1
      }
    }
    var kept = 0
    var i = 0
    while (i < order.length) {
      val c = order(i)
      val ls = c / n
      if (!touched(ls) && !touched(ls - ls % n + c % n)) { order(kept) = c; kept += 1 }
      i += 1
    }
    val fresh = sortByCost(dirty, nDirty, tmp)
    val merged = new Array[Int](kept + nDirty)
    merge(order, 0, kept, fresh, 0, nDirty, merged, 0)
    order = merged
  }

  /** Build the full plan: phases until Eq. 2 / Eq. 7 completion. */
  def plan(): AggPlan = {
    initOrder()
    val dirty = new Array[Int](math.min(m, 4) * n * n)
    val tmp = new Array[Int](dirty.length)
    val touched = new Array[Boolean](m * n)
    val phases = Vector.newBuilder[Phase]
    var guard = 0
    // Every transfer either merges two non-empty shares or delivers one to
    // its destination, so the total number of shares strictly decreases each
    // phase; n*m + 1 phases is a safe upper bound.
    val maxPhases = n * m + 1
    while (!state.done(mapping)) {
      java.util.Arrays.fill(touched, false)
      val phase = selectPhase(touched)
      require(phase.transfers.nonEmpty,
        s"GRASP stalled: no viable transfer but aggregation incomplete (phase $guard)")
      phases += phase
      guard += 1
      require(guard <= maxPhases, s"GRASP exceeded $maxPhases phases — planner bug")
      reorder(phase, touched, dirty, tmp)
    }
    AggPlan(phases.result())
  }
}

object GraspPlanner {
  /** Convenience: plan with the topology's in-isolation bandwidth matrix —
    * what the §3.2 startup benchmark would measure.
    */
  def plan(
      stats: PlannerState,
      topo: Topology,
      mapping: Mapping,
      tupleBytes: Double,
  ): AggPlan =
    new GraspPlanner(stats, topo.bandwidthMatrix, mapping, tupleBytes).plan()
}
