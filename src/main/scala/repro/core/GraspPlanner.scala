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
  * The order is built by a stable radix sort on the costs' raw bits, which
  * it keeps beside the candidates. After the phase only the rows and
  * columns of the touched shares are repriced and radix-sorted; one
  * sequential pass then drops the stale entries and merges the fresh ones
  * in, alternating between two buffers sized by the first order.
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
  /** `order[0, orderLen)` holds the finite candidates in the strict total
    * order of Algorithm 2's picks: cost, then index (the rescan's scan
    * order). `orderKeys` holds their costs' raw bits alongside, so that
    * [[reorder]] compares costs without reading `costs` at random. The
    * next [[reorder]] writes into `spare` and `spareKeys`. Shares only
    * ever empty, so the finite set only shrinks and all four keep the size
    * of the first order; [[reorder]] grows them only for costs that
    * overflowed to ∞.
    */
  private var order = new Array[Int](0)
  private var orderKeys = new Array[Long](0)
  private var spare = new Array[Int](0)
  private var spareKeys = new Array[Long](0)
  private var orderLen = 0

  /** Row-major over (l, s, t), so index order is the rescan's loop order. */
  private def index(s: Int, t: Int, l: Int): Int = (l * n + s) * n + t

  /** Reprices v → x and x → v in partition l; they share one signature
    * comparison.
    */
  private def price(v: Int, x: Int, l: Int): Unit = {
    val j = if (needsJaccard(v, x, l)) state.estJaccard(v, x, l) else 0.0
    costs(index(v, x, l)) = eq8(v, x, l, j)
    costs(index(x, v, l)) = eq8(x, v, l, j)
  }

  /** Sorts the ascending candidates `xs[0, len)` into the order's (cost,
    * index) order: a stable LSD radix sort, one byte per pass, on the raw
    * bits of their costs. Finite Eq. 8 costs are ≥ 0, so their raw bits
    * order as their values, and stability keeps index order among equal
    * costs. A byte on which all keys agree gets no pass. `tmp`, `keys` and
    * `keysTmp` hold at least `len` elements. The sorted candidates end in
    * the returned array, `xs` or `tmp`, and their keys in `keys` or
    * `keysTmp` respectively.
    */
  private def radixSort(
      xs: Array[Int], len: Int, tmp: Array[Int], keys: Array[Long], keysTmp: Array[Long],
  ): Array[Int] = {
    val counts = new Array[Int](8 * 256)
    var i = 0
    while (i < len) {
      val key = java.lang.Double.doubleToRawLongBits(costs(xs(i)))
      keys(i) = key
      var d = 0
      while (d < 8) { counts(d * 256 + ((key >>> (8 * d)).toInt & 0xFF)) += 1; d += 1 }
      i += 1
    }
    var src = xs; var dst = tmp
    var srcKeys = keys; var dstKeys = keysTmp
    var d = 0
    while (d < 8 && len > 0) {
      val shift = 8 * d
      val base = d * 256
      if (counts(base + ((srcKeys(0) >>> shift).toInt & 0xFF)) < len) {
        var start = 0
        var b = 0
        while (b < 256) { val c = counts(base + b); counts(base + b) = start; start += c; b += 1 }
        i = 0
        while (i < len) {
          val key = srcKeys(i)
          val at = base + ((key >>> shift).toInt & 0xFF)
          val k = counts(at)
          counts(at) = k + 1
          dst(k) = src(i)
          dstKeys(k) = key
          i += 1
        }
        val swap = src; src = dst; dst = swap
        val swapKeys = srcKeys; srcKeys = dstKeys; dstKeys = swapKeys
      }
      d += 1
    }
    src
  }

  /** Prices every candidate and sorts the finite ones. */
  private def initOrder(): Unit = {
    java.util.Arrays.fill(costs, Double.PositiveInfinity)
    for (l <- 0 until m; v <- 0 until n; x <- v + 1 until n) price(v, x, l)
    val nFinite = costs.count(_ < Double.PositiveInfinity)
    val finite = new Array[Int](nFinite)
    var k = 0
    for (c <- costs.indices if costs(c) < Double.PositiveInfinity) { finite(k) = c; k += 1 }
    val other = new Array[Int](nFinite)
    val keys = new Array[Long](nFinite)
    val otherKeys = new Array[Long](nFinite)
    order = radixSort(finite, nFinite, other, keys, otherKeys)
    if (order eq finite) { orderKeys = keys; spare = other; spareKeys = otherKeys }
    else { orderKeys = otherKeys; spare = finite; spareKeys = keys }
    orderLen = nFinite
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
    while (i < orderLen && sendLeft > 0 && recvLeft > 0) {
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

  /** Reprices the rows and columns of the `touched` shares, then in one
    * pass drops them from the order and merges the finite ones back in,
    * writing into the spare buffers. `dirty` and the sort buffers hold
    * every repriced candidate: each pair is repriced once, so at most
    * m·n², and 4·(n − 1) per pick with at most n picks per phase.
    */
  private def reorder(phase: Phase, touched: Array[Boolean], dirty: Array[Int], tmp: Array[Int],
      keys: Array[Long], keysTmp: Array[Long]): Unit = {
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
    java.util.Arrays.sort(dirty, 0, nDirty)
    val fresh = radixSort(dirty, nDirty, tmp, keys, keysTmp)
    val freshKeys = if (fresh eq dirty) keys else keysTmp
    // A cost that overflowed to ∞ can turn finite when a merged share's
    // estimate shrinks; only then can the order outgrow its buffers.
    if (orderLen + nDirty > spare.length) {
      spare = new Array[Int](orderLen + nDirty)
      spareKeys = new Array[Long](orderLen + nDirty)
    }
    var j = 0
    var k = 0
    var i = 0
    while (i < orderLen) {
      val c = order(i)
      val ls = c / n
      if (!touched(ls) && !touched(ls - ls % n + c % n)) {
        val key = orderKeys(i)
        while (j < nDirty && (freshKeys(j) < key || (freshKeys(j) == key && fresh(j) < c))) {
          spare(k) = fresh(j); spareKeys(k) = freshKeys(j); j += 1; k += 1
        }
        spare(k) = c; spareKeys(k) = key; k += 1
      }
      i += 1
    }
    System.arraycopy(fresh, j, spare, k, nDirty - j)
    System.arraycopy(freshKeys, j, spareKeys, k, nDirty - j)
    val swap = order; order = spare; spare = swap
    val swapKeys = orderKeys; orderKeys = spareKeys; spareKeys = swapKeys
    orderLen = k + nDirty - j
  }

  /** Build the full plan: phases until Eq. 2 / Eq. 7 completion. */
  def plan(): AggPlan = {
    initOrder()
    val dirty = new Array[Int](math.min(m, 4) * n * n)
    val tmp = new Array[Int](dirty.length)
    val keys = new Array[Long](dirty.length)
    val keysTmp = new Array[Long](dirty.length)
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
      reorder(phase, touched, dirty, tmp, keys, keysTmp)
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
