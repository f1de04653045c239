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
  * it keeps beside the candidates as their only cost. After the phase only
  * the rows and columns of the touched shares are repriced and radix-sorted;
  * one sequential pass then drops the stale entries and merges the fresh
  * ones in, alternating between two buffers sized by the first phase's
  * viable candidates: 24 bytes per candidate, with no m·n² cost array.
  *
  * A candidate's id packs (l, s, t) into bit fields of ⌈log₂ n⌉ bits for s
  * and t, so ids order as the rescan's loop and the kernels decode them with
  * shifts and masks. Ids are `Int`s, which caps m·2^(2⌈log₂ n⌉) at 2^31:
  * n ≤ 1,024 when m = n, where the order alone would take about 25 GB.
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
  /** Bits of a fragment number in a candidate id: max(1, ⌈log₂ n⌉). */
  private val bits = math.max(1, 32 - Integer.numberOfLeadingZeros(stats.nFragments - 1))

  require(bandwidth.length == stats.nFragments, "bandwidth matrix arity mismatch")
  require(mapping.numPartitions == stats.numPartitions, "mapping arity mismatch")
  require(tupleBytes > 0, "tuple width must be positive")
  require((stats.numPartitions.toLong << (2 * bits)) <= (1L << 31),
    s"too many (s, t, l) candidates to plan: ${stats.numPartitions} partitions × " +
      s"${stats.nFragments} fragments need m·2^(2⌈log₂ n⌉) ≤ 2^31 candidate ids " +
      "(n ≤ 1,024 when m = n)")

  private val n = stats.nFragments
  private val m = stats.numPartitions
  private val mask = (1 << bits) - 1
  private val state = stats.copy()
  /** `mapping`'s destinations, read once: `dest(l)` is partition l's. */
  private val dest: Array[Int] = mapping.destinationOf.toArray

  /** COST(s → t) of shipping fragment s's share of partition l (Eq. 5). */
  private def transferCost(s: Int, t: Int, l: Int): Double =
    state.cardinality(s, l) * tupleBytes / bandwidth(s)(t)

  /** Eq. 8 is finite. Transfers to an empty receiver are only allowed when
    * the receiver is the final destination of the partition (§2.1's
    * selection constraint).
    */
  private def viable(s: Int, t: Int, l: Int): Boolean =
    s != t && s != dest(l) && state.hasData(s, l) && (state.hasData(t, l) || t == dest(l))

  /** Eq. 8 for (s → t, l) reads ESTCARD, and so J(s, t, l): both shares
    * hold data and neither fragment is the destination. Symmetric in s, t.
    */
  private def needsJaccard(s: Int, t: Int, l: Int): Boolean =
    t != dest(l) && viable(s, t, l)

  /** Eq. 8, given `jaccard` = J(s, t, l) for the lookahead term.
    * `Double.PositiveInfinity` encodes the ∞ penalties.
    */
  private def eq8(s: Int, t: Int, l: Int, jaccard: Double): Double =
    if (!viable(s, t, l)) Double.PositiveInfinity
    else if (t == dest(l)) transferCost(s, t, l)
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

  /** `order[0, orderLen)` holds the finite candidates in the strict total
    * order of Algorithm 2's picks: cost, then id (the rescan's scan order).
    * `orderKeys` holds their costs' raw bits alongside, the only copy of the
    * costs. The next [[reorder]] writes into `spare` and `spareKeys`. All
    * four hold every viable candidate of the first phase: shares only ever
    * empty, so the viable set only shrinks.
    */
  private var order = new Array[Int](0)
  private var orderKeys = new Array[Long](0)
  private var spare = new Array[Int](0)
  private var spareKeys = new Array[Long](0)
  private var orderLen = 0

  /** Candidate (s → t, l)'s id: the bit fields l | s | t, so ids order as
    * the rescan's (l, s, t) loop and `id >>> bits` is the share (l, s).
    */
  private def id(s: Int, t: Int, l: Int): Int = (((l << bits) | s) << bits) | t

  /** Appends candidate (s → t, l) and its cost's raw bits at `at` when the
    * cost is finite; returns the new length.
    */
  private def emit(s: Int, t: Int, l: Int, jaccard: Double, ids: Array[Int], keys: Array[Long],
      at: Int): Int = {
    val c = eq8(s, t, l, jaccard)
    if (c < Double.PositiveInfinity) {
      ids(at) = id(s, t, l)
      keys(at) = java.lang.Double.doubleToRawLongBits(c)
      at + 1
    } else at
  }

  /** Prices v → x and x → v in partition l, which share one signature
    * comparison, and appends the finite ones at `at`; returns the new length.
    */
  private def price(v: Int, x: Int, l: Int, ids: Array[Int], keys: Array[Long], at: Int): Int = {
    val j = if (needsJaccard(v, x, l)) state.estJaccard(v, x, l) else 0.0
    emit(x, v, l, j, ids, keys, emit(v, x, l, j, ids, keys, at))
  }

  /** Sorts the candidates `xs[0, len)`, with their cost bits in `keys`, by
    * cost: a stable LSD radix sort, one byte per pass. Finite Eq. 8 costs are
    * ≥ 0, so their raw bits order as their values. A byte on which all keys
    * agree gets no pass. `tmp` and `keysTmp` hold at least `len` elements.
    * The sorted candidates end in the returned array, `xs` or `tmp`, and
    * their keys in `keys` or `keysTmp` respectively.
    */
  private def radixSort(
      xs: Array[Int], keys: Array[Long], len: Int, tmp: Array[Int], keysTmp: Array[Long],
  ): Array[Int] = {
    val counts = new Array[Int](8 * 256)
    var i = 0
    while (i < len) {
      val key = keys(i)
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

  /** Prices every candidate and sorts the finite ones. They are emitted in
    * id order, so the stable sort leaves equal costs in id order.
    */
  private def initOrder(): Unit = {
    // Partition l has k senders with data besides its destination, and each
    // may send to the k − 1 others or to the destination: k² viable
    // candidates, a superset of the finite ones.
    var viableCount = 0
    for (l <- 0 until m) {
      val k = (0 until n).count(v => v != dest(l) && state.hasData(v, l))
      viableCount += k * k
    }
    order = new Array[Int](viableCount)
    orderKeys = new Array[Long](viableCount)
    spare = new Array[Int](viableCount)
    spareKeys = new Array[Long](viableCount)
    // J(s, t, l) for s < t, kept while the rows of partition l are emitted;
    // an entry is read back only where Eq. 8 needs it, as it was written.
    val jaccard = new Array[Double](n * n)
    var len = 0
    for (l <- 0 until m; s <- 0 until n) {
      var t = 0
      while (t < n) {
        val j =
          if (t < s) jaccard(t * n + s)
          else if (needsJaccard(s, t, l)) { val e = state.estJaccard(s, t, l); jaccard(s * n + t) = e; e }
          else 0.0
        len = emit(s, t, l, j, spare, spareKeys, len)
        t += 1
      }
    }
    if (radixSort(spare, spareKeys, len, order, orderKeys) eq spare) {
      val swap = order; order = spare; spare = swap
      val swapKeys = orderKeys; orderKeys = spareKeys; spareKeys = swapKeys
    }
    orderLen = len
  }

  /** Algorithm 2: select the transfers of one phase by a greedy walk over
    * the order, applying `V_send`, `V_recv` and `V_l`. Mutates the planner
    * state via UPDATE as transfers are picked. Returns an empty phase iff no
    * viable transfer exists. `touched((l << bits) | v)` must be all false on
    * entry; on return it marks the shares the phase changed, the complement
    * of `V_l`.
    */
  private def selectPhase(touched: Array[Boolean]): Phase = {
    val vSend = Array.fill(n)(true)
    val vRecv = Array.fill(n)(true)
    val picked = new ArrayBuffer[Transfer]
    var sendLeft = n
    var recvLeft = n
    // Locals, because `state.update` in the loop would make the JIT reload fields.
    val order = this.order
    val len = orderLen
    val bits = this.bits
    val mask = this.mask
    var i = 0
    while (i < len && sendLeft > 0 && recvLeft > 0) {
      val c = order(i)
      val ls = c >>> bits
      val t = c & mask
      val s = ls & mask
      val lt = (ls & ~mask) | t
      if (vSend(s) && vRecv(t) && !touched(ls) && !touched(lt)) {
        vSend(s) = false; sendLeft -= 1
        vRecv(t) = false; recvLeft -= 1
        touched(ls) = true
        touched(lt) = true
        val l = ls >>> bits
        picked += Transfer(s, t, l)
        state.update(s, t, l)
      }
      i += 1
    }
    Phase(picked.toVector)
  }

  /** Reprices the rows and columns of the `touched` shares, sorts the
    * finite ones into (cost, id) order, and [[merge]]s them into the order in
    * place of the stale entries. `dirty` and the sort buffers hold every
    * finite repriced candidate: each pair is repriced once, so at most the
    * order's size, and 4·(n − 1) per pick with at most n picks per phase.
    */
  private def reorder(phase: Phase, touched: Array[Boolean], dirty: Array[Int], tmp: Array[Int],
      keys: Array[Long], keysTmp: Array[Long]): Unit = {
    var nDirty = 0
    for (tr <- phase.transfers; v <- Seq(tr.src, tr.dst)) {
      val l = tr.partition
      var x = 0
      while (x < n) {
        // A pair of two touched shares is repriced once, from its smaller end.
        if (x != v && !(x < v && touched((l << bits) | x))) nDirty = price(v, x, l, dirty, keys, nDirty)
        x += 1
      }
    }
    val fresh = radixSort(dirty, keys, nDirty, tmp, keysTmp)
    val freshKeys = if (fresh eq dirty) keys else keysTmp
    // The candidates were emitted by share, not by id: restore id order
    // among equal costs.
    var from = 0
    while (from < nDirty) {
      var to = from + 1
      while (to < nDirty && freshKeys(to) == freshKeys(from)) to += 1
      if (to - from > 1) java.util.Arrays.sort(fresh, from, to)
      from = to
    }
    orderLen = merge(touched, fresh, freshKeys, nDirty)
    val swap = order; order = spare; spare = swap
    val swapKeys = orderKeys; orderKeys = spareKeys; spareKeys = swapKeys
  }

  /** One sequential pass over the order that drops the candidates of the
    * `touched` shares and merges `fresh[0, nFresh)`, sorted by (cost, id),
    * in, writing into the spare buffers. Returns the new order's length.
    * Arrays and fields are read into locals once: the loop runs once per
    * candidate per phase, the planner's hottest.
    */
  private def merge(touched: Array[Boolean], fresh: Array[Int], freshKeys: Array[Long],
      nFresh: Int): Int = {
    val order = this.order
    val orderKeys = this.orderKeys
    val spare = this.spare
    val spareKeys = this.spareKeys
    val len = orderLen
    val bits = this.bits
    val mask = this.mask
    // The next fresh candidate; once all are merged its key is Long.MaxValue,
    // above the raw bits of every finite cost.
    var j = 0
    var freshKey = if (nFresh > 0) freshKeys(0) else Long.MaxValue
    var freshId = if (nFresh > 0) fresh(0) else 0
    var k = 0
    var i = 0
    while (i < len) {
      val c = order(i)
      val ls = c >>> bits
      if (!touched(ls) && !touched((ls & ~mask) | (c & mask))) {
        val key = orderKeys(i)
        while (freshKey < key || (freshKey == key && freshId < c)) {
          spare(k) = freshId; spareKeys(k) = freshKey; k += 1
          j += 1
          if (j < nFresh) { freshKey = freshKeys(j); freshId = fresh(j) } else freshKey = Long.MaxValue
        }
        spare(k) = c; spareKeys(k) = key; k += 1
      }
      i += 1
    }
    System.arraycopy(fresh, j, spare, k, nFresh - j)
    System.arraycopy(freshKeys, j, spareKeys, k, nFresh - j)
    k + nFresh - j
  }

  /** Build the full plan: phases until Eq. 2 / Eq. 7 completion. */
  def plan(): AggPlan = {
    initOrder()
    val dirty = new Array[Int](math.min(order.length.toLong, 4L * n * n).toInt)
    val tmp = new Array[Int](dirty.length)
    val keys = new Array[Long](dirty.length)
    val keysTmp = new Array[Long](dirty.length)
    val touched = new Array[Boolean](m << bits)
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
