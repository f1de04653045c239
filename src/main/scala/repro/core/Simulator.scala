package repro.core

/** One fragment's share of one partition.
  *
  * `keys` is the exact (sorted, distinct) key set; `rawCount` the number of
  * raw tuples before any local aggregation. `aggregated` tracks whether the
  * share has been hash-aggregated locally — shares of pre-aggregating
  * algorithms start aggregated, a Repart share only becomes aggregated when
  * it is merged at a receiver.
  */
final class Share(var keys: Array[Long], var rawCount: Long, var aggregated: Boolean) {
  def tuples: Long = if (aggregated) keys.length.toLong else rawCount
  def isEmpty: Boolean = keys.isEmpty && rawCount == 0
  def copy(): Share = new Share(keys, rawCount, aggregated)
}

/** Exact per-(fragment, partition) data of the whole cluster. */
final class ClusterData(val shares: Array[Array[Share]]) {
  val nFragments: Int = shares.length
  val numPartitions: Int = if (shares.isEmpty) 0 else shares(0).length
  def apply(v: Int, l: Int): Share = shares(v)(l)
  def copy(): ClusterData = new ClusterData(shares.map(_.map(_.copy())))

  /** Same data viewed with/without local pre-aggregation — Repart ships raw
    * tuples, every other algorithm ships the locally aggregated result.
    */
  def asPreAggregated(flag: Boolean): ClusterData =
    new ClusterData(shares.map(_.map(s => new Share(s.keys, s.rawCount, flag))))

  /** Exact key sets, for building `PlannerState` ground-truth statistics. */
  def keySets: Array[Array[Array[Long]]] = shares.map(_.map(_.keys))

  /** Distinct cardinality of partition `l` across the whole cluster —
    * `|R_root|` for that partition (used to configure LOOM accurately).
    */
  def globalCardinality(l: Int): Long =
    shares.iterator.map(_(l).keys).foldLeft(KeySet.empty)(KeySet.union).length.toLong
}

/** Receiver-side compute throughputs (bytes/second), as measured in §5.3.5:
  * hash aggregation over raw input runs at 309 MB/s, over pre-aggregated
  * input at 811 MB/s. With a 1 Gbps network the aggregation is network
  * bound and these terms never bind; on the EC2 10 Gbps network they do.
  */
final case class ComputeModel(aggRawBw: Double, aggPreBw: Double)

object ComputeModel {
  val Measured: ComputeModel = ComputeModel(309.0 * 1024 * 1024, 811.0 * 1024 * 1024)
}

/** Result of simulating one aggregation plan. */
final case class SimResult(
    totalSeconds: Double,
    phaseSeconds: Vector[Double],
    preAggSeconds: Double,
    tuplesReceived: Array[Long],
    tuplesIntoDestinations: Long,
    resultCardinalities: Array[Long],
)

/** Executes an aggregation plan over exact cluster data under the paper's
  * cost model:
  *
  *  - a phase's network time is the fluid makespan over the star links:
  *    each machine's NIC up/downlink is charged the total bytes of the
  *    inter-machine transfers crossing it in this phase (the §4.1 link
  *    sharing assumption / Eq. 9), intra-machine transfers run on the fast
  *    local path;
  *  - with a [[ComputeModel]], each receiver additionally needs
  *    `receivedBytes / throughput` to fold the arrivals into its hash
  *    table, and pre-aggregating algorithms pay an up-front local
  *    aggregation pass;
  *  - plan cost is the sum of phase costs (Eq. 3), phase cost the max over
  *    its concurrent work (Eq. 4).
  *
  * The simulator works on exact key sets — the planner only ever saw
  * minhash estimates, so estimation error shows up here as real cost.
  */
final class Simulator(
    topo: Topology,
    tupleBytes: Double,
    compute: Option[ComputeModel] = None,
) {

  /** Simulate `plan` over (a private copy of) `data`. */
  def run(plan: AggPlan, data: ClusterData, mapping: Mapping): SimResult = {
    require(data.nFragments == topo.nFragments, "data/topology fragment mismatch")
    require(data.numPartitions == mapping.numPartitions, "data/mapping partition mismatch")
    val state = data.copy()
    val n = state.nFragments
    val tuplesReceived = new Array[Long](n)
    var tuplesIntoDest = 0L

    // Up-front local pre-aggregation pass (step 2 of Fig. 5) — a compute
    // cost only; shares already carry their aggregated flag.
    val preAggSeconds = compute match {
      case Some(cm) =>
        val anyPre = state.shares.iterator.flatten.exists(s => s.aggregated && s.rawCount > 0)
        if (!anyPre) 0.0
        else (0 until n).iterator.map { v =>
          state.shares(v).iterator.filter(_.aggregated).map(_.rawCount).sum * tupleBytes / cm.aggRawBw
        }.foldLeft(0.0)(math.max)
      case None => 0.0
    }

    val phaseSeconds = plan.phases.map { phase =>
      // --- validity: a fragment never sends and receives the same partition
      // in one phase, and every sender has data.
      val sentPartitions = phase.transfers.map(t => (t.src, t.partition)).toSet
      phase.transfers.foreach { tr =>
        require(!sentPartitions.contains((tr.dst, tr.partition)),
          s"$tr: receiver also sends partition ${tr.partition} in the same phase")
        require(!state(tr.src, tr.partition).isEmpty, s"$tr: sender share is empty")
      }

      // --- network: fluid makespan over NIC and intra-machine resources.
      val moved = phase.transfers.map(tr => tr -> state(tr.src, tr.partition).tuples)
      val netSeconds = topo.phaseNetworkSeconds(
        moved.map { case (tr, tuples) => (tr.src, tr.dst, tuples * tupleBytes) })

      // --- compute: receivers fold arrivals into their hash tables.
      val computeSeconds = compute match {
        case Some(cm) =>
          moved.groupBy(_._1.dst).values.iterator.map { trs =>
            trs.iterator.map { case (tr, tuples) =>
              val bw = if (state(tr.src, tr.partition).aggregated) cm.aggPreBw else cm.aggRawBw
              tuples * tupleBytes / bw
            }.sum
          }.foldLeft(0.0)(math.max)
        case None => 0.0
      }

      // --- apply the transfers (Eq. 1 / Eq. 6).
      moved.foreach { case (tr, tuples) =>
        val src = state(tr.src, tr.partition)
        val dst = state(tr.dst, tr.partition)
        tuplesReceived(tr.dst) += tuples
        if (tr.dst == mapping(tr.partition)) tuplesIntoDest += tuples
        dst.keys = KeySet.union(dst.keys, src.keys)
        dst.rawCount = dst.keys.length.toLong
        dst.aggregated = true
        src.keys = KeySet.empty
        src.rawCount = 0L
        src.aggregated = true
      }

      math.max(netSeconds, computeSeconds)
    }

    // Completion (Eq. 2 / Eq. 7): everything must have reached its destination.
    for (l <- 0 until mapping.numPartitions; v <- 0 until n if v != mapping(l))
      require(state(v, l).isEmpty,
        s"plan incomplete: fragment $v still holds ${state(v, l).tuples} tuples of partition $l")

    SimResult(
      totalSeconds = preAggSeconds + phaseSeconds.sum,
      phaseSeconds = phaseSeconds,
      preAggSeconds = preAggSeconds,
      tuplesReceived = tuplesReceived,
      tuplesIntoDestinations = tuplesIntoDest,
      resultCardinalities =
        Array.tabulate(mapping.numPartitions)(l => state(mapping(l), l).keys.length.toLong),
    )
  }
}
