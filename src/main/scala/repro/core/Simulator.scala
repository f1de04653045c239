package repro.core

/** One fragment's share of one partition.
  *
  * `keys` is the exact (sorted, distinct) key set; `rawCount` the number of
  * raw tuples before any local aggregation. `aggregated` tracks whether the
  * share has been hash-aggregated locally — shares of pre-aggregating
  * algorithms start aggregated, a Repart share only becomes aggregated when
  * it is merged at a receiver.
  */
final case class Share(keys: Array[Long], rawCount: Long, aggregated: Boolean) {
  def tuples: Long = if (aggregated) keys.length.toLong else rawCount
  def isEmpty: Boolean = keys.isEmpty && rawCount == 0
}

object Share {
  /** A sender's share after its transfer. */
  val Empty: Share = Share(KeySet.empty, 0L, aggregated = true)
}

/** Exact per-(fragment, partition) data of the whole cluster. */
final class ClusterData(val shares: Array[Array[Share]]) {
  val nFragments: Int = shares.length
  val numPartitions: Int = if (shares.isEmpty) 0 else shares(0).length
  def apply(v: Int, l: Int): Share = shares(v)(l)

  /** Same data viewed with/without local pre-aggregation — Repart ships raw
    * tuples, every other algorithm ships the locally aggregated result.
    */
  def asPreAggregated(flag: Boolean): ClusterData =
    new ClusterData(shares.map(_.map(_.copy(aggregated = flag))))

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

  /** Simulate `plan` over `data`, each phase priced from the shares as they
    * stand before it and then applied by [[AggPlan.applyPhase]].
    */
  def run(plan: AggPlan, data: ClusterData, mapping: Mapping): SimResult = {
    require(data.nFragments == topo.nFragments, "data/topology fragment mismatch")
    require(data.numPartitions == mapping.numPartitions, "data/mapping partition mismatch")
    val n = data.nFragments
    val state = Array.tabulate(data.numPartitions, n)((l, v) => data(v, l))
    val tuplesReceived = new Array[Long](n)
    var tuplesIntoDest = 0L

    // Up-front local pre-aggregation pass (step 2 of Fig. 5) — a compute
    // cost only; shares already carry their aggregated flag.
    val preAggSeconds = compute match {
      case Some(cm) =>
        val anyPre = data.shares.iterator.flatten.exists(s => s.aggregated && s.rawCount > 0)
        if (!anyPre) 0.0
        else (0 until n).iterator.map { v =>
          data.shares(v).iterator.filter(_.aggregated).map(_.rawCount).sum * tupleBytes / cm.aggRawBw
        }.foldLeft(0.0)(math.max)
      case None => 0.0
    }

    val phaseSeconds = plan.phases.map { phase =>
      val moved = phase.transfers.map(tr => tr -> state(tr.partition)(tr.src))

      // --- network: fluid makespan over NIC and intra-machine resources.
      val netSeconds = topo.phaseNetworkSeconds(
        moved.map { case (tr, sh) => (tr.src, tr.dst, sh.tuples * tupleBytes) })

      // --- compute: receivers fold arrivals into their hash tables.
      val computeSeconds = compute match {
        case Some(cm) =>
          moved.groupBy(_._1.dst).values.iterator.map { trs =>
            trs.iterator.map { case (_, sh) =>
              sh.tuples * tupleBytes / (if (sh.aggregated) cm.aggPreBw else cm.aggRawBw)
            }.sum
          }.foldLeft(0.0)(math.max)
        case None => 0.0
      }

      for ((l, trs) <- phase.transfers.groupBy(_.partition))
        AggPlan.applyPhase(l, trs.map(tr => (tr.src, tr.dst)), state(l), Share.Empty)(!_.isEmpty) {
          (t, own, arriving) =>
            val tuples = arriving.map(_.tuples).sum
            tuplesReceived(t) += tuples
            if (t == mapping(l)) tuplesIntoDest += tuples
            val keys = arriving.foldLeft(own.keys)((ks, a) => KeySet.union(ks, a.keys))
            Share(keys, keys.length.toLong, aggregated = true)
        }

      math.max(netSeconds, computeSeconds)
    }

    AggPlan.requireComplete(n, mapping)((v, l) => !state(l)(v).isEmpty)

    SimResult(
      totalSeconds = preAggSeconds + phaseSeconds.sum,
      phaseSeconds = phaseSeconds,
      preAggSeconds = preAggSeconds,
      tuplesReceived = tuplesReceived,
      tuplesIntoDestinations = tuplesIntoDest,
      resultCardinalities =
        Array.tabulate(mapping.numPartitions)(l => state(l)(mapping(l)).keys.length.toLong),
    )
  }
}
