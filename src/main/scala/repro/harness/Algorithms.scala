package repro.harness

import repro.core._

/** Runs the four §5.1.1 algorithms on a [[Scenario]] and reports the
  * quantities the paper's evaluation tables/figures are built from.
  */
object Algorithms {

  final case class RunResult(algo: String, seconds: Double, tuplesIntoDest: Long)

  final case class AllResults(
      repart: RunResult,
      preaggRepart: RunResult,
      loom: Option[RunResult],
      grasp: RunResult,
  ) {
    def speedupOverPreagg(r: RunResult): Double = preaggRepart.seconds / r.seconds
    def toSeq: Seq[RunResult] = Seq(Some(repart), Some(preaggRepart), loom, Some(grasp)).flatten
  }

  /** Simulates `plan` over `data`. */
  private def run(algo: String, sc: Scenario, data: ClusterData)(plan: AggPlan): RunResult = {
    val r = sc.simulator.run(plan, data, sc.mapping)
    RunResult(algo, r.totalSeconds, r.tuplesIntoDestinations)
  }

  /** Repart: raw tuples straight to the destination, no local aggregation. */
  def repart(sc: Scenario): RunResult = {
    val raw = sc.data.asPreAggregated(false)
    run("Repart", sc, raw)(RepartPlanner.plan((v, l) => raw(v, l).rawCount, sc.nFragments, sc.mapping))
  }

  /** Preagg+Repart: local aggregation, then one bulk repartition phase. */
  def preaggRepart(sc: Scenario): RunResult =
    run("Preagg+Repart", sc, sc.data)(RepartPlanner.plan(sc.stats, sc.mapping))

  /** LOOM with the accurate final result cardinality (its best case), for
    * all-to-one scenarios only.
    */
  def loom(sc: Scenario): Option[RunResult] =
    Option.when(sc.mapping.numPartitions == 1) {
      val rootCard = sc.data.globalCardinality(0)
      run("LOOM", sc, sc.data)(LoomPlanner.plan(sc.stats, sc.topo, sc.mapping(0), rootCard, sc.tupleBytes))
    }

  /** GRASP, optionally with a perturbed bandwidth matrix handed to the
    * planner (§5.3.1) while the simulator charges the true topology.
    */
  def grasp(sc: Scenario, plannerBandwidth: Option[Array[Array[Double]]] = None): RunResult = {
    val bw = plannerBandwidth.getOrElse(sc.topo.bandwidthMatrix)
    run("GRASP", sc, sc.data)(new GraspPlanner(sc.stats, bw, sc.mapping, sc.tupleBytes).plan())
  }

  def runAll(sc: Scenario): AllResults =
    AllResults(repart(sc), preaggRepart(sc), loom(sc), grasp(sc))
}
