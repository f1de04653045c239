package repro.harness

import org.apache.spark.sql.DataFrame

import repro.core._
import repro.exec.Fragments

/** One benchmark instance: data (ground truth + planner statistics),
  * topology, destination mapping, and compute model. Built from a Spark
  * DataFrame of `(fragment, key, v)` rows via [[Scenarios.fromDataFrame]].
  */
final case class Scenario(
    name: String,
    topo: Topology,
    mapping: Mapping,
    data: ClusterData, // pre-aggregated view; asPreAggregated(false) for Repart
    stats: PlannerState,
    tupleBytes: Double,
    compute: Option[ComputeModel],
) {
  def simulator: Simulator = new Simulator(topo, tupleBytes, compute)
  def nFragments: Int = topo.nFragments
}

object Scenarios {

  /** Tuple width: the paper's synthetic table has two 8-byte attributes. */
  val TupleBytes: Double = 16.0

  def fromDataFrame(
      name: String,
      df: DataFrame,
      topo: Topology,
      mapping: Mapping,
      partitioner: KeyPartitioner,
      compute: Option[ComputeModel] = None,
  ): Scenario = {
    require(partitioner.numPartitions == mapping.numPartitions, "partitioner/mapping mismatch")
    val data = Fragments.collectClusterData(df, topo.nFragments, partitioner, preAggregated = true)
    val stats = PlannerState.fromKeySets(data.keySets, new MinHasher())
    Scenario(name, topo, mapping, data, stats, TupleBytes, compute)
  }

  /** Bandwidth-matrix perturbations for the §5.3.1 robustness study: the
    * planner sees an underestimated matrix while the simulator charges the
    * true topology. The three kinds mirror the paper's error sources:
    * co-location underestimates the intra-machine path of some machines,
    * NIC contention the cross-machine links of some machines, switch
    * contention every cross-machine link.
    */
  sealed trait Perturbation
  case object CoLocation extends Perturbation
  case object NicContention extends Perturbation
  case object SwitchContention extends Perturbation

  def underestimate(
      topo: Topology,
      kind: Perturbation,
      factor: Double,
      machines: Set[Int] = Set.empty,
  ): Array[Array[Double]] = {
    val b = topo.bandwidthMatrix
    def touched(s: Int, t: Int): Boolean = kind match {
      case CoLocation =>
        topo.sameMachine(s, t) && machines.contains(topo.machineOf(s))
      case NicContention =>
        !topo.sameMachine(s, t) &&
          (machines.contains(topo.machineOf(s)) || machines.contains(topo.machineOf(t)))
      case SwitchContention => !topo.sameMachine(s, t)
    }
    for (s <- b.indices; t <- b.indices if s != t && touched(s, t)) b(s)(t) *= (1.0 - factor)
    b
  }
}
