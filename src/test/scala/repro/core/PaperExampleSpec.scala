package repro.core

/** Reproduces the paper's worked examples exactly.
  *
  * Figures 1–4: a 4-node cluster, destination v0, v1 = {A,B,C},
  * v2 = v3 = {D,E,F}, with w equal to the bandwidth so that one tuple costs
  * one time unit. Repartitioning costs 9 units, the similarity-aware plan 6,
  * the similarity-oblivious plan 9.
  *
  * Figure 7: the C1 cost matrix for the same instance. Figure 8: GRASP's
  * phase selection for it.
  */
import org.scalatest.funsuite.AnyFunSuite

class PaperExampleSpec extends AnyFunSuite {

  // Keys A..F -> 1..6. One tuple costs one time unit: w = 1 byte, B = 1 B/s.
  private val A = 1L; private val B = 2L; private val C = 3L
  private val D = 4L; private val E = 5L; private val F = 6L

  private val rawKeys: Array[Array[Long]] = Array(
    Array.emptyLongArray, // v0, the destination
    Array(A, B, C),       // v1
    Array(D, E, F),       // v2
    Array(D, E, F),       // v3
  )

  private val topo = Topology.uniform(4, bw = 1.0)
  private val mapping = Mapping.allToOne(0)
  private val sim = new Simulator(topo, tupleBytes = 1.0)

  private def data: ClusterData =
    LocalGen.clusterData(rawKeys.map(Array(_)), preAggregated = true)

  private def stats: PlannerState =
    PlannerState.fromKeySets(data.keySets, new MinHasher(numHashes = 100, seed = 42))

  test("Figure 2: repartitioning completes in 9 time units") {
    val plan = RepartPlanner.plan(stats, mapping)
    assert(plan.numPhases == 1)
    assert(plan.numTransfers == 3)
    val r = sim.run(plan, data, mapping)
    assert(r.totalSeconds == 9.0)
    assert(r.tuplesReceived(0) == 9)
  }

  test("Figure 3: the similarity-aware plan completes in 6 time units") {
    val plan = AggPlan(Vector(
      Phase(Vector(Transfer(1, 0, 0), Transfer(3, 2, 0))),
      Phase(Vector(Transfer(2, 0, 0))),
    ))
    val r = sim.run(plan, data, mapping)
    assert(r.phaseSeconds == Vector(3.0, 3.0))
    assert(r.totalSeconds == 6.0)
    // v0 ends with all six keys.
    assert(r.resultCardinalities.toSeq == Seq(6L))
    // The destination received only 6 tuples instead of 9.
    assert(r.tuplesReceived(0) == 6)
  }

  test("Figure 4: the similarity-oblivious plan finishes in 9 time units") {
    val plan = AggPlan(Vector(
      Phase(Vector(Transfer(3, 1, 0), Transfer(2, 0, 0))),
      Phase(Vector(Transfer(1, 0, 0))),
    ))
    val r = sim.run(plan, data, mapping)
    // Phase 1 moves {D,E,F} into v1 and {D,E,F} into v0 concurrently
    // (3 units); phase 2 ships the dissimilar union {A..F} (6 units).
    assert(r.phaseSeconds == Vector(3.0, 6.0))
    assert(r.totalSeconds == 9.0)
  }

  test("Figure 7: the C1 cost matrix") {
    val planner = new GraspPlanner(stats, topo.bandwidthMatrix, mapping, tupleBytes = 1.0)
    val c = planner.costMatrix(0)
    // Row v0 (the destination never sends): all infinite.
    assert(c(0).forall(_.isPosInfinity))
    // Diagonal infinite.
    assert((0 until 4).forall(v => c(v)(v).isPosInfinity))
    // Transfers into an empty non-destination are forbidden; transfers into
    // the destination cost only the shipped tuples.
    assert(c(1)(0) == 3.0)
    assert(c(2)(0) == 3.0)
    assert(c(3)(0) == 3.0)
    // v1 -> v2 : ship 3, then the union {A..F} (est. 6) next phase: 9.
    assert(math.abs(c(1)(2) - 9.0) <= 1.0, s"c(1)(2)=${c(1)(2)}")
    assert(math.abs(c(1)(3) - 9.0) <= 1.0, s"c(1)(3)=${c(1)(3)}")
    assert(math.abs(c(2)(1) - 9.0) <= 1.0, s"c(2)(1)=${c(2)(1)}")
    // v2 -> v3: identical sets, estimated union exactly 3 (J_est = 1): 6.
    assert(c(2)(3) == 6.0)
    assert(c(3)(2) == 6.0)
  }

  test("Figure 8: GRASP picks the similarity-aware plan and finishes in 6 units") {
    val plan = GraspPlanner.plan(stats, topo, mapping, tupleBytes = 1.0)
    assert(plan.numPhases == 2)
    val p1 = plan.phases(0).transfers
    // First pick is a direct transfer into the destination (cost 3); the
    // second merges the identical fragments v2/v3 (either direction).
    assert(p1.size == 2)
    assert(p1.contains(Transfer(1, 0, 0)))
    assert(p1.exists(t => Set(t.src, t.dst) == Set(2, 3)))
    // Second phase ships the merged {D,E,F} to v0.
    assert(plan.phases(1).transfers.map(_.dst) == Vector(0))
    val r = sim.run(plan, data, mapping)
    assert(r.totalSeconds == 6.0)
  }

  test("GRASP beats repartitioning by 1.5x on the running example") {
    val grasp = sim.run(GraspPlanner.plan(stats, topo, mapping, 1.0), data, mapping)
    val repart = sim.run(RepartPlanner.plan(stats, mapping), data, mapping)
    assert(repart.totalSeconds / grasp.totalSeconds == 1.5)
  }
}
