package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Additional GRASP planner behaviour: non-zero destinations, shared
  * destinations, weighted partitioners, nonuniform bandwidth preferences,
  * and estimation-error tolerance.
  */
class GraspPlannerEdgeSpec extends AnyFunSuite {

  private val hasher = new MinHasher(numHashes = 100, seed = 42)
  private val W = 8.0

  test("destination can be any fragment") {
    val raw = LocalGen.overlapFragments(5, 64, jaccard = 0.5)
    val (data, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    for (dest <- 0 until 5) {
      val mapping = Mapping.allToOne(dest)
      val topo = Topology.uniform(5)
      val plan = GraspPlanner.plan(stats, topo, mapping, W)
      val r = new Simulator(topo, W).run(plan, data, mapping)
      assert(r.resultCardinalities(0) == data.globalCardinality(0), s"dest=$dest")
      assert(plan.transfers.forall(_.src != dest))
    }
  }

  test("several partitions can map to the same destination") {
    val raw = LocalGen.uniformDraws(4, 200, keySpace = 400, seed = 8)
    val part = KeyPartitioner.Hashed(3)
    val (data, stats) = LocalGen.scenario(raw, part, preAggregated = true, hasher)
    val mapping = Mapping(Vector(1, 1, 2)) // partitions 0 and 1 both to node 1
    val topo = Topology.uniform(4)
    val plan = GraspPlanner.plan(stats, topo, mapping, W)
    val r = new Simulator(topo, W).run(plan, data, mapping)
    for (l <- 0 until 3)
      assert(r.resultCardinalities(l) == data.globalCardinality(l), s"partition $l")
  }

  test("weighted partitioner: the hot partition still completes") {
    val raw = LocalGen.uniformDraws(6, 400, keySpace = 1200, seed = 9)
    val part = KeyPartitioner.Weighted(6.0 +: Vector.fill(5)(1.0))
    val (data, stats) = LocalGen.scenario(raw, part, preAggregated = true, hasher)
    val mapping = Mapping.allToAll(6)
    val topo = Topology.uniform(6)
    val plan = GraspPlanner.plan(stats, topo, mapping, W)
    val r = new Simulator(topo, W).run(plan, data, mapping)
    for (l <- 0 until 6)
      assert(r.resultCardinalities(l) == data.globalCardinality(l))
    // Partition 0 really is hot.
    assert(data.globalCardinality(0) > data.globalCardinality(1) * 3)
  }

  test("faster links carry the large transfers in a nonuniform network") {
    // Fragments 1 and 2 are co-located and identical; fragment 3 is remote
    // with a slow NIC. GRASP should merge 1-2 locally rather than remotely.
    val topo = Topology(Vector(0, 1, 1, 2), nicUpBw = 10.0, nicDownBw = 10.0, intraBw = 1000.0)
    val raw = Array(
      Array.emptyLongArray,
      (0L until 256L).toArray,
      (0L until 256L).toArray,
      (500L until 520L).toArray)
    val (data, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    val mapping = Mapping.allToOne(0)
    val plan = GraspPlanner.plan(stats, topo, mapping, W)
    val firstPhase = plan.phases.head.transfers
    assert(firstPhase.exists(t => Set(t.src, t.dst) == Set(1, 2)),
      s"expected intra-machine merge first, got $firstPhase")
    val r = new Simulator(topo, W).run(plan, data, mapping)
    assert(r.resultCardinalities(0) == 276)
  }

  test("planning from noisy minhash estimates still yields a valid plan") {
    // A tiny 8-hash signature gives coarse Jaccard estimates; the plan must
    // still complete and never lose keys (estimates steer, truth executes).
    val weak = new MinHasher(numHashes = 8, seed = 1)
    val raw = LocalGen.overlapFragments(8, 128, jaccard = 0.5)
    val (data, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, weak)
    val topo = Topology.uniform(8)
    val mapping = Mapping.allToOne(0)
    val plan = GraspPlanner.plan(stats, topo, mapping, W)
    val r = new Simulator(topo, W).run(plan, data, mapping)
    assert(r.resultCardinalities(0) == data.globalCardinality(0))
  }

  test("a single active fragment ships straight to the destination") {
    val raw = Array(Array.emptyLongArray, Array.emptyLongArray, Array(1L, 2L, 3L))
    val (_, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    val plan = GraspPlanner.plan(stats, Topology.uniform(3), Mapping.allToOne(0), W)
    assert(plan.phases == Vector(Phase(Vector(Transfer(2, 0, 0)))))
  }

  test("already-complete aggregations produce an empty plan") {
    val raw = Array(Array(1L, 2L), Array.emptyLongArray)
    val (_, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    val plan = GraspPlanner.plan(stats, Topology.uniform(2), Mapping.allToOne(0), W)
    assert(plan.numPhases == 0)
  }

  test("phase count at J=1 stays logarithmic as fragments double") {
    for (n <- Seq(4, 8, 16, 32)) {
      val raw = Array.fill(n)((0L until 32L).toArray)
      val (_, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
      val plan = GraspPlanner.plan(stats, Topology.uniform(n), Mapping.allToOne(0), W)
      val expected = (math.log(n) / math.log(2)).round.toInt
      assert(plan.numPhases == expected, s"n=$n phases=${plan.numPhases}")
    }
  }

  test("the candidate-id cap rejects too many fragments with its message, before allocating") {
    // One-component signatures keep the statistics small; every row of the
    // bandwidth matrix is the same array.
    val tiny = new MinHasher(numHashes = 1, seed = 1)
    def stats(n: Int, m: Int) =
      PlannerState.fromStats(Array.fill(n, m)(1L), Array.fill(n, m)(MinHasher.Empty), tiny)
    def bandwidth(n: Int) = { val row = Array.fill(n)(1.0); Array.fill(n)(row) }
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    for ((n, m, mapping) <- Seq((1025, 1025, Mapping.allToAll(1025)), (32769, 1, Mapping.allToOne(0)))) {
      val (st, bw) = (stats(n, m), bandwidth(n))
      val before = threads.getCurrentThreadAllocatedBytes
      val e = intercept[IllegalArgumentException](new GraspPlanner(st, bw, mapping, W))
      val allocated = threads.getCurrentThreadAllocatedBytes - before
      assert(e.getMessage.contains("n ≤ 1,024 when m = n"), e.getMessage)
      // A copy of the statistics alone would take megabytes.
      assert(allocated < (1L << 20), s"n=$n m=$m: $allocated bytes allocated before the check")
    }
    // n = m = 1,024 is accepted; the planner is only built, not run.
    assert(!new GraspPlanner(stats(1024, 1024), bandwidth(1024), Mapping.allToAll(1024), W)
      .cost(1, 0, 0).isPosInfinity)
  }

  test("mismatched bandwidth matrix arity is rejected") {
    val raw = Array(Array(1L), Array(2L))
    val (_, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    intercept[IllegalArgumentException] {
      new GraspPlanner(stats, Array.fill(3, 3)(1.0), Mapping.allToOne(0), W)
    }
    intercept[IllegalArgumentException] {
      new GraspPlanner(stats, Array.fill(2, 2)(1.0), Mapping.allToAll(2), W)
    }
    intercept[IllegalArgumentException] {
      new GraspPlanner(stats, Array.fill(2, 2)(1.0), Mapping.allToOne(0), tupleBytes = 0.0)
    }
  }
}
