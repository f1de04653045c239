package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropChecks
import org.scalacheck.Gen

/** GRASP planner (Eq. 8 + Algorithm 2) behaviour beyond the paper's worked
  * example: validity invariants, termination, and qualitative wins.
  */
class GraspPlannerSpec extends AnyFunSuite with PropChecks {
  import GraspPlannerSpec.PhaseInvariants

  private val hasher = new MinHasher(numHashes = 100, seed = 42)
  private val W = 8.0 // tuple bytes used throughout this spec

  private def allToOne(raw: Array[Array[Long]], topo: Topology, dest: Int = 0) = {
    val (data, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    (data, stats, Mapping.allToOne(dest), topo)
  }

  /** Checks the §3.5 structural invariants of a GRASP plan. */
  private def assertValid(plan: AggPlan, mapping: Mapping): Unit = {
    plan.phases.foreach { p =>
      assert(p.sendersDistinct, s"duplicate sender in $p")
      assert(p.receiversDistinct, s"duplicate receiver in $p")
      val sends = p.transfers.map(t => (t.src, t.partition)).toSet
      p.transfers.foreach { t =>
        assert(!sends.contains((t.dst, t.partition)),
          s"$t receives a partition its node also sends in the same phase")
        assert(t.src != mapping(t.partition), s"$t: destination re-sends its partition")
      }
    }
  }

  test("plan for a 2-node instance is a single direct transfer") {
    val raw = Array(Array.emptyLongArray, Array(1L, 2L, 3L))
    val (data, stats, mapping, topo) = allToOne(raw, Topology.uniform(2))
    val plan = GraspPlanner.plan(stats, topo, mapping, W)
    assert(plan.phases == Vector(Phase(Vector(Transfer(1, 0, 0)))))
    val r = new Simulator(topo, W).run(plan, data, mapping)
    assert(r.resultCardinalities.toSeq == Seq(3L))
  }

  test("fragments already empty do not appear in the plan") {
    val raw = Array(Array.emptyLongArray, Array(1L, 2L), Array.emptyLongArray, Array(3L, 4L))
    val (_, stats, mapping, topo) = allToOne(raw, Topology.uniform(4))
    val plan = GraspPlanner.plan(stats, topo, mapping, W)
    assert(plan.transfers.forall(t => t.src != 2 && t.dst != 2))
  }

  test("identical fragments are merged pairwise: log2(n) phases at J = 1") {
    val raw = Array.fill(8)((0L until 64L).toArray)
    val (data, stats, mapping, topo) = allToOne(raw, Topology.uniform(8))
    val plan = GraspPlanner.plan(stats, topo, mapping, W)
    assertValid(plan, mapping)
    assert(plan.numPhases == 3, s"expected binomial-tree depth 3, got ${plan.numPhases}")
    val r = new Simulator(topo, W).run(plan, data, mapping)
    // Every phase ships exactly 64 identical keys: 3 * 64 tuples of cost.
    assert(math.abs(r.totalSeconds - 3 * 64 * W / Topology.OneGbps) <= 1e-12)
    assert(r.resultCardinalities.toSeq == Seq(64L))
  }

  test("at J = 0 GRASP degenerates to the cost of repartitioning") {
    val raw = LocalGen.overlapFragments(8, 64, jaccard = 0.0)
    val (data, stats, mapping, topo) = allToOne(raw, Topology.uniform(8))
    val sim = new Simulator(topo, W)
    val grasp = sim.run(GraspPlanner.plan(stats, topo, mapping, W), data, mapping)
    val repart = sim.run(RepartPlanner.plan(stats, mapping), data, mapping)
    // No similarity to exploit: the destination's downlink must absorb all
    // 7 * 64 tuples either way.
    assert(grasp.totalSeconds >= repart.totalSeconds * 0.99)
    assert(grasp.totalSeconds <= repart.totalSeconds * 1.30)
  }

  test("at J = 1 GRASP is ~2.3x faster than repartitioning on 8 fragments") {
    val raw = LocalGen.overlapFragments(8, 64, jaccard = 1.0)
    val (data, stats, mapping, topo) = allToOne(raw, Topology.uniform(8))
    val sim = new Simulator(topo, W)
    val grasp = sim.run(GraspPlanner.plan(stats, topo, mapping, W), data, mapping)
    val repart = sim.run(RepartPlanner.plan(stats, mapping), data, mapping)
    val speedup = repart.totalSeconds / grasp.totalSeconds
    assert(math.abs(speedup - 7.0 / 3.0) < 0.05, s"speedup=$speedup")
  }

  test("speedup over repartitioning grows with similarity") {
    val topo = Topology.uniform(8)
    val sim = new Simulator(topo, W)
    val speedups = Seq(0.0, 0.5, 1.0).map { j =>
      val raw = LocalGen.overlapFragments(8, 256, jaccard = j)
      val (data, stats, mapping, _) = allToOne(raw, topo)
      val grasp = sim.run(GraspPlanner.plan(stats, topo, mapping, W), data, mapping)
      val repart = sim.run(RepartPlanner.plan(stats, mapping), data, mapping)
      repart.totalSeconds / grasp.totalSeconds
    }
    assert(speedups(0) <= speedups(1) + 0.05 && speedups(1) <= speedups(2) + 0.05,
      s"not monotone: $speedups")
    assert(speedups(2) > 2.0)
  }

  test("topology awareness: similar co-located fragments merge over the fast link") {
    // Two machines x 2 fragments; fragments on the same machine share keys.
    val topo = Topology.colocated(2, 2, nicBw = 100.0, intraBw = 10000.0)
    val raw = Array(
      Array.emptyLongArray,
      (0L until 64L).toArray,        // machine 0
      (1000L until 1064L).toArray,   // machine 1
      (1000L until 1064L).toArray)   // machine 1 — identical to fragment 2
    val (data, stats, mapping, _) = allToOne(raw, topo)
    val plan = GraspPlanner.plan(stats, topo, mapping, W)
    assertValid(plan, mapping)
    // The intra-machine merge 3->2 (or 2->3) must be scheduled.
    assert(plan.transfers.exists(t => Set(t.src, t.dst) == Set(2, 3)))
    val r = new Simulator(topo, W).run(plan, data, mapping)
    // Destination receives 64 (from v1) + 64 (merged v2/v3) tuples.
    assert(r.tuplesReceived(0) == 128)
  }

  test("all-to-all: every partition reaches its mapped destination") {
    val raw = LocalGen.uniformDraws(4, 200, keySpace = 300, seed = 3)
    val part = KeyPartitioner.Hashed(4)
    val (data, stats) = LocalGen.scenario(raw, part, preAggregated = true, hasher)
    val mapping = Mapping.allToAll(4)
    val topo = Topology.uniform(4)
    val plan = GraspPlanner.plan(stats, topo, mapping, W)
    assertValid(plan, mapping)
    val r = new Simulator(topo, W).run(plan, data, mapping)
    val expected = Array.tabulate(4)(l => data.globalCardinality(l))
    assert(r.resultCardinalities.toSeq == expected.toSeq)
  }

  test("all-to-all: a node may send and receive different partitions in one phase") {
    val raw = LocalGen.uniformDraws(6, 400, keySpace = 600, seed = 4)
    val (data, stats) = LocalGen.scenario(raw, KeyPartitioner.Hashed(6), preAggregated = true, hasher)
    val mapping = Mapping.allToAll(6)
    val topo = Topology.uniform(6)
    val plan = GraspPlanner.plan(stats, topo, mapping, W)
    assertValid(plan, mapping)
    val bothSides = plan.phases.exists { p =>
      val sends = p.transfers.map(_.src).toSet
      p.transfers.map(_.dst).exists(sends.contains)
    }
    assert(bothSides, "expected at least one phase where a node both sends and receives")
  }

  test("cost matrix marks forbidden transfers as infinite (Eq. 8 cases)") {
    val raw = Array(Array(1L, 2L), Array(3L, 4L), Array.emptyLongArray)
    val (_, stats, mapping, topo) = allToOne(raw, Topology.uniform(3), dest = 0)
    val planner = new GraspPlanner(stats, topo.bandwidthMatrix, mapping, W)
    assert(planner.cost(1, 1, 0).isPosInfinity, "self transfer")
    assert(planner.cost(0, 1, 0).isPosInfinity, "destination re-sends")
    assert(planner.cost(2, 1, 0).isPosInfinity, "empty sender")
    assert(planner.cost(1, 2, 0).isPosInfinity, "empty non-destination receiver")
    assert(!planner.cost(1, 0, 0).isPosInfinity, "transfer to destination is allowed")
  }

  test("planner does not mutate the caller's statistics") {
    val raw = LocalGen.overlapFragments(4, 32, jaccard = 0.5)
    val (_, stats, mapping, topo) = allToOne(raw, Topology.uniform(4))
    val before = (0 until 4).map(v => stats.cardinality(v, 0))
    GraspPlanner.plan(stats, topo, mapping, W)
    assert((0 until 4).map(v => stats.cardinality(v, 0)) == before)
  }

  test("property: random all-to-one instances terminate with a valid complete plan") {
    val gen = for {
      n <- Gen.chooseNum(2, 10)
      sets <- Gen.listOfN(n, Gen.listOf(Gen.chooseNum(0L, 50L)))
      seed <- Gen.chooseNum(0, 1000)
    } yield (n, sets.map(_.toArray).toArray, seed)
    forAllSampled(gen) { case (n, raw, seed) =>
      val topo = Topology.uniform(n)
      val (data, stats) =
        LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true,
          new MinHasher(numHashes = 32, seed = seed))
      val mapping = Mapping.allToOne(0)
      val plan = GraspPlanner.plan(stats, topo, mapping, W)
      assertValid(plan, mapping)
      val r = new Simulator(topo, W).run(plan, data, mapping)
      assert(r.resultCardinalities(0) == data.globalCardinality(0))
    }
  }

  // --- Oracle: the incremental planner returns the rescanning reference's plans.

  private def assertSamePlan(stats: PlannerState, bw: Array[Array[Double]], mapping: Mapping): AggPlan = {
    val plan = new GraspPlanner(stats, bw, mapping, W).plan()
    val reference = new ReferenceGraspPlanner(stats, bw, mapping, W).plan()
    assert(plan == reference, s"mapping=${mapping.destinationOf}")
    plan
  }

  /** n fragments, m partitions mapped to random (possibly shared)
    * destinations, and small key sets, a third of them empty, hashed with 8
    * minhashes so that Jaccard ties are common.
    */
  private val oracleInstance: Gen[(Int, PlannerState, Mapping)] = for {
    n <- Gen.chooseNum(2, 12)
    m <- Gen.chooseNum(1, n)
    dests <- Gen.listOfN(m, Gen.chooseNum(0, n - 1))
    share = Gen.frequency(1 -> Gen.const(Nil), 2 -> Gen.nonEmptyListOf(Gen.chooseNum(0L, 30L)))
    keys <- Gen.listOfN(n, Gen.listOfN(m, share))
    seed <- Gen.chooseNum(0L, 1000L)
  } yield (n, PlannerState.fromKeySets(keys.map(_.map(_.toArray).toArray).toArray,
    new MinHasher(numHashes = 8, seed = seed)), Mapping(dests.toVector))

  test("oracle: same plans as the reference planner, uniform bandwidth (all costs tie)") {
    forAllSampled(oracleInstance) { case (n, stats, mapping) =>
      assertSamePlan(stats, Topology.uniform(n).bandwidthMatrix, mapping)
    }
  }

  test("oracle: same plans as the reference planner, colocated bandwidth") {
    forAllSampled(oracleInstance, Gen.chooseNum(1, 4)) { case ((n, stats, mapping), perMachine) =>
      val topo = Topology(Vector.tabulate(n)(_ / perMachine), Topology.OneGbps, Topology.OneGbps,
        Topology.IntraMachine)
      assertSamePlan(stats, topo.bandwidthMatrix, mapping)
    }
  }

  test("oracle: same plans as the reference planner, random bandwidth") {
    val instance = for {
      (n, stats, mapping) <- oracleInstance
      bw <- Gen.listOfN(n, Gen.listOfN(n, Gen.chooseNum(1, 8).map(_.toDouble)))
    } yield (stats, bw.map(_.toArray).toArray, mapping)
    forAllSampled(instance) { case (stats, bw, mapping) => assertSamePlan(stats, bw, mapping) }
  }

  test("oracle: same plans as the reference planner, 28 colocated fragments all-to-all") {
    val raw = LocalGen.uniformDraws(28, 400, keySpace = 400, seed = 5)
    val (_, stats) = LocalGen.scenario(raw, KeyPartitioner.Hashed(28), preAggregated = true, hasher)
    assertSamePlan(stats, Topology.colocated(2, 14).bandwidthMatrix, Mapping.allToAll(28))
  }

  test("oracle: same plans as the reference planner, 8 identical fragments (every cost ties)") {
    val raw = Array.fill(8)((0L until 64L).toArray)
    val bw = Topology.uniform(8).bandwidthMatrix
    val (_, one) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    assertSamePlan(one, bw, Mapping.allToOne(0))
    val (_, all) = LocalGen.scenario(raw, KeyPartitioner.Hashed(8), preAggregated = true, hasher)
    assertSamePlan(all, bw, Mapping.allToAll(8))
  }

  test("oracle: same plans as the reference planner, 40 fragments all-to-all, bandwidths over 12 decades") {
    // Random bandwidths spread over 12 orders of magnitude give costs that
    // differ in their exponent bits as well as their mantissas, so the
    // order's sort needs every byte of the key. Partition l + n/2 holds the
    // same keys as l at every fragment, so equal costs recur across
    // partitions and only scan order breaks the ties.
    val n = 40
    val rnd = new scala.util.Random(12)
    val half = Array.fill(n, n / 2)(Array.fill(rnd.nextInt(12))(rnd.nextLong(40L)).distinct)
    val stats = PlannerState.fromKeySets(half.map(row => row ++ row), new MinHasher(numHashes = 16, seed = 3))
    val bw = Array.fill(n, n)(math.pow(10.0, 12 * rnd.nextDouble()))
    assertSamePlan(stats, bw, Mapping.allToAll(n))
  }

  test("oracle: same plans as the reference planner at n in {1, 2, 3, 15, 16, 17}, both mappings") {
    // Candidate ids pack s and t into bit fields of max(1, ⌈log₂ n⌉) bits.
    // These sizes fill the fields exactly or leave values unused, and n = 1
    // has no transfer at all.
    val weak = new MinHasher(numHashes = 8, seed = 7)
    for (n <- Seq(1, 2, 3, 15, 16, 17); perMachine <- Seq(n, 4)) {
      val raw = LocalGen.uniformDraws(n, 60, keySpace = 90, seed = n)
      val topo = Topology(Vector.tabulate(n)(_ / perMachine), Topology.OneGbps, Topology.OneGbps,
        Topology.IntraMachine)
      val (_, all) = LocalGen.scenario(raw, KeyPartitioner.Hashed(n), preAggregated = true, weak)
      val (_, one) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, weak)
      val plans = Seq(
        assertSamePlan(all, topo.bandwidthMatrix, Mapping.allToAll(n)),
        assertSamePlan(one, topo.bandwidthMatrix, Mapping.allToOne(n - 1)))
      plans.foreach(p => assert((p.numTransfers > 0) == (n > 1), s"n=$n: $p"))
    }
  }

  test("property: random all-to-all instances terminate with a valid complete plan") {
    val gen = for {
      n <- Gen.chooseNum(2, 6)
      rows <- Gen.chooseNum(10, 100)
      space <- Gen.chooseNum(20L, 200L)
      seed <- Gen.chooseNum(0L, 1000L)
    } yield (n, rows, space, seed)
    forAllSampled(gen) { case (n, rows, space, seed) =>
      val raw = LocalGen.uniformDraws(n, rows, space, seed)
      val (data, stats) =
        LocalGen.scenario(raw, KeyPartitioner.Hashed(n), preAggregated = true, hasher)
      val mapping = Mapping.allToAll(n)
      val topo = Topology.uniform(n)
      val plan = GraspPlanner.plan(stats, topo, mapping, W)
      assertValid(plan, mapping)
      val r = new Simulator(topo, W).run(plan, data, mapping)
      (0 until n).foreach(l => assert(r.resultCardinalities(l) == data.globalCardinality(l)))
    }
  }
}

object GraspPlannerSpec {

  /** §3.5 invariant for GRASP-produced phases: one node sends to at most one
    * node and receives from at most one node. Baseline plans (Repart, LOOM
    * levels) may violate the receive side on purpose — the simulator charges
    * shared links for it (Eq. 9).
    */
  implicit class PhaseInvariants(private val p: Phase) extends AnyVal {
    def sendersDistinct: Boolean = p.transfers.map(_.src).distinct.size == p.size
    def receiversDistinct: Boolean = p.transfers.map(_.dst).distinct.size == p.size
  }
}
