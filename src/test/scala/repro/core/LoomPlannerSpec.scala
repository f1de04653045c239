package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** LOOM baseline: f-ary aggregation trees with a fan-in derived from the
  * reduction rate (§1, §5.1.1 of the GRASP paper).
  */
class LoomPlannerSpec extends AnyFunSuite {

  private val W = 8.0
  private val hasher = new MinHasher(numHashes = 64, seed = 13)

  private def validTree(plan: AggPlan, n: Int, dest: Int): Unit = {
    // Every non-destination node sends exactly once; the destination never sends.
    val sends = plan.transfers.toVector
    assert(sends.map(_.src).sorted == (0 until n).filter(_ != dest).toVector.sorted)
    // A node that sends in phase i never receives in a later phase.
    val sendPhase = plan.phases.zipWithIndex.flatMap { case (p, i) =>
      p.transfers.map(t => t.src -> i)
    }.toMap
    plan.phases.zipWithIndex.foreach { case (p, i) =>
      p.transfers.foreach { t =>
        assert(sendPhase.get(t.dst).forall(_ > i), s"${t.dst} receives after sending")
      }
    }
  }

  test("strong reduction (rate 1) picks a small fan-in") {
    val topo = Topology.uniform(16)
    val loom = new LoomPlanner(topo, 0, leafCard = 1000, rootCard = 1000, W)
    assert(loom.chooseFanIn() <= 3, s"fanIn=${loom.chooseFanIn()}")
  }

  test("no reduction (disjoint fragments) picks the widest fan-in (direct send)") {
    val topo = Topology.uniform(16)
    val loom = new LoomPlanner(topo, 0, leafCard = 1000, rootCard = 16000, W)
    assert(loom.chooseFanIn() == 15, s"fanIn=${loom.chooseFanIn()}")
  }

  test("intermediate reduction picks an intermediate fan-in") {
    val topo = Topology.uniform(64)
    val f1 = new LoomPlanner(topo, 0, 1000, 1000, W).chooseFanIn()
    val fMid = new LoomPlanner(topo, 0, 1000, 8000, W).chooseFanIn()
    val fNone = new LoomPlanner(topo, 0, 1000, 64000, W).chooseFanIn()
    assert(f1 <= fMid && fMid <= fNone, s"$f1 / $fMid / $fNone not monotone")
  }

  test("tree plans are valid for a range of fan-ins and sizes") {
    for (n <- Seq(2, 3, 5, 8, 16, 30); f <- Seq(1, 2, 3, 7)) {
      val topo = Topology.uniform(n)
      val loom = new LoomPlanner(topo, 0, 100, 200, W)
      val plan = loom.plan(fanIn = math.max(1, math.min(f, n - 1)))
      validTree(plan, n, 0)
    }
  }

  test("destination can be any fragment") {
    val topo = Topology.uniform(9)
    val plan = new LoomPlanner(topo, 4, 100, 100, W).plan(fanIn = 2)
    validTree(plan, 9, 4)
    assert(plan.phases.last.transfers.forall(_.dst == 4))
  }

  test("network-aware placement: only machine heads send across machines") {
    val topo = Topology.colocated(4, 4)
    val loom = new LoomPlanner(topo, 0, 100, 100, W)
    val parent = loom.buildParents(2)
    val heads = (0 until 16).filter(i => i == 0 || parent(i) == -1 ||
      !topo.sameMachine(i, parent(i)))
    // Exactly one cross-machine sender (the head) per non-destination machine.
    val crossSenders = (0 until 16).filter(i => parent(i) >= 0 && !topo.sameMachine(i, parent(i)))
    assert(crossSenders.map(topo.machineOf).distinct.size == crossSenders.size,
      s"multiple cross-machine senders per machine: $crossSenders")
    assert(crossSenders.size == 3, s"heads=$heads cross=$crossSenders")
    // Every other fragment aggregates into a co-located parent.
    (0 until 16).filter(i => i != 0 && !crossSenders.contains(i)).foreach { i =>
      assert(topo.sameMachine(i, parent(i)), s"fragment $i crosses machines needlessly")
    }
  }

  test("nonuniform topology: LOOM's hierarchical tree beats repartitioning") {
    // All fragments draw from the same key range (the Fig. 15 workload):
    // strong reduction, so merging inside machines before crossing the NIC
    // must beat shipping every fragment straight to the destination.
    val raw = LocalGen.uniformDraws(16, 2000, keySpace = 2000, seed = 21)
    val (data, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    val topo = Topology.colocated(4, 4)
    val mapping = Mapping.allToOne(0)
    val sim = new Simulator(topo, W)
    val loom = sim.run(
      LoomPlanner.plan(stats, topo, 0, data.globalCardinality(0), W), data, mapping)
    val repart = sim.run(RepartPlanner.plan(stats, mapping), data, mapping)
    assert(loom.totalSeconds < repart.totalSeconds * 0.7,
      s"loom=${loom.totalSeconds} repart=${repart.totalSeconds}")
  }

  test("LOOM plan completes the aggregation and beats repartitioning at high similarity") {
    val raw = LocalGen.overlapFragments(8, 64, jaccard = 1.0)
    val (data, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    val topo = Topology.uniform(8)
    val mapping = Mapping.allToOne(0)
    val sim = new Simulator(topo, W)
    val loomPlan = LoomPlanner.plan(stats, topo, 0, rootCard = data.globalCardinality(0), W)
    val loom = sim.run(loomPlan, data, mapping)
    val repart = sim.run(RepartPlanner.plan(stats, mapping), data, mapping)
    assert(loom.resultCardinalities(0) == data.globalCardinality(0))
    assert(loom.totalSeconds < repart.totalSeconds)
  }

  test("GRASP beats LOOM when similarity is structured (adjacent overlap)") {
    val raw = LocalGen.overlapFragments(8, 256, jaccard = 0.8)
    val (data, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    val topo = Topology.uniform(8)
    val mapping = Mapping.allToOne(0)
    val sim = new Simulator(topo, W)
    val grasp = sim.run(GraspPlanner.plan(stats, topo, mapping, W), data, mapping)
    val loom = sim.run(
      LoomPlanner.plan(stats, topo, 0, rootCard = data.globalCardinality(0), W), data, mapping)
    assert(grasp.totalSeconds <= loom.totalSeconds * 1.02,
      s"grasp=${grasp.totalSeconds} loom=${loom.totalSeconds}")
  }

  test("a fragment sends only when its subtree holds data") {
    // Fan-in 2 over 3 fragments makes 1 and 2 children of 0; 2 holds nothing.
    val raw = Array(Array(1L, 2L), Array(2L, 3L), Array.emptyLongArray)
    val (data, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    val topo = Topology.uniform(3)
    val plan = LoomPlanner.plan(stats, topo, 0, data.globalCardinality(0), W)
    assert(plan.transfers.toVector == Vector(Transfer(1, 0, 0)))
    assert(new Simulator(topo, W).run(plan, data, Mapping.allToOne(0)).resultCardinalities(0) == 3)
    // In the chain 3 → 2 → 1 → 0, an empty fragment 1 still passes 2's data on.
    val chain = new LoomPlanner(Topology.uniform(4), 0, 10, 10, W)
    assert(chain.plan(fanIn = 1, holds = _ != 1).transfers.map(_.src).toVector == Vector(3, 2, 1))
    assert(chain.plan(fanIn = 1, holds = _ == 0).numPhases == 0)
  }

  test("LOOM rejects all-to-all statistics") {
    val raw = LocalGen.uniformDraws(4, 50, 100)
    val (_, stats) = LocalGen.scenario(raw, KeyPartitioner.Hashed(4), preAggregated = true, hasher)
    intercept[IllegalArgumentException] {
      LoomPlanner.plan(stats, Topology.uniform(4), 0, 100, W)
    }
  }
}
