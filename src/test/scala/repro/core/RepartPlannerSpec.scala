package repro.core

import org.scalatest.funsuite.AnyFunSuite

class RepartPlannerSpec extends AnyFunSuite {

  private val hasher = new MinHasher(numHashes = 32, seed = 3)

  test("all-to-one: one phase, every non-empty fragment sends to the destination") {
    val raw = Array(Array(9L), Array(1L, 2L), Array.emptyLongArray, Array(3L))
    val (_, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    val plan = RepartPlanner.plan(stats, Mapping.allToOne(0))
    assert(plan.numPhases == 1)
    assert(plan.phases.head.transfers.toSet == Set(Transfer(1, 0, 0), Transfer(3, 0, 0)))
  }

  test("all-to-all: every fragment ships every foreign partition it holds") {
    val raw = LocalGen.uniformDraws(3, 60, keySpace = 90, seed = 2)
    val (_, stats) = LocalGen.scenario(raw, KeyPartitioner.Hashed(3), preAggregated = true, hasher)
    val mapping = Mapping.allToAll(3)
    val plan = RepartPlanner.plan(stats, mapping)
    assert(plan.numPhases == 1)
    plan.transfers.foreach { t =>
      assert(t.dst == mapping(t.partition))
      assert(t.src != t.dst)
    }
    // With 60 uniform draws over 90 keys every fragment holds all 3 partitions.
    assert(plan.numTransfers == 6)
  }

  test("the destination's share never moves") {
    val raw = Array(Array(1L, 2L), Array(3L))
    val (_, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    val plan = RepartPlanner.plan(stats, Mapping.allToOne(0))
    assert(plan.transfers.forall(_.src != 0))
  }

  test("repartition completes the aggregation under the simulator") {
    val raw = LocalGen.uniformDraws(4, 80, keySpace = 100, seed = 5)
    val (data, stats) = LocalGen.scenario(raw, KeyPartitioner.Hashed(4), preAggregated = true, hasher)
    val mapping = Mapping.allToAll(4)
    val topo = Topology.uniform(4)
    val r = new Simulator(topo, 8.0).run(RepartPlanner.plan(stats, mapping), data, mapping)
    (0 until 4).foreach(l => assert(r.resultCardinalities(l) == data.globalCardinality(l)))
  }

  test("Repart vs Preagg+Repart differ exactly by in-fragment duplicates") {
    val raw = LocalGen.overlapFragments(3, 20, jaccard = 0.0, dupFactor = 4)
    val grouped = LocalGen.group(raw, KeyPartitioner.Single)
    val noPre = LocalGen.clusterData(grouped, preAggregated = false)
    val pre = LocalGen.clusterData(grouped, preAggregated = true)
    val (_, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true, hasher)
    val topo = Topology.uniform(3)
    val mapping = Mapping.allToOne(0)
    val planPre = RepartPlanner.plan(stats, mapping)
    // The raw plan must enumerate senders by raw counts (same here).
    val planRaw = RepartPlanner.plan((s, l) => noPre(s, l).rawCount, 3, mapping)
    val sim = new Simulator(topo, 8.0)
    val tRaw = sim.run(planRaw, noPre, mapping).totalSeconds
    val tPre = sim.run(planPre, pre, mapping).totalSeconds
    assert(math.abs(tRaw / tPre - 4.0) < 1e-9, s"raw=$tRaw pre=$tPre")
  }
}
