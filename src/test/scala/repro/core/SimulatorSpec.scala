package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Cost-model semantics of the simulator (Eq. 3–5 + Eq. 9 link sharing,
  * compute model, conservation of keys).
  */
class SimulatorSpec extends AnyFunSuite {

  private val W = 10.0

  private def data1(sets: Array[Long]*): ClusterData =
    new ClusterData(sets.map(s => Array(new Share(s, s.length.toLong, true))).toArray)

  test("single transfer cost is |Y| * w / B (Eq. 5)") {
    val topo = Topology.uniform(2, bw = 100.0)
    val d = data1(KeySet.empty, KeySet.fromRange(0, 30))
    val plan = AggPlan(Vector(Phase(Vector(Transfer(1, 0, 0)))))
    val r = new Simulator(topo, W).run(plan, d, Mapping.allToOne(0))
    assert(r.totalSeconds == 30 * W / 100.0)
  }

  test("phase cost is the max over concurrent transfers (Eq. 4)") {
    val topo = Topology.uniform(4, bw = 1.0)
    val d = data1(KeySet.empty, KeySet.fromRange(0, 5), KeySet.fromRange(0, 9), KeySet.empty)
    val plan = AggPlan(Vector(
      Phase(Vector(Transfer(1, 0, 0), Transfer(2, 3, 0))),
      Phase(Vector(Transfer(3, 0, 0)))))
    val r = new Simulator(topo, W).run(plan, d, Mapping.allToOne(0))
    assert(r.phaseSeconds(0) == 9 * W)
  }

  test("plan cost is the sum of phase costs (Eq. 3)") {
    val topo = Topology.uniform(3, bw = 1.0)
    val d = data1(KeySet.empty, KeySet.fromRange(0, 4), KeySet.fromRange(4, 10))
    val plan = AggPlan(Vector(
      Phase(Vector(Transfer(1, 2, 0))),
      Phase(Vector(Transfer(2, 0, 0)))))
    val r = new Simulator(topo, W).run(plan, d, Mapping.allToOne(0))
    assert(r.phaseSeconds == Vector(4 * W, 10 * W))
    assert(r.totalSeconds == 14 * W)
  }

  test("concurrent transfers into one receiver share its downlink (Eq. 9)") {
    val topo = Topology.uniform(3, bw = 1.0)
    val d = data1(KeySet.empty, KeySet.fromRange(0, 6), KeySet.fromRange(10, 16))
    val plan = AggPlan(Vector(Phase(Vector(Transfer(1, 0, 0), Transfer(2, 0, 0)))))
    val r = new Simulator(topo, W).run(plan, d, Mapping.allToOne(0))
    assert(r.totalSeconds == 12 * W) // 12 tuples through v0's downlink
  }

  test("concurrent transfers out of one machine share its uplink") {
    // Two fragments on machine 0 send to two fragments on distinct machines.
    val topo = Topology(Vector(0, 0, 1, 2), nicUpBw = 1.0, nicDownBw = 1.0, intraBw = 1e9)
    val shares = Array(
      Array(new Share(KeySet.fromRange(0, 8), 8, true)),
      Array(new Share(KeySet.fromRange(100, 108), 8, true)),
      Array(new Share(KeySet.fromRange(200, 201), 1, true)),
      Array(new Share(KeySet.fromRange(300, 301), 1, true)))
    val d = new ClusterData(shares)
    val plan = AggPlan(Vector(
      Phase(Vector(Transfer(0, 2, 0), Transfer(1, 3, 0))),
      Phase(Vector(Transfer(2, 3, 0)))))
    val r = new Simulator(topo, W).run(plan, d, Mapping.allToOne(3))
    assert(r.phaseSeconds(0) == 16 * W) // 16 tuples through machine 0's uplink
  }

  test("intra-machine transfers bypass the NIC") {
    val topo = Topology.colocated(2, 2, nicBw = 1.0, intraBw = 100.0)
    val shares = Array(
      Array(new Share(KeySet.empty, 0, true)),
      Array(new Share(KeySet.fromRange(0, 50), 50, true)),
      Array(new Share(KeySet.fromRange(0, 10), 10, true)),
      Array(new Share(KeySet.fromRange(5, 15), 10, true)))
    val d = new ClusterData(shares)
    // Both phase-1 transfers are intra-machine (v1 -> v0 on machine 0,
    // v3 -> v2 on machine 1): no NIC is used, so the phase runs at the fast
    // intra bandwidth. Phase 2 crosses machines at NIC speed.
    val plan = AggPlan(Vector(
      Phase(Vector(Transfer(1, 0, 0), Transfer(3, 2, 0))),
      Phase(Vector(Transfer(2, 0, 0)))))
    val r = new Simulator(topo, W).run(plan, d, Mapping.allToOne(0))
    assert(r.phaseSeconds(0) == 50 * W / 100.0) // fast path, max of the two
    assert(r.phaseSeconds(1) == 15 * W / 1.0)   // merged 15 distinct keys over NIC
  }

  test("keys are conserved: result cardinality equals global distinct count") {
    val raw = LocalGen.uniformDraws(5, 100, keySpace = 120, seed = 1)
    val (d, stats) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true)
    val topo = Topology.uniform(5)
    val plan = GraspPlanner.plan(stats, topo, Mapping.allToOne(0), W)
    val r = new Simulator(topo, W).run(plan, d, Mapping.allToOne(0))
    assert(r.resultCardinalities(0) == d.globalCardinality(0))
  }

  test("non-preaggregated shares ship raw tuple counts (Repart)") {
    val raw = Array(Array.emptyLongArray, Array(1L, 1L, 1L, 2L)) // 4 raw, 2 distinct
    val grouped = LocalGen.group(raw, KeyPartitioner.Single)
    val noPre = LocalGen.clusterData(grouped, preAggregated = false)
    val pre = LocalGen.clusterData(grouped, preAggregated = true)
    val topo = Topology.uniform(2, bw = 1.0)
    val plan = AggPlan(Vector(Phase(Vector(Transfer(1, 0, 0)))))
    val sim = new Simulator(topo, W)
    assert(sim.run(plan, noPre, Mapping.allToOne(0)).totalSeconds == 4 * W)
    assert(sim.run(plan, pre, Mapping.allToOne(0)).totalSeconds == 2 * W)
  }

  test("a merged share is aggregated even without local pre-aggregation") {
    val raw = Array(Array.emptyLongArray, Array(1L, 1L, 2L), Array(1L, 2L, 2L))
    val grouped = LocalGen.group(raw, KeyPartitioner.Single)
    val d = LocalGen.clusterData(grouped, preAggregated = false)
    val topo = Topology.uniform(3, bw = 1.0)
    val plan = AggPlan(Vector(
      Phase(Vector(Transfer(2, 1, 0))), // ships 3 raw tuples
      Phase(Vector(Transfer(1, 0, 0))))) // ships the aggregated union {1,2}
    val r = new Simulator(topo, W).run(plan, d, Mapping.allToOne(0))
    assert(r.phaseSeconds == Vector(3 * W, 2 * W))
  }

  test("tuplesReceived and tuplesIntoDestinations are tracked per transfer") {
    val topo = Topology.uniform(3, bw = 1.0)
    val d = data1(KeySet.empty, KeySet.fromRange(0, 4), KeySet.fromRange(2, 6))
    val plan = AggPlan(Vector(
      Phase(Vector(Transfer(2, 1, 0))),
      Phase(Vector(Transfer(1, 0, 0)))))
    val r = new Simulator(topo, W).run(plan, d, Mapping.allToOne(0))
    assert(r.tuplesReceived(1) == 4)
    assert(r.tuplesReceived(0) == 6)
    assert(r.tuplesIntoDestinations == 6)
  }

  test("incomplete plans are rejected") {
    val topo = Topology.uniform(3)
    val d = data1(KeySet.empty, KeySet.fromRange(0, 4), KeySet.fromRange(0, 4))
    val plan = AggPlan(Vector(Phase(Vector(Transfer(1, 0, 0)))))
    intercept[IllegalArgumentException] {
      new Simulator(topo, W).run(plan, d, Mapping.allToOne(0))
    }
  }

  test("a phase where a node sends and receives the same partition is rejected") {
    val topo = Topology.uniform(3)
    val d = data1(KeySet.empty, KeySet.fromRange(0, 4), KeySet.fromRange(0, 4))
    val plan = AggPlan(Vector(Phase(Vector(Transfer(1, 2, 0), Transfer(2, 0, 0)))))
    intercept[IllegalArgumentException] {
      new Simulator(topo, W).run(plan, d, Mapping.allToOne(0))
    }
  }

  test("a share sent to two receivers in one phase is rejected") {
    val topo = Topology.uniform(3)
    val d = data1(KeySet.fromRange(1, 2), KeySet.fromRange(1, 2), KeySet.fromRange(1, 2))
    val plan = AggPlan(Vector(
      Phase(Vector(Transfer(2, 0, 0), Transfer(2, 1, 0))),
      Phase(Vector(Transfer(1, 0, 0)))))
    intercept[IllegalArgumentException] {
      new Simulator(topo, W).run(plan, d, Mapping.allToOne(0))
    }
  }

  test("transfers from an empty share are rejected") {
    val topo = Topology.uniform(3)
    val d = data1(KeySet.empty, KeySet.fromRange(0, 4), KeySet.empty)
    val plan = AggPlan(Vector(Phase(Vector(Transfer(2, 0, 0), Transfer(1, 0, 0)))))
    intercept[IllegalArgumentException] {
      new Simulator(topo, W).run(plan, d, Mapping.allToOne(0))
    }
  }

  test("compute model: phase time is max(network, receiver aggregation)") {
    val topo = Topology.uniform(2, bw = 1000.0)
    val d = data1(KeySet.empty, KeySet.fromRange(0, 100))
    val plan = AggPlan(Vector(Phase(Vector(Transfer(1, 0, 0)))))
    val cm = ComputeModel(aggRawBw = 1.0, aggPreBw = 10.0)
    val r = new Simulator(topo, W, Some(cm)).run(plan, d, Mapping.allToOne(0))
    // Network: 100 * 10 / 1000 = 1s; compute (pre-aggregated input at 10 B/s):
    // 100 * 10 / 10 = 100s; plus the up-front local pre-agg pass 100*10/1 = 1000s.
    assert(r.preAggSeconds == 1000.0)
    assert(r.phaseSeconds == Vector(100.0))
  }

  test("compute model: raw arrivals aggregate at the slower raw throughput") {
    val raw = Array(Array.emptyLongArray, Array(1L, 2L, 3L, 3L))
    val grouped = LocalGen.group(raw, KeyPartitioner.Single)
    val d = LocalGen.clusterData(grouped, preAggregated = false)
    val topo = Topology.uniform(2, bw = 1e9)
    val cm = ComputeModel(aggRawBw = 2.0, aggPreBw = 1000.0)
    val plan = AggPlan(Vector(Phase(Vector(Transfer(1, 0, 0)))))
    val r = new Simulator(topo, W, Some(cm)).run(plan, d, Mapping.allToOne(0))
    assert(r.preAggSeconds == 0.0) // nothing is pre-aggregated
    assert(r.phaseSeconds == Vector(4 * W / 2.0))
  }

  test("run() does not mutate the caller's ClusterData") {
    val d = data1(KeySet.empty, KeySet.fromRange(0, 4))
    val topo = Topology.uniform(2)
    val plan = AggPlan(Vector(Phase(Vector(Transfer(1, 0, 0)))))
    new Simulator(topo, W).run(plan, d, Mapping.allToOne(0))
    assert(d(1, 0).keys.length == 4)
  }
}
