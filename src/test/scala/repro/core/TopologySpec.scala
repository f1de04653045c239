package repro.core

import org.scalatest.funsuite.AnyFunSuite

class TopologySpec extends AnyFunSuite {

  test("uniform topology: one fragment per machine, symmetric bandwidth") {
    val t = Topology.uniform(4, bw = 100.0)
    assert(t.nFragments == 4 && t.nMachines == 4)
    for (s <- 0 until 4; d <- 0 until 4 if s != d) {
      assert(!t.sameMachine(s, d))
      assert(t.pairBandwidth(s, d) == 100.0)
    }
  }

  test("colocated topology groups fragments onto machines") {
    val t = Topology.colocated(2, 3, nicBw = 10.0, intraBw = 1000.0)
    assert(t.nFragments == 6 && t.nMachines == 2)
    assert(t.machineOf == Vector(0, 0, 0, 1, 1, 1))
    assert(t.sameMachine(0, 2) && !t.sameMachine(2, 3))
    assert(t.pairBandwidth(0, 2) == 1000.0)
    assert(t.pairBandwidth(2, 3) == 10.0)
  }

  test("bandwidth matrix matches pairBandwidth (rows = sender)") {
    val t = Topology.colocated(2, 2, nicBw = 5.0, intraBw = 50.0)
    val b = t.bandwidthMatrix
    assert(b(0)(1) == 50.0)
    assert(b(0)(2) == 5.0)
    assert(b(2)(3) == 50.0)
  }

  test("asymmetric NIC bandwidths use the minimum for cross-machine pairs") {
    val t = Topology(Vector(0, 1), nicUpBw = 4.0, nicDownBw = 9.0, intraBw = 100.0)
    assert(t.pairBandwidth(0, 1) == 4.0)
  }

  test("phase network seconds: NICs shared per machine, busiest resource wins (Eq. 9)") {
    val t = Topology(Vector(0, 0, 1, 1, 2), nicUpBw = 10.0, nicDownBw = 20.0, intraBw = 100.0)
    assert(t.phaseNetworkSeconds(Seq.empty) == 0.0)
    // Machine 0's uplink carries both of its fragments' bytes: (30 + 20) / 10.
    assert(t.phaseNetworkSeconds(Seq((0, 2, 30.0), (1, 4, 20.0))) == 5.0)
    // Two transfers into machine 2's downlink: (30 + 50) / 20 beats each uplink.
    assert(t.phaseNetworkSeconds(Seq((0, 4, 30.0), (2, 4, 50.0))) == 5.0)
    // Intra-machine transfers run side by side, not summed: max(300, 200) / 100.
    assert(t.phaseNetworkSeconds(Seq((0, 1, 300.0), (3, 2, 200.0), (0, 4, 10.0))) == 3.0)
  }

  test("constants match the paper's measured numbers") {
    assert(Topology.OneGbps == 118.0 * 1024 * 1024)
    assert(ComputeModel.Measured.aggRawBw == 309.0 * 1024 * 1024)
    assert(ComputeModel.Measured.aggPreBw == 811.0 * 1024 * 1024)
  }

  test("invalid topologies are rejected") {
    intercept[IllegalArgumentException](Topology(Vector.empty, 1, 1, 1))
    intercept[IllegalArgumentException](Topology(Vector(0), 0, 1, 1))
  }
}
