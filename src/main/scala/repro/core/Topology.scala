package repro.core

/** Star-topology cluster model (§2 of the paper).
  *
  * All routers collapse into one star center; every *machine* has one uplink
  * and one downlink NIC of the given bandwidths (bytes/second). One or more
  * plan fragments run per machine (§5.3 runs up to 14 per machine);
  * co-located fragments communicate over a fast intra-machine path that does
  * not touch the NICs, which is what makes the network *nonuniform* in the
  * paper's §5.3 experiments.
  */
final case class Topology(
    machineOf: Vector[Int],
    nicUpBw: Double,
    nicDownBw: Double,
    intraBw: Double,
) {
  require(machineOf.nonEmpty, "topology needs at least one fragment")
  require(nicUpBw > 0 && nicDownBw > 0 && intraBw > 0, "bandwidths must be positive")

  val nFragments: Int = machineOf.size
  val nMachines: Int = machineOf.max + 1

  def sameMachine(s: Int, t: Int): Boolean = machineOf(s) == machineOf(t)

  /** In-isolation bandwidth of an `s → t` transfer — what the §3.2 startup
    * benchmark measures when only this pair is active.
    */
  def pairBandwidth(s: Int, t: Int): Double =
    if (sameMachine(s, t)) intraBw else math.min(nicUpBw, nicDownBw)

  /** The pairwise bandwidth matrix `B` handed to the planner (row = sender,
    * column = receiver, as in Fig. 5). Diagonal entries are never used by the
    * planner (`s = t` costs ∞) but are set to the intra bandwidth for
    * completeness.
    */
  def bandwidthMatrix: Array[Array[Double]] =
    Array.tabulate(nFragments, nFragments)((s, t) => if (s == t) intraBw else pairBandwidth(s, t))

  /** Network seconds of one phase of concurrent `(src, dst, bytes)`
    * transfers under the §4.1 link-sharing assumption (Eq. 9): each
    * machine's NIC uplink and downlink carry the summed bytes of the
    * inter-machine transfers crossing them, an intra-machine transfer runs
    * on the local path, and the phase lasts as long as its busiest resource.
    * Bytes are summed in the order given.
    */
  def phaseNetworkSeconds(transfers: Iterable[(Int, Int, Double)]): Double = {
    val up = new Array[Double](nMachines)
    val down = new Array[Double](nMachines)
    var intraMax = 0.0
    transfers.foreach { case (src, dst, bytes) =>
      if (sameMachine(src, dst)) intraMax = math.max(intraMax, bytes / intraBw)
      else {
        up(machineOf(src)) += bytes
        down(machineOf(dst)) += bytes
      }
    }
    math.max(intraMax,
      math.max(up.foldLeft(0.0)(math.max) / nicUpBw, down.foldLeft(0.0)(math.max) / nicDownBw))
  }
}

object Topology {
  /** 1 Gbps measured as 118 MB/s in the paper's shared cluster (§5.2). */
  val OneGbps: Double = 118.0 * 1024 * 1024

  /** 10 Gbps EC2 network, ~1.2 GB/s maximum throughput (§5.3.5). */
  val TenGbps: Double = 1200.0 * 1024 * 1024

  /** Default intra-machine (memory) bandwidth for co-located fragments. */
  val IntraMachine: Double = 10.0 * 1024 * 1024 * 1024

  /** Uniform network: one fragment per machine, every pair at `bw` (§5.2). */
  def uniform(nFragments: Int, bw: Double = OneGbps): Topology =
    Topology(Vector.tabulate(nFragments)(identity), bw, bw, bw)

  /** Nonuniform network: `perMachine` fragments share each machine's NIC;
    * intra-machine transfers run at `intraBw` (§5.3).
    */
  def colocated(
      nMachines: Int,
      perMachine: Int,
      nicBw: Double = OneGbps,
      intraBw: Double = IntraMachine,
  ): Topology =
    Topology(Vector.tabulate(nMachines * perMachine)(_ / perMachine), nicBw, nicBw, intraBw)
}
