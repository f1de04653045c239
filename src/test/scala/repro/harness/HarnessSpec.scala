package repro.harness

import repro.{SparkSpec, SynthData}
import repro.core._

/** Unit tests of the bench harness plumbing (scenario building, algorithm
  * runners, bandwidth perturbation, table rendering).
  */
class HarnessSpec extends SparkSpec {

  private def smallScenario(compute: Option[ComputeModel] = None): Scenario = {
    val df = SynthData.overlapFragments(spark, 4, 200, jaccard = 0.5, dupFactor = 2)
    Scenarios.fromDataFrame("t", df, Topology.uniform(4), Mapping.allToOne(0),
      KeyPartitioner.Single, compute = compute)
  }

  test("scenario carries pre-aggregated data and matching statistics") {
    val sc = smallScenario()
    for (v <- 0 until 4)
      assert(sc.stats.cardinality(v, 0) == sc.data(v, 0).keys.length.toLong)
    assert(sc.data(1, 0).rawCount == 200)
    assert(sc.data(1, 0).keys.length == 100)
  }

  test("runAll produces consistent results for all four algorithms") {
    val r = Algorithms.runAll(smallScenario())
    assert(r.toSeq.map(_.algo) == Seq("Repart", "Preagg+Repart", "LOOM", "GRASP"))
    // Repart ships raw tuples: twice the pre-aggregated volume here.
    assert(math.abs(r.repart.seconds / r.preaggRepart.seconds - 2.0) < 0.01)
    assert(r.grasp.seconds <= r.preaggRepart.seconds * 1.01)
    r.toSeq.foreach(x => assert(x.seconds > 0 && x.tuplesIntoDest > 0))
  }

  test("loom runner declines all-to-all scenarios") {
    val df = SynthData.uniformFragments(spark, 4, 300, keySpace = 600)
    val sc = Scenarios.fromDataFrame("t2", df, Topology.uniform(4), Mapping.allToAll(4),
      KeyPartitioner.Hashed(4))
    assert(Algorithms.loom(sc).isEmpty)
    assert(Algorithms.runAll(sc).loom.isEmpty)
  }

  test("grasp honours a perturbed planner bandwidth matrix") {
    val sc = smallScenario()
    val perturbed = Scenarios.underestimate(sc.topo, Scenarios.SwitchContention, 0.5)
    val r = Algorithms.grasp(sc, Some(perturbed))
    // Same topology in the simulator: result must still be a complete plan.
    assert(r.seconds > 0)
  }

  test("underestimate touches only the requested link class") {
    val topo = Topology.colocated(2, 2, nicBw = 100.0, intraBw = 1000.0)
    val co = Scenarios.underestimate(topo, Scenarios.CoLocation, 0.5, Set(0))
    assert(co(0)(1) == 500.0)  // intra of machine 0
    assert(co(2)(3) == 1000.0) // intra of machine 1 untouched
    assert(co(0)(2) == 100.0)  // cross untouched
    val nic = Scenarios.underestimate(topo, Scenarios.NicContention, 0.2, Set(1))
    assert(nic(0)(2) == 80.0)
    assert(nic(0)(1) == 1000.0)
    val sw = Scenarios.underestimate(topo, Scenarios.SwitchContention, 0.1)
    assert(sw(0)(2) == 90.0 && sw(2)(0) == 90.0 && sw(0)(1) == 1000.0)
  }

  test("compute model changes the reported seconds") {
    val without = Algorithms.runAll(smallScenario())
    val withCm = Algorithms.runAll(smallScenario(
      Some(ComputeModel(aggRawBw = 1000.0, aggPreBw = 2000.0))))
    assert(withCm.preaggRepart.seconds > without.preaggRepart.seconds)
  }

  test("TableFormat renders aligned tables") {
    val s = TableFormat.render("T", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val lines = s.split("\n")
    assert(lines.head == "== T ==")
    assert(lines.tail.map(_.length).distinct.size == 1, s)
  }

  test("Report renders every exhibit without error") {
    val sc = smallScenario()
    val all = Algorithms.runAll(sc)
    assert(Report.table2(all)._3.size == 4)
    assert(Report.speedups("T", Seq("one" -> all, "all" -> all.copy(loom = None)),
      Seq(Seq("paper", "-", "1.0", "n/a", "1")))._3.nonEmpty)
    assert(Report.fig19(Seq(90 -> 0.05))._3.nonEmpty)
    assert(Report.fig14(all.grasp, Seq(("x", 0.2, all.grasp)))._3.nonEmpty)
  }
}
