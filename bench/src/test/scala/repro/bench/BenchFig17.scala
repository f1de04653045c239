package repro.bench

import repro.SparkSpec
import repro.harness.{Experiments, Report}

/** Fig. 17: TPC-H Q18 subquery and the MODIS/Amazon/Yelp-like workloads,
  * all-to-one on 8 machines x 14 fragments.
  *
  * Paper: GRASP has the best performance on every dataset — 3.5x over
  * Preagg+Repart and 2x over LOOM on MODIS. Reproduced shape: for every
  * workload GRASP > LOOM > Preagg+Repart >= Repart.
  */
class BenchFig17 extends SparkSpec {

  test("Fig. 17: GRASP is fastest on all four workloads") {
    val results = Experiments.fig17(spark)
    Exhibits.emit(suiteName, Report.speedups(
      "Fig. 17: real datasets + TPC-H (all-to-one, 8x14 fragments)", results,
      Seq(Seq("paper MODIS", "~0.9", "1.0", "~1.75", "3.5 (2x over LOOM)"))))

    results.foreach { case (w, r) =>
      val grasp = r.speedupOverPreagg(r.grasp)
      val loom = r.speedupOverPreagg(r.loom.get)
      assert(grasp >= 1.25, s"$w: GRASP speedup $grasp")
      assert(grasp >= loom - 0.05, s"$w: LOOM ($loom) beats GRASP ($grasp)")
      assert(loom >= 1.0, s"$w: LOOM below repartitioning: $loom")
      assert(r.speedupOverPreagg(r.repart) <= 1.05, s"$w: Repart above Preagg+Repart")
    }
    val modis = results.collectFirst { case ("MODIS", r) => r }.get
    assert(modis.speedupOverPreagg(modis.grasp) >= 1.6,
      s"MODIS GRASP: ${modis.speedupOverPreagg(modis.grasp)}")
  }
}
