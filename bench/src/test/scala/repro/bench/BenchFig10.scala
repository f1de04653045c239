package repro.bench

import repro.SparkSpec
import repro.harness.{Experiments, Report}

/** Fig. 10: speedup over Preagg+Repart as the Jaccard similarity between
  * fragments grows (all-to-one, 8 fragments, uniform 1 Gbps).
  *
  * Paper: GRASP up to 4.1x over Preagg+Repart and 2.2x over LOOM at J=1;
  * Repart and Preagg+Repart flat across J. Reproduced shape: GRASP speedup
  * increases with J and dominates; repartitioning cannot exploit
  * similarity.
  */
class BenchFig10 extends SparkSpec {

  test("Fig. 10: GRASP speedup grows with cross-fragment similarity") {
    val results = Experiments.fig10(spark)
    Exhibits.emit(suiteName, Report.speedups(
      "Fig. 10: speedup vs Jaccard similarity (all-to-one, 8 fragments)",
      results.map { case (j, r) => s"J=$j" -> r },
      Seq(Seq("paper @J=1", "~1.0", "1.0", "~1.9", "4.1 (2.2x over LOOM)"))))

    val graspSpeedups = results.map { case (_, r) => r.speedupOverPreagg(r.grasp) }
    assert(graspSpeedups.last >= 2.0, s"GRASP at J=1: ${graspSpeedups.last}")
    assert(graspSpeedups.last >= graspSpeedups.head + 0.5,
      s"no growth with similarity: $graspSpeedups")
    // Weakly monotone in J.
    graspSpeedups.sliding(2).foreach { case Seq(a, b) => assert(b >= a - 0.1, graspSpeedups) }
    results.foreach { case (j, r) =>
      val repart = r.speedupOverPreagg(r.repart)
      assert(repart > 0.9 && repart < 1.1, s"Repart not flat at J=$j: $repart")
      assert(r.speedupOverPreagg(r.grasp) >= r.speedupOverPreagg(r.loom.get) - 0.05,
        s"LOOM beats GRASP at J=$j")
    }
  }
}
