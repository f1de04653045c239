package repro.bench

import repro.SparkSpec
import repro.harness.{Experiments, Report}

/** Fig. 11: effect of duplicates per key within a fragment (all-to-one,
  * 8 fragments, J=0.5 between adjacent fragments).
  *
  * Paper: Preagg+Repart improves over Repart as duplicates grow (local
  * aggregation pays off), GRASP stays >3x over Preagg+Repart and ~2x over
  * LOOM. Reproduced shape: Repart degrades with the duplication factor;
  * GRASP is always the fastest.
  */
class BenchFig11 extends SparkSpec {

  test("Fig. 11: local aggregation pays off with duplicates; GRASP still wins") {
    val results = Experiments.fig11(spark)
    Exhibits.emit(suiteName, Report.speedups(
      "Fig. 11: speedup vs duplicates per key (all-to-one, 8 fragments, J=0.5)",
      results.map { case (dup, r) => s"tuples/key=$dup" -> r },
      Seq(Seq("paper (all dup)", "<1", "1.0", "~1.5", ">3 (~2x over LOOM)"))))

    val repartSpeedups = results.map { case (_, r) => r.speedupOverPreagg(r.repart) }
    repartSpeedups.sliding(2).foreach { case Seq(a, b) =>
      assert(b <= a + 0.05, s"Repart should degrade with duplicates: $repartSpeedups")
    }
    assert(repartSpeedups.last < 0.3, s"Repart at dup=8: ${repartSpeedups.last}")
    results.foreach { case (dup, r) =>
      val grasp = r.speedupOverPreagg(r.grasp)
      assert(grasp >= 1.25, s"GRASP at dup=$dup: $grasp")
      assert(grasp >= r.speedupOverPreagg(r.loom.get) - 0.05, s"LOOM beats GRASP at dup=$dup")
    }
  }
}
