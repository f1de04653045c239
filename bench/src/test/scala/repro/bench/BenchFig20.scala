package repro.bench

import repro.SparkSpec
import repro.harness.{Experiments, Report}

/** Fig. 20: the EC2 deployment — 8 instances x 6 fragments on a 10 Gbps
  * network where the aggregation is compute bound (raw aggregation
  * 309 MB/s, pre-aggregated 811 MB/s, both as measured by the paper).
  *
  * Paper: Preagg+Repart beats Repart (pre-aggregation pays off when
  * compute binds), GRASP is 2.2x over Preagg+Repart and 1.5x over LOOM.
  * Reproduced shape: Repart clearly loses once compute matters, GRASP
  * stays the fastest.
  */
class BenchFig20 extends SparkSpec {

  test("Fig. 20: compute-bound regime — pre-aggregation pays off, GRASP still wins") {
    val r = Experiments.fig20(spark)
    Exhibits.emit(suiteName, Report.speedups(
      "Fig. 20: EC2 compute-bound regime (8 instances x 6 fragments)", Seq("EC2 10Gbps" -> r),
      Seq(Seq("paper", "~0.55", "1.0", "~1.45", "2.2 (1.5x over LOOM)"))))

    assert(r.speedupOverPreagg(r.repart) < 0.8,
      s"Repart should lose when compute binds: ${r.speedupOverPreagg(r.repart)}")
    val grasp = r.speedupOverPreagg(r.grasp)
    assert(grasp >= 1.2, s"GRASP speedup: $grasp")
    assert(grasp >= r.speedupOverPreagg(r.loom.get), "GRASP must beat LOOM on EC2")
  }
}
