package repro.bench

import repro.SparkSpec
import repro.harness.{Experiments, Report}

/** Fig. 16: scale-out from 28 to 112 fragments (14 per machine).
  *
  * Paper: all-to-one speedup grows with the fragment count (41x over
  * Preagg+Repart and 7.5x over LOOM at 112) because repartitioning
  * bottlenecks on the destination's receiving link; all-to-all speedup
  * peaks near 56 fragments and then declines as GRASP's planning cost
  * grows. Reproduced shape: monotone all-to-one growth. The all-to-all
  * planning wall-clock, the paper's stated cause of the decline, is timed
  * on its own by [[BenchPlanner]].
  */
class BenchFig16 extends SparkSpec {

  test("Fig. 16: all-to-one speedup grows with fragments") {
    val results = Experiments.fig16(spark)
    val labelled = results.flatMap { case (n, one, all) =>
      Seq(s"all-to-one n=$n" -> one, s"all-to-all n=$n" -> all)
    }
    Exhibits.emit(suiteName, Report.speedups("Fig. 16: scale-out (14 fragments/machine)", labelled,
      Seq(
        Seq("paper @112 one", "-", "1.0", "~5.5", "41"),
        Seq("paper @56 all", "-", "1.0", "n/a", "4.6"))))

    val oneSpeedups = results.map { case (_, one, _) => one.speedupOverPreagg(one.grasp) }
    oneSpeedups.sliding(2).foreach { case Seq(a, b) =>
      assert(b >= a - 0.2, s"all-to-one speedup not growing: $oneSpeedups")
    }
    assert(oneSpeedups.last >= oneSpeedups.head + 1.0, s"no scale-out benefit: $oneSpeedups")
    assert(oneSpeedups.last >= 6.0, s"GRASP at 112 fragments: ${oneSpeedups.last}")

    results.foreach { case (n, _, all) =>
      assert(all.speedupOverPreagg(all.grasp) >= 3.0, s"all-to-all GRASP at n=$n")
    }
  }
}
