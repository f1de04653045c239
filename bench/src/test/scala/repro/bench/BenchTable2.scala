package repro.bench

import repro.SparkSpec
import repro.harness.{Experiments, Report}

/** Table 2: tuples received by the final destination fragment (MODIS,
  * all-to-one, 8 machines x 14 fragments).
  *
  * Paper: Repart 3,464,926,620; Preagg+Repart 3,195,388,849;
  * LOOM 2,138,236,114; GRASP 787,105,152 — i.e. 4.40x / 4.06x / 2.72x the
  * tuples GRASP ships into the destination. The reproduction asserts the
  * ordering and that the ratios are materially > 1.
  */
class BenchTable2 extends SparkSpec {

  test("Table 2: destination receives fewest tuples under GRASP") {
    val r = Experiments.table2(spark)
    Exhibits.emit(suiteName, Report.table2(r))

    val repart = r.repart.tuplesIntoDest.toDouble
    val preagg = r.preaggRepart.tuplesIntoDest.toDouble
    val loom = r.loom.get.tuplesIntoDest.toDouble
    val grasp = r.grasp.tuplesIntoDest.toDouble
    assert(repart >= preagg && preagg > loom && loom > grasp,
      s"ordering violated: $repart / $preagg / $loom / $grasp")
    assert(repart / grasp >= 1.8, s"Repart/GRASP = ${repart / grasp}")
    assert(loom / grasp >= 1.2, s"LOOM/GRASP = ${loom / grasp}")
  }
}
