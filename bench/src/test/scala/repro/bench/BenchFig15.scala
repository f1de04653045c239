package repro.bench

import repro.SparkSpec
import repro.harness.{Experiments, Report}

/** Fig. 15: nonuniform bandwidth — 4 machines x 14 fragments sharing each
  * machine's NIC, fast intra-machine paths, every fragment drawing from the
  * same key range.
  *
  * Paper: GRASP 16x over Preagg+Repart and 5.6x over LOOM (all-to-one),
  * 4.6x (all-to-all). Reproduced shape: GRASP gains integer factors by
  * merging over fast local links first; repartitioning cannot. Our LOOM
  * idealization (locality-hierarchical tree + exact result cardinality)
  * matches GRASP on this workload because the similarity is *uniform* —
  * obliviousness costs nothing here; see EXPERIMENTS.md.
  */
class BenchFig15 extends SparkSpec {

  test("Fig. 15: GRASP exploits fast intra-machine links") {
    val (one, all) = Experiments.fig15(spark)
    Exhibits.emit(suiteName, Report.speedups(
      "Fig. 15: nonuniform bandwidth (4 machines x 14 fragments)",
      Seq("all-to-one" -> one, "all-to-all" -> all),
      Seq(
        Seq("paper all-to-one", "-", "1.0", "~2.9", "16 (5.6x over LOOM)"),
        Seq("paper all-to-all", "-", "1.0", "n/a", "4.6"))))

    assert(one.speedupOverPreagg(one.grasp) >= 3.0,
      s"all-to-one GRASP: ${one.speedupOverPreagg(one.grasp)}")
    assert(all.speedupOverPreagg(all.grasp) >= 3.0,
      s"all-to-all GRASP: ${all.speedupOverPreagg(all.grasp)}")
    assert(one.speedupOverPreagg(one.loom.get) >= 2.0,
      s"LOOM should also beat repartitioning here: ${one.speedupOverPreagg(one.loom.get)}")
    assert(one.speedupOverPreagg(one.repart) <= 1.0)
  }
}
