package repro.harness

import repro.harness.Algorithms.{AllResults, RunResult}
import repro.harness.TableFormat.fmt

/** Renders each reproduced exhibit as a table of measured values next to
  * the numbers the paper reports, so bench output can be diffed against
  * EXPERIMENTS.md. Speedups are over Preagg+Repart, matching the
  * paper's figure axes.
  */
object Report {

  private def speedupRow(label: String, r: AllResults): Seq[String] = {
    val loom = r.loom.map(l => fmt(r.speedupOverPreagg(l))).getOrElse("n/a")
    Seq(label,
      fmt(r.speedupOverPreagg(r.repart)),
      fmt(1.0),
      loom,
      fmt(r.speedupOverPreagg(r.grasp)))
  }

  val speedupHeader: Seq[String] =
    Seq("setting", "Repart", "Preagg+Repart", "LOOM", "GRASP")

  def fig10(results: Seq[(Double, AllResults)]): (String, Seq[String], Seq[Seq[String]]) = {
    val rows = results.map { case (j, r) => speedupRow(s"J=$j", r) } :+
      Seq("paper @J=1", "~1.0", "1.0", "~1.9", "4.1 (2.2x over LOOM)")
    ("Fig. 10: speedup vs Jaccard similarity (all-to-one, 8 fragments)",
      speedupHeader, rows)
  }

  def fig11(results: Seq[(Int, AllResults)]): (String, Seq[String], Seq[Seq[String]]) = {
    val rows = results.map { case (dup, r) => speedupRow(s"tuples/key=$dup", r) } :+
      Seq("paper (all dup)", "<1", "1.0", "~1.5", ">3 (~2x over LOOM)")
    ("Fig. 11: speedup vs duplicates per key (all-to-one, 8 fragments, J=0.5)",
      speedupHeader, rows)
  }

  def fig12(results: Seq[(Double, AllResults)]): (String, Seq[String], Seq[Seq[String]]) = {
    val rows = results.map { case (l, r) => speedupRow(s"imbalance l=$l", r) } :+
      Seq("paper @l~3", "~1", "1.0", "n/a", "~2 (up to 3)")
    ("Fig. 12: speedup vs workload imbalance (all-to-all, 8 fragments)",
      speedupHeader, rows)
  }

  def fig14(base: RunResult, cases: Seq[(String, Double, RunResult)])
      : (String, Seq[String], Seq[Seq[String]]) = {
    val rows = cases.map { case (label, f, r) =>
      val delta = (r.seconds - base.seconds) / base.seconds * 100.0
      Seq(label, f"${f * 100}%.0f%%", fmt(r.seconds), fmt(base.seconds), f"$delta%+.1f%%")
    } :+ Seq("paper", "up to 50%", "-", "-", "< +20%")
    ("Fig. 14: GRASP response under bandwidth underestimation (MODIS, 8x14 fragments)",
      Seq("perturbation", "underest.", "seconds", "baseline s", "delta"), rows)
  }

  def fig15(one: AllResults, all: AllResults): (String, Seq[String], Seq[Seq[String]]) = {
    val rows = Seq(
      speedupRow("all-to-one", one),
      speedupRow("all-to-all", all),
      Seq("paper all-to-one", "-", "1.0", "~2.9", "16 (5.6x over LOOM)"),
      Seq("paper all-to-all", "-", "1.0", "n/a", "4.6"),
    )
    ("Fig. 15: nonuniform bandwidth (4 machines x 14 fragments)", speedupHeader, rows)
  }

  def fig16(results: Seq[(Int, AllResults, AllResults)])
      : (String, Seq[String], Seq[Seq[String]]) = {
    val rows = results.flatMap { case (n, one, all) =>
      Seq(
        speedupRow(s"all-to-one n=$n", one) :+ s"${one.grasp.planMillis}ms",
        speedupRow(s"all-to-all n=$n", all) :+ s"${all.grasp.planMillis}ms",
      )
    } :+ (Seq("paper @112 one", "-", "1.0", "~5.5", "41") :+ "-") :+
      (Seq("paper @56 all", "-", "1.0", "n/a", "4.6") :+ "-")
    ("Fig. 16: scale-out (14 fragments/machine)",
      speedupHeader :+ "GRASP plan time", rows)
  }

  def fig17(results: Seq[(String, AllResults)]): (String, Seq[String], Seq[Seq[String]]) = {
    val rows = results.map { case (w, r) => speedupRow(w, r) } :+
      Seq("paper MODIS", "~0.9", "1.0", "~1.75", "3.5 (2x over LOOM)")
    ("Fig. 17: real datasets + TPC-H (all-to-one, 8x14 fragments)", speedupHeader, rows)
  }

  def table2(r: AllResults): (String, Seq[String], Seq[Seq[String]]) = {
    def row(label: String, rr: RunResult, paper: Long): Seq[String] =
      Seq(label, rr.tuplesIntoDest.toString,
        fmt(rr.tuplesIntoDest.toDouble / r.grasp.tuplesIntoDest),
        paper.toString, fmt(paper.toDouble / 787105152L))
    val rows = Seq(
      row("Repart", r.repart, 3464926620L),
      row("Preagg+Repart", r.preaggRepart, 3195388849L),
      row("LOOM", r.loom.get, 2138236114L),
      row("GRASP", r.grasp, 787105152L),
    )
    ("Table 2: tuples received by the destination fragment (MODIS, all-to-one)",
      Seq("algorithm", "tuples (ours)", "x GRASP (ours)", "tuples (paper)", "x GRASP (paper)"),
      rows)
  }

  def fig19(quantiles: Seq[(Int, Double)]): (String, Seq[String], Seq[Seq[String]]) = {
    val rows = quantiles.map { case (p, e) => Seq(s"p$p", f"${e * 100}%.1f%%") } :+
      Seq("paper p90", "< 10%")
    ("Fig. 19: minhash intersection-size estimation error (MODIS pairs)",
      Seq("quantile", "relative error"), rows)
  }

  def fig20(r: AllResults): (String, Seq[String], Seq[Seq[String]]) = {
    val rows = Seq(
      speedupRow("EC2 10Gbps", r),
      Seq("paper", "~0.55", "1.0", "~1.45", "2.2 (1.5x over LOOM)"),
    )
    ("Fig. 20: EC2 compute-bound regime (8 instances x 6 fragments)", speedupHeader, rows)
  }
}
