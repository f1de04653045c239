package repro.harness

import repro.harness.Algorithms.{AllResults, RunResult}
import repro.harness.TableFormat.{fmt, Table}

/** Renders each reproduced exhibit as a table of measured values next to
  * the numbers the paper reports, so bench output can be diffed against
  * EXPERIMENTS.md. Speedups are over Preagg+Repart, matching the
  * paper's figure axes.
  */
object Report {

  /** One row per labelled run — each algorithm's speedup over
    * Preagg+Repart — followed by the paper's rows as given.
    */
  def speedups(title: String, results: Seq[(String, AllResults)], paper: Seq[Seq[String]]): Table = {
    val rows = results.map { case (label, r) =>
      Seq(label,
        fmt(r.speedupOverPreagg(r.repart)),
        fmt(1.0),
        r.loom.map(l => fmt(r.speedupOverPreagg(l))).getOrElse("n/a"),
        fmt(r.speedupOverPreagg(r.grasp)))
    }
    (title, Seq("setting", "Repart", "Preagg+Repart", "LOOM", "GRASP"), rows ++ paper)
  }

  def fig14(base: RunResult, cases: Seq[(String, Double, RunResult)]): Table = {
    val rows = cases.map { case (label, f, r) =>
      val delta = (r.seconds - base.seconds) / base.seconds * 100.0
      Seq(label, f"${f * 100}%.0f%%", fmt(r.seconds), fmt(base.seconds), f"$delta%+.1f%%")
    } :+ Seq("paper", "up to 50%", "-", "-", "< +20%")
    ("Fig. 14: GRASP response under bandwidth underestimation (MODIS, 8x14 fragments)",
      Seq("perturbation", "underest.", "seconds", "baseline s", "delta"), rows)
  }

  def table2(r: AllResults): Table = {
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

  def fig19(quantiles: Seq[(Int, Double)]): Table = {
    val rows = quantiles.map { case (p, e) => Seq(s"p$p", f"${e * 100}%.1f%%") } :+
      Seq("paper p90", "< 10%")
    ("Fig. 19: minhash intersection-size estimation error (MODIS pairs)",
      Seq("quantile", "relative error"), rows)
  }
}
