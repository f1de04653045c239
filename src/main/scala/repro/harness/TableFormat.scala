package repro.harness

/** Plain-text table rendering for the bench harnesses: each reproduced
  * exhibit prints its measured rows next to the paper's reported numbers so
  * EXPERIMENTS.md can be diffed against a run.
  */
object TableFormat {

  /** Title, header and rows of one exhibit. */
  type Table = (String, Seq[String], Seq[Seq[String]])

  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(cells: Seq[String]): String =
      cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def fmt(d: Double): String = f"$d%.2f"
}
