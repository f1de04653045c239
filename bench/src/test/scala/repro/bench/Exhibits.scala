package repro.bench

import java.io.{File, PrintWriter}

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import repro.harness.TableFormat
import repro.harness.TableFormat.Table

/** Every exhibit table a bench suite prints goes through [[emit]]: it prints
  * the table and records its title, header and rows, as the printed strings,
  * in `BENCH_experiments.json` at the repository root. The file is the
  * behaviour fingerprint of the simulated evaluation: two checkouts that print
  * the same tables write the same file, so one diff compares them.
  *
  * One entry per suite, keyed by suite name and written in name order;
  * running one suite rewrites only its own entry.
  */
object Exhibits {

  private val mapper = new ObjectMapper()

  /** The repository root: the forked test JVM may start in `bench/`. */
  def repoRoot: File = {
    val cwd = new File(sys.props("user.dir")).getAbsoluteFile
    if (new File(cwd, "ROADMAP.md").exists) cwd else cwd.getParentFile
  }

  def emit(suite: String, table: Table): Unit = {
    val (title, header, rows) = table
    // Println on purpose: bench output is the deliverable recorded in
    // EXPERIMENTS.md.
    println()
    println(TableFormat.render(title, header, rows))
    println()
    val file = new File(repoRoot, "BENCH_experiments.json")
    val recorded =
      if (file.exists) mapper.readTree(file).properties.asScala.map(e => e.getKey -> read(e.getValue)).toMap
      else Map.empty[String, Table]
    val updated = recorded + (suite -> table)
    val writer = new PrintWriter(file, "UTF-8")
    try writer.write(updated.toSeq.sortBy(_._1).map((write _).tupled).mkString("{\n", ",\n", "\n}\n"))
    finally writer.close()
  }

  private def strings(node: JsonNode): Seq[String] = node.elements.asScala.map(_.asText).toSeq

  private def read(node: JsonNode): Table =
    (node.get("title").asText, strings(node.get("header")), node.get("rows").elements.asScala.map(strings).toSeq)

  private def write(suite: String, table: Table): String = {
    def json(v: AnyRef): String = mapper.writeValueAsString(v)
    val (title, header, rows) = table
    s"""  ${json(suite)}: {
       |    "title": ${json(title)},
       |    "header": ${json(header.asJava)},
       |    "rows": [
       |${rows.map(r => "      " + json(r.asJava)).mkString(",\n")}
       |    ]
       |  }""".stripMargin
  }
}
