package repro.bench

import java.io.{File, PrintWriter}

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.sum

import repro.SparkSpec
import repro.catalyst.Grasp
import repro.catalyst.PhasedTestKit.findExec
import repro.exec.AggSpec

/** The GRASP operator against Spark's native `groupBy` on TPC-H lineitem:
  * `SELECT l_orderkey, SUM(l_quantity) GROUP BY l_orderkey`, with the input
  * round-robin repartitioned into p fragments, persisted and counted before
  * any timing, for p in {16, 64, 128, 200}.
  *
  * Three untimed queries of each kind warm the JIT (after only one, the
  * first p's query times still fell by a quarter or more in later queries);
  * the median of three further queries of each is recorded, with the
  * operator's per-layer SQL metrics, its phase and tuple counts, and
  * native's adaptive-execution setting and shuffle-partition count, on
  * which native time depends. Every GRASP
  * result must equal native's. The input is the TPC-H sf0.1
  * `lineitem.parquet` file named by `LINEITEM_PARQUET`; without it the suite
  * is cancelled. The results go to `BENCH_operator.json` at the repository
  * root:
  *
  * {{{
  *   LINEITEM_PARQUET=path/to/lineitem.parquet sbt "bench/testOnly repro.bench.BenchOperator"
  * }}}
  */
class BenchOperator extends SparkSpec {
  import BenchOperator._

  private def sums(rows: Array[Row]): Map[Long, Double] =
    rows.iterator.map(r => r.getLong(0) -> r.getDouble(1)).toMap

  /** One GRASP query. The RDD it leaves persisted is released after the
    * timing.
    */
  private def grasp(input: DataFrame): Query = {
    val sc = spark.sparkContext
    val persistedBefore = sc.getPersistentRDDs.keySet
    val start = System.nanoTime()
    val out = Grasp.aggregate(input, Key, Seq(AggSpec.sum(Value, "total")))
    val rows = out.collect()
    val seconds = (System.nanoTime() - start) / 1e9
    val exec = findExec(out.queryExecution.executedPlan).getOrElse(fail("no GraspAggregateExec"))
    sc.getPersistentRDDs.foreach { case (id, rdd) => if (!persistedBefore(id)) rdd.unpersist(blocking = true) }
    Query(seconds, sums(rows), Metrics.map(name => name -> exec.metrics(name).value).toMap)
  }

  private def native(input: DataFrame): Query = {
    val start = System.nanoTime()
    val rows = input.groupBy(Key).agg(sum(Value)).collect()
    Query((System.nanoTime() - start) / 1e9, sums(rows), Map.empty)
  }

  private def measure(lineitem: DataFrame, p: Int): Result = {
    val input = lineitem.repartition(p).persist()
    try {
      input.count()
      Seq.fill(WarmUp)((grasp(input), native(input)))
      val runs = Seq.fill(WarmRuns)((grasp(input), native(input)))
      runs.foreach { case (g, n) => assert(g.sums == n.sums, s"p=$p: GRASP differs from native") }
      val metrics = runs.map(_._1.metrics)
      Seq("numPhases", "tuplesMoved").foreach { name =>
        assert(metrics.map(_(name)).distinct.size == 1, s"p=$p: $name differs between runs")
      }
      Result(p, runs.map(_._1.seconds), runs.map(_._2.seconds), metrics, runs.head._2.sums.size)
    } finally input.unpersist(blocking = true)
  }

  private def json(rows: Seq[Result], inputRows: Long): String = {
    val conf = spark.conf
    val entries = rows.map { r =>
      val layers = TimingMetrics.map(name => s""""${name}_ms_median": ${median(r.metrics.map(_(name).toDouble))}""")
      s"""    {"p": ${r.p}, "grasp_s_median": ${median(r.grasp)}, "grasp_s_runs": [${r.grasp.mkString(", ")}], """ +
        s""""native_s_median": ${median(r.native)}, "native_s_runs": [${r.native.mkString(", ")}], """ +
        layers.mkString(", ") + ", " +
        s""""numPhases": ${r.metrics.head("numPhases")}, "tuplesMoved": ${r.metrics.head("tuplesMoved")}, """ +
        s""""groups": ${r.groups}}"""
    }
    s"""{
       |  "suite": "repro.bench.BenchOperator",
       |  "command": "LINEITEM_PARQUET=path/to/lineitem.parquet sbt \\"bench/testOnly repro.bench.BenchOperator\\"",
       |  "measures": "wall-clock of collect() on a persisted input, GRASP operator against native groupBy; per-layer GRASP SQL metrics",
       |  "query": "SELECT $Key, SUM($Value) FROM lineitem GROUP BY $Key",
       |  "input": "TPC-H sf0.1 lineitem.parquet, $inputRows rows, repartition(p), persisted",
       |  "nproc": ${Runtime.getRuntime.availableProcessors},
       |  "spark_master": "${spark.sparkContext.master}",
       |  "warm_up_queries": $WarmUp,
       |  "warm_runs": $WarmRuns,
       |  "native_adaptive_enabled": ${conf.get("spark.sql.adaptive.enabled")},
       |  "native_shuffle_partitions": ${conf.get("spark.sql.shuffle.partitions")},
       |  "results": [
       |${entries.mkString(",\n")}
       |  ]
       |}
       |""".stripMargin
  }

  test("GRASP against native groupBy on lineitem for p in {16, 64, 128, 200}") {
    val path = sys.env.get("LINEITEM_PARQUET")
    assume(path.exists(new File(_).exists), "LINEITEM_PARQUET names no file")
    val lineitem = spark.read.parquet(path.get).select(Key, Value)
    val rows = Sizes.map(measure(lineitem, _))
    val out = new File(Exhibits.repoRoot, "BENCH_operator.json")
    val writer = new PrintWriter(out, "UTF-8")
    try writer.write(json(rows, lineitem.count())) finally writer.close()
    println(s"wrote ${out.getName}")
  }
}

object BenchOperator {
  private val Sizes = Seq(16, 64, 128, 200)
  private val WarmUp = 3
  private val WarmRuns = 3
  private val Key = "l_orderkey"
  private val Value = "l_quantity"
  private val TimingMetrics = Seq("statisticsTime", "planningTime", "mergePhasesTime")
  private val Metrics = TimingMetrics ++ Seq("numPhases", "tuplesMoved")

  private def median(xs: Seq[Double]): Double = xs.sorted.apply(xs.size / 2)

  /** One query's wall seconds, its sums by key and, for GRASP, its metrics. */
  private final case class Query(seconds: Double, sums: Map[Long, Double], metrics: Map[String, Long])

  private final case class Result(
      p: Int,
      grasp: Seq[Double],
      native: Seq[Double],
      metrics: Seq[Map[String, Long]],
      groups: Int,
  )
}
