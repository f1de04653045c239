package repro.bench

import java.io.{File, PrintWriter}
import java.util.concurrent.Executors

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.harness.Scenarios

/** Planning time of Algorithm 2 as the fragment count grows (Fig. 16's
  * planning cost, with no Spark and no simulation in the timing).
  *
  * Each configuration plans uniform driver-side statistics: every fragment
  * draws 20,000 rows from 20,000 keys, on `Topology.colocated(n / 14, 14)`,
  * all-to-all (partitions hashed n ways) and all-to-one (one partition).
  * One untimed plan warms the JIT; the median of three further plans is
  * recorded. One more row, `all-to-all-concurrent` at n = 56, has the shape
  * of perfbench's fig15-plan: rounds of nproc concurrent plans of the same
  * statistics, one per thread, each timed on its own; after one untimed
  * round, the median over three rounds' plans is recorded. Every plan of a
  * row must equal its first. The results go to `BENCH_planner.json` at the
  * repository root:
  *
  * {{{
  *   sbt "bench/testOnly repro.bench.BenchPlanner"
  * }}}
  */
class BenchPlanner extends AnyFunSuite {
  import BenchPlanner._

  /** A planner of the uniform statistics at n fragments. */
  private def planner(n: Int, allToAll: Boolean): () => AggPlan = {
    val raw = LocalGen.uniformDraws(n, RowsPerFrag, KeySpace)
    val part = if (allToAll) KeyPartitioner.Hashed(n) else KeyPartitioner.Single
    val mapping = if (allToAll) Mapping.allToAll(n) else Mapping.allToOne(0)
    val (_, stats) = LocalGen.scenario(raw, part, preAggregated = true, new MinHasher())
    val bandwidth = Topology.colocated(n / 14, 14).bandwidthMatrix
    () => new GraspPlanner(stats, bandwidth, mapping, Scenarios.TupleBytes).plan()
  }

  private def timed(plan: () => AggPlan): (AggPlan, Double) = {
    val start = System.nanoTime()
    val p = plan()
    (p, (System.nanoTime() - start) / 1e9)
  }

  private def measure(n: Int, allToAll: Boolean): Row = {
    val plan = planner(n, allToAll)
    val first = plan()
    val runs = Seq.fill(WarmRuns) {
      val (p, seconds) = timed(plan)
      assert(p == first, s"n=$n: plans differ between runs")
      seconds
    }
    Row(if (allToAll) "all-to-all" else "all-to-one", n, runs, first)
  }

  private def measureConcurrent(n: Int): Row = {
    val plan = planner(n, allToAll = true)
    val first = plan()
    val pool = Executors.newFixedThreadPool(Clients)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
    def round(): Seq[(AggPlan, Double)] =
      Await.result(Future.sequence(Seq.fill(Clients)(Future(timed(plan)))), Duration.Inf)
    try {
      round()
      val runs = Seq.fill(WarmRuns)(round()).flatten
      runs.foreach { case (p, _) => assert(p == first, s"n=$n: concurrent plans differ") }
      Row("all-to-all-concurrent", n, runs.map(_._2), first)
    } finally pool.shutdown()
  }

  private def json(rows: Seq[Row]): String = {
    val entries = rows.map { r =>
      s"""    {"mapping": "${r.mapping}", "n": ${r.n}, "plan_s_median": ${r.median}, """ +
        s""""plan_s_runs": [${r.runs.mkString(", ")}], "phases": ${r.plan.numPhases}, """ +
        s""""transfers": ${r.plan.numTransfers}}"""
    }
    s"""{
       |  "suite": "repro.bench.BenchPlanner",
       |  "command": "sbt \\"bench/testOnly repro.bench.BenchPlanner\\"",
       |  "measures": "GraspPlanner.plan wall-clock, one thread (all-to-all-concurrent: per plan, nproc concurrent plans), statistics prepared outside the timing",
       |  "nproc": $Clients,
       |  "warm_runs": $WarmRuns,
       |  "rows_per_fragment": $RowsPerFrag,
       |  "key_space": $KeySpace,
       |  "topology": "Topology.colocated(n / 14, 14)",
       |  "tuple_bytes": ${Scenarios.TupleBytes},
       |  "results": [
       |${entries.mkString(",\n")}
       |  ]
       |}
       |""".stripMargin
  }

  test("GRASP planning time for n in {28, 56, 112, 196}, both mappings") {
    val rows = (for (allToAll <- Seq(true, false); n <- Sizes) yield measure(n, allToAll)) :+
      measureConcurrent(ConcurrentSize)
    rows.foreach(r => assert(r.plan.numTransfers > 0, s"${r.mapping} n=${r.n}: empty plan"))
    val out = new File(Exhibits.repoRoot, "BENCH_planner.json")
    val writer = new PrintWriter(out, "UTF-8")
    try writer.write(json(rows)) finally writer.close()
    println(s"wrote ${out.getName}")
    // The planning cost phenomenon behind the paper's Fig. 16b decline.
    val planTimes = rows.filter(r => r.mapping == "all-to-all" && (r.n == 28 || r.n == 112)).map(_.median)
    assert(planTimes.last > planTimes.head * 10,
      s"all-to-all planning cost should grow super-linearly: $planTimes")
  }
}

object BenchPlanner {
  private val Sizes = Seq(28, 56, 112, 196)
  private val RowsPerFrag = 20000
  private val KeySpace = 20000L
  private val WarmRuns = 3
  private val ConcurrentSize = 56
  private val Clients = Runtime.getRuntime.availableProcessors

  private final case class Row(mapping: String, n: Int, runs: Seq[Double], plan: AggPlan) {
    def median: Double = runs.sorted.apply(runs.size / 2)
  }
}
