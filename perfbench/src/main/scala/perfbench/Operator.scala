package perfbench

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.{DataFrame, Row, functions => F}

import repro.catalyst.{Grasp, GraspAggregateExec}
import repro.exec.AggSpec

/** Where the time of one GRASP query went, from the Spark jobs it ran: the
  * statistics job, the driver gap before the first phase job (planning),
  * the phase jobs and the projection job.
  */
final case class QueryProfile(
    jobs: Int,
    localStats: Double,
    plan: Double,
    phases: Double,
    project: Double,
    phaseTaskSkew: Double,
    gc: Double,
    cpuUtil: Double,
)

/** One `Grasp.aggregate(...).collect()`: wall seconds, the result, the
  * operator's SQL metrics and, in a traced run, its job profile.
  */
final case class QueryRun(
    seconds: Double,
    result: Map[Long, Double],
    numPhases: Long,
    tuplesMoved: Long,
    outputRows: Long,
    leakedRdds: Int,
    profile: Option[QueryProfile],
)

object Operator {

  /** Repartitions `df` so that fragment `f` is exactly child partition
    * `f mod p` (a `HashPartitioner` is the identity on Int keys in [0, p)).
    */
  def byFragment(df: DataFrame, p: Int): DataFrame = {
    val ord = df.schema.fieldIndex("fragment")
    val rdd = df.rdd.map(r => (r.getInt(ord) % p, r)).partitionBy(new HashPartitioner(p)).values
    df.sparkSession.createDataFrame(rdd, df.schema)
  }

  private def toMap(rows: Array[Row]): Map[Long, Double] =
    rows.iterator.map(r => r.getLong(0) -> r.getDouble(1)).toMap

  /** Runs `SELECT key, SUM(value) ... GROUP BY key` through the GRASP
    * operator. Persisted RDDs the query leaves behind are counted and
    * released after the timing, so they do not pile up across iterations.
    */
  def run(input: DataFrame, key: String, value: String, tr: Tracer, rec: Option[JobRecorder], cores: Int): QueryRun = {
    val sc = input.sparkSession.sparkContext
    val persistedBefore = sc.getPersistentRDDs.keySet
    rec.foreach(_.take())
    val t0 = System.nanoTime()
    val (df, rows) = tr.span("catalyst.query") {
      val df = Grasp.aggregate(input, key, Seq(AggSpec.sum(value, "total")))
      (df, df.collect())
    }
    val seconds = (System.nanoTime() - t0) / 1e9
    val profile = rec.map { r =>
      val (jobs, tasks) = r.take()
      jobs.foreach(j => tr.record("catalyst.job", tr.lastId, j.startMs, j.endMs))
      profileOf(jobs, tasks, seconds, cores)
    }
    val exec = df.queryExecution.executedPlan.collectFirst { case g: GraspAggregateExec => g }
      .getOrElse(throw new IllegalStateException("no GraspAggregateExec in the executed plan"))
    val leaked = sc.getPersistentRDDs.filter { case (id, _) => !persistedBefore.contains(id) }
    leaked.values.foreach(_.unpersist(blocking = true))
    QueryRun(seconds, toMap(rows), exec.metrics("numPhases").value, exec.metrics("tuplesMoved").value,
      exec.metrics("numOutputRows").value, leaked.size, profile)
  }

  /** Spark's own `groupBy(key).sum(value)` on the same input: the oracle. */
  def native(input: DataFrame, key: String, value: String, tr: Tracer): (Double, Map[Long, Double]) = {
    val t0 = System.nanoTime()
    val rows = tr.span("ref.native")(input.groupBy(key).agg(F.sum(value)).collect())
    ((System.nanoTime() - t0) / 1e9, toMap(rows))
  }

  /** Differences between a GRASP result and the oracle's: the key sets must
    * be equal and the sums equal within 1e-9 relative.
    */
  def mismatches(got: Map[Long, Double], want: Map[Long, Double]): Seq[String] = {
    val sizes = if (got.size != want.size) Seq(s"${got.size} groups, expected ${want.size}") else Nil
    val values = want.iterator.flatMap { case (k, w) =>
      got.get(k) match {
        case None => Some(s"key $k missing")
        case Some(g) if math.abs(g - w) > 1e-9 * math.max(math.abs(g), math.abs(w)) =>
          Some(s"key $k: sum $g, expected $w")
        case _ => None
      }
    }.take(3).toSeq
    sizes ++ values
  }

  private def profileOf(jobs: Seq[JobTiming], tasks: Seq[TaskTiming], wall: Double, cores: Int): QueryProfile = {
    require(jobs.size >= 2, s"expected a statistics and a projection job, saw ${jobs.size} jobs")
    val stats = jobs.head
    val project = jobs.last
    val phases = jobs.slice(1, jobs.size - 1)
    val planEnd = phases.headOption.getOrElse(project).startMs
    val phaseStages = phases.flatMap(_.stages).toSet
    val skews = tasks.filter(t => phaseStages.contains(t.stage)).groupBy(_.stage).values.toSeq.flatMap { ts =>
      val med = Stats.median(ts.map(_.durationMs.toDouble))
      if (med > 0) Some(ts.map(_.durationMs).max / med) else None
    }
    QueryProfile(
      jobs = jobs.size,
      localStats = stats.seconds,
      plan = (planEnd - stats.endMs) / 1000.0,
      phases = phases.map(_.seconds).sum,
      project = project.seconds,
      phaseTaskSkew = if (skews.isEmpty) 1.0 else Stats.median(skews),
      gc = tasks.map(_.gcMs).sum / 1000.0,
      cpuUtil = tasks.map(_.runMs).sum / 1000.0 / (wall * cores),
    )
  }

  /** Per-layer metrics of the catalyst layer and the native reference. */
  def metrics(runs: Seq[QueryRun], nativeSeconds: Seq[Double]): Map[String, Double] = {
    val profiles = runs.flatMap(_.profile)
    require(profiles.nonEmpty, "no traced GRASP query")
    // A healthy operator leaves nothing persisted, so this is a printed
    // finding rather than a metric (a metric must never be 0).
    println(s"catalyst: each query left ${runs.map(_.leakedRdds).max} RDD(s) persisted (released after timing)")
    def med(f: QueryProfile => Double): Double = Stats.median(profiles.map(f))
    val query = Stats.median(runs.map(_.seconds))
    val native = Stats.median(nativeSeconds)
    Map(
      "catalyst.localstats_s" -> med(_.localStats),
      "catalyst.plan_s" -> med(_.plan),
      "catalyst.phases_s" -> med(_.phases),
      "catalyst.project_s" -> med(_.project),
      "catalyst.phase_task_skew" -> med(_.phaseTaskSkew),
      "catalyst.gc_s" -> med(_.gc),
      "catalyst.cpu_util" -> med(_.cpuUtil),
      "catalyst.jobs" -> profiles.head.jobs.toDouble,
      "catalyst.num_phases" -> runs.head.numPhases.toDouble,
      "catalyst.tuples_moved" -> runs.head.tuplesMoved.toDouble,
      "catalyst.output_rows" -> runs.head.outputRows.toDouble,
      "ref.native_s" -> native,
      "ref.grasp_vs_native" -> query / native,
    )
  }
}
