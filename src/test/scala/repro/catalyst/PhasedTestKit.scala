package repro.catalyst

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.metric.SQLMetric
import org.apache.spark.sql.types.{StructField, StructType}

import repro.Oracle
import repro.core.{AggPlan, KeyPartitioner, Mapping, PlannerState}
import repro.exec.{AggFunc, AggSpec}

/** Runs [[PhasedAggregation.execute]] over `(fragment, key, …)` frames, and
  * builds the DuckDB query every aggregation result is checked against.
  */
object PhasedTestKit {

  final case class Result(
      result: DataFrame,
      tuplesMoved: Long,
      tuplesIntoDestinations: Long,
      phases: Long,
      metrics: Map[String, SQLMetric],
  )

  /** `df` with fragment `f` as partition `f` of `nFragments`, so that the
    * key sets `Fragments.collectClusterData` collects, and the statistics
    * `collectStats` takes from them, describe the fragments the executor
    * merges.
    */
  def byFragment(df: DataFrame, nFragments: Int): DataFrame = {
    val ord = df.schema.fieldIndex("fragment")
    val rows = df.rdd.map { r =>
      val f = r.getInt(ord)
      require(f >= 0 && f < nFragments, s"fragment $f out of range")
      f -> r
    }.partitionBy(new HashPartitioner(nFragments)).values
    df.sparkSession.createDataFrame(rows, df.schema)
  }

  /** `SELECT key, specs FROM df GROUP BY key`, merged in the phases `plan`
    * makes from the executor's statistics.
    */
  def runPlan(
      df: DataFrame,
      nFragments: Int,
      specs: Seq[AggSpec],
      partitioner: KeyPartitioner,
      mapping: Mapping,
      plan: PlannerState => AggPlan,
  ): Result = {
    val input = byFragment(df, nFragments)
    val spark = df.sparkSession
    val metrics = PhasedAggregation.metrics(spark.sparkContext)
    val out = PhasedAggregation.execute(input.queryExecution.toRdd, input.schema, "key", specs,
      partitioner, mapping, plan, metrics)
    val schema = StructType(
      input.schema("key") +: specs.map(s => StructField(s.alias, GraspAggregate.resultType(s))))
    val types = schema.map(_.dataType).toArray
    val rows = out.map(r => Row.fromSeq(types.indices.map(i => r.get(i, types(i)))))
    Result(spark.createDataFrame(rows, schema), metrics("tuplesMoved").value,
      metrics("tuplesIntoDestinations").value, metrics("numPhases").value, metrics)
  }

  /** The operator in `plan`, found through AQE wrappers. */
  def findExec(plan: SparkPlan): Option[GraspAggregateExec] = plan match {
    case a: AdaptiveSparkPlanExec => findExec(a.executedPlan)
    case q: QueryStageExec        => findExec(q.plan)
    case g: GraspAggregateExec    => Some(g)
    case p                        => p.children.iterator.flatMap(findExec).nextOption()
  }

  /** DuckDB's `SELECT key, specs FROM r GROUP BY key`, with every aggregate
    * but COUNT(*) as DOUBLE, as the executor returns it.
    */
  private def duckSql(specs: Seq[AggSpec]): String = {
    val aggs = specs.map {
      case AggSpec(AggFunc.Sum, in, al)  => s"CAST(SUM(CAST($in AS DOUBLE)) AS DOUBLE) AS $al"
      case AggSpec(AggFunc.Min, in, al)  => s"CAST(MIN(CAST($in AS DOUBLE)) AS DOUBLE) AS $al"
      case AggSpec(AggFunc.Max, in, al)  => s"CAST(MAX(CAST($in AS DOUBLE)) AS DOUBLE) AS $al"
      case AggSpec(AggFunc.Count, _, al) => s"COUNT(*) AS $al"
      case AggSpec(AggFunc.Avg, in, al)  => s"CAST(AVG(CAST($in AS DOUBLE)) AS DOUBLE) AS $al"
    }.mkString(", ")
    s"SELECT key, $aggs FROM r GROUP BY key"
  }

  def assertMatchesDuck(result: DataFrame, df: DataFrame, specs: Seq[AggSpec]): Unit =
    Oracle.assertEquivalent(result, duckSql(specs), "r" -> df)
}
