package repro.exec

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{SparkSpec, SynthData}
import repro.catalyst.PhasedTestKit.{assertMatchesDuck, runPlan}
import repro.core._

/** Executing GRASP/LOOM/Repart plans with the plan executor,
  * `catalyst.PhasedAggregation.execute`, must produce exactly the same
  * GROUP BY result as a plain aggregation — checked against DuckDB so a
  * broken merge order or lost share is caught.
  */
class PlanExecutorSpec extends SparkSpec {

  private val hasher = new MinHasher(numHashes = 64, seed = 17)
  private val W = 16.0

  /** Integer-valued `v` so that double sums are exact in any merge order. */
  private def intValued(df: DataFrame): DataFrame =
    df.withColumn("v", round(col("v") * 100).cast("double"))

  private def grasp(nFrags: Int, mapping: Mapping) = (stats: PlannerState) =>
    GraspPlanner.plan(stats, Topology.uniform(nFrags), mapping, W)

  test("GRASP plan, all-to-one, SUM: result matches DuckDB") {
    val df = intValued(SynthData.overlapFragments(spark, 4, 240, jaccard = 0.5, seed = 5))
    val mapping = Mapping.allToOne(0)
    val plan = GraspPlanner.plan(Fragments.collectStats(df, 4, KeyPartitioner.Single, hasher),
      Topology.uniform(4), mapping, W)
    val specs = Seq(AggSpec.sum("v", "sum_v"))
    val r = runPlan(df, 4, specs, KeyPartitioner.Single, mapping, _ => plan)
    assertMatchesDuck(r.result, df, specs)
    assert(r.phases == plan.numPhases)
  }

  test("GRASP plan, all-to-all, SUM + COUNT: result matches DuckDB") {
    val df = intValued(SynthData.overlapFragments(spark, 4, 300, jaccard = 0.75, seed = 6))
    val specs = Seq(AggSpec.sum("v", "sum_v"), AggSpec.count("n"))
    val r = runPlan(df, 4, specs, KeyPartitioner.Hashed(4), Mapping.allToAll(4),
      grasp(4, Mapping.allToAll(4)))
    assertMatchesDuck(r.result, df, specs)
  }

  test("MIN / MAX / AVG aggregates merge correctly through phases") {
    val df = intValued(SynthData.overlapFragments(spark, 4, 200, jaccard = 1.0, seed = 7))
    val specs = Seq(AggSpec.min("v", "min_v"), AggSpec.max("v", "max_v"), AggSpec.avg("v", "avg_v"))
    val r = runPlan(df, 4, specs, KeyPartitioner.Single, Mapping.allToOne(1),
      grasp(4, Mapping.allToOne(1)))
    assert(r.phases >= 1)
    assertMatchesDuck(r.result, df, specs)
  }

  test("LOOM plan executes to the same result") {
    val df = intValued(SynthData.overlapFragments(spark, 6, 150, jaccard = 0.5, seed = 8))
    val data = Fragments.collectClusterData(df, 6, KeyPartitioner.Single, preAggregated = true)
    val stats = Fragments.collectStats(df, 6, KeyPartitioner.Single, hasher)
    val plan = LoomPlanner.plan(stats, Topology.uniform(6), 0, data.globalCardinality(0), W)
    val specs = Seq(AggSpec.sum("v", "sum_v"))
    val r = runPlan(df, 6, specs, KeyPartitioner.Single, Mapping.allToOne(0), _ => plan)
    assertMatchesDuck(r.result, df, specs)
  }

  test("Repart plan executes to the same result") {
    val df = intValued(SynthData.overlapFragments(spark, 5, 120, jaccard = 0.25, seed = 9))
    val specs = Seq(AggSpec.sum("v", "sum_v"), AggSpec.count("n"))
    val r = runPlan(df, 5, specs, KeyPartitioner.Single, Mapping.allToOne(2),
      RepartPlanner.plan(_, Mapping.allToOne(2)))
    assertMatchesDuck(r.result, df, specs)
  }

  test("tuples moved: GRASP ships fewer tuples into the destination than Repart") {
    val df = intValued(SynthData.overlapFragments(spark, 6, 300, jaccard = 1.0, seed = 10))
    val mapping = Mapping.allToOne(0)
    val specs = Seq(AggSpec.sum("v", "sum_v"))
    val g = runPlan(df, 6, specs, KeyPartitioner.Single, mapping, grasp(6, mapping))
    val repart = runPlan(df, 6, specs, KeyPartitioner.Single, mapping, RepartPlanner.plan(_, mapping))
    assert(g.tuplesIntoDestinations < repart.tuplesIntoDestinations,
      s"grasp=${g.tuplesIntoDestinations} repart=${repart.tuplesIntoDestinations}")
    assertMatchesDuck(g.result, df, specs)
  }

  test("executor counts match the simulator's transfer accounting") {
    val df = intValued(SynthData.overlapFragments(spark, 5, 200, jaccard = 0.5, seed = 11))
    val mapping = Mapping.allToOne(0)
    val data = Fragments.collectClusterData(df, 5, KeyPartitioner.Single, preAggregated = true)
    val stats = Fragments.collectStats(df, 5, KeyPartitioner.Single, hasher)
    val topo = Topology.uniform(5)
    val plan = GraspPlanner.plan(stats, topo, mapping, W)
    val sim = new Simulator(topo, W).run(plan, data, mapping)
    val ex = runPlan(df, 5, Seq(AggSpec.sum("v", "s")), KeyPartitioner.Single, mapping, _ => plan)
    assert(ex.tuplesIntoDestinations == sim.tuplesIntoDestinations)
    assert(ex.tuplesMoved == sim.tuplesReceived.sum)
  }

  test("tpchQ18Fragments executes the paper's Q18 subquery correctly") {
    val df = SynthData.tpchQ18Fragments(spark, 4, sf = 0.002, seed = 1)
    val specs = Seq(AggSpec.sum("v", "sum_quantity"))
    val r = runPlan(df, 4, specs, KeyPartitioner.Single, Mapping.allToOne(0),
      grasp(4, Mapping.allToOne(0)))
    assertMatchesDuck(r.result, df, specs)
  }
}
