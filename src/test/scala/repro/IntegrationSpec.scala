package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.catalyst.Grasp
import repro.catalyst.PhasedTestKit.{assertMatchesDuck, runPlan}
import repro.core._
import repro.exec.{AggSpec, Fragments}
import repro.harness.{Algorithms, Scenarios}

/** End-to-end integration: every workload generator → GRASP planning →
  * (a) simulated execution under the paper's cost model and (b) real Spark
  * execution checked against DuckDB — with both paths agreeing on the
  * tuples shipped into the destination.
  */
class IntegrationSpec extends SparkSpec {

  private val hasher = new MinHasher(numHashes = 64, seed = 29)
  private val W = 16.0

  private def intValued(df: DataFrame): DataFrame =
    df.withColumn("v", round(col("v") * 100).cast("double"))

  private def endToEnd(name: String, df0: DataFrame, nFrags: Int): Unit = {
    val df = intValued(df0)
    val mapping = Mapping.allToOne(0)
    val topo = Topology.uniform(nFrags)
    val data = Fragments.collectClusterData(df, nFrags, KeyPartitioner.Single, preAggregated = true)
    val stats = Fragments.collectStats(df, nFrags, KeyPartitioner.Single, hasher)
    val plan = GraspPlanner.plan(stats, topo, mapping, W)
    val sim = new Simulator(topo, W).run(plan, data, mapping)
    assert(sim.resultCardinalities(0) == data.globalCardinality(0), s"$name: keys lost")
    val specs = Seq(AggSpec.sum("v", "sum_v"))
    val ex = runPlan(df, nFrags, specs, KeyPartitioner.Single, mapping, _ => plan)
    assert(ex.tuplesIntoDestinations == sim.tuplesIntoDestinations,
      s"$name: simulator (${sim.tuplesIntoDestinations}) vs executor " +
        s"(${ex.tuplesIntoDestinations}) disagree")
    assert(ex.tuplesMoved == sim.tuplesReceived.sum,
      s"$name: simulator (${sim.tuplesReceived.sum}) vs executor (${ex.tuplesMoved}) moved")
    assertMatchesDuck(ex.result, df, specs)
  }

  test("end-to-end: overlapFragments workload") {
    endToEnd("overlap", SynthData.overlapFragments(spark, 5, 300, jaccard = 0.6), 5)
  }

  test("end-to-end: uniformFragments workload") {
    endToEnd("uniform", SynthData.uniformFragments(spark, 4, 400, keySpace = 800), 4)
  }

  test("end-to-end: modisLike workload") {
    endToEnd("modis", SynthData.modisLike(spark, 8, 24, 200, 2000, revisitLag = 4), 8)
  }

  test("end-to-end: reviewsLike workload") {
    endToEnd("reviews", SynthData.reviewsLike(spark, 4, 400, nUsers = 600), 4)
  }

  test("end-to-end: TPC-H Q18 workload") {
    endToEnd("tpch", SynthData.tpchQ18Fragments(spark, 4, sf = 0.002), 4)
  }

  test("all four §5.1.1 algorithms agree on the final result (all-to-all)") {
    val df = intValued(SynthData.uniformFragments(spark, 4, 500, keySpace = 700))
    val part = KeyPartitioner.Hashed(4)
    val mapping = Mapping.allToAll(4)
    val stats = Fragments.collectStats(df, 4, part, hasher)
    val topo = Topology.uniform(4)
    val specs = Seq(AggSpec.sum("v", "s"), AggSpec.count("n"))
    val plans = Seq(
      "grasp" -> GraspPlanner.plan(stats, topo, mapping, W),
      "repart" -> RepartPlanner.plan(stats, mapping))
    val results = plans.map { case (n, p) =>
      n -> runPlan(df, 4, specs, part, mapping, _ => p).result
        .orderBy("key").collect().toSeq
    }
    assert(results(0)._2 == results(1)._2, "GRASP and Repart disagree")
  }

  test("harness speedups are consistent with raw seconds") {
    val df = SynthData.overlapFragments(spark, 4, 200, jaccard = 0.5)
    val sc = Scenarios.fromDataFrame("c", df, Topology.uniform(4), Mapping.allToOne(0),
      KeyPartitioner.Single)
    val r = Algorithms.runAll(sc)
    assert(math.abs(r.speedupOverPreagg(r.grasp) -
      r.preaggRepart.seconds / r.grasp.seconds) < 1e-12)
    assert(r.speedupOverPreagg(r.preaggRepart) == 1.0)
  }

  test("catalyst operator agrees with DuckDB") {
    val df = intValued(SynthData.overlapFragments(spark, 4, 250, jaccard = 0.75, seed = 31))
      .repartition(4, col("fragment"))
    val specs = Seq(AggSpec.sum("v", "sum_v"))
    assertMatchesDuck(Grasp.aggregate(df, "key", specs), df, specs)
  }
}
