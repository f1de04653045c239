package repro.exec

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{SparkSpec, SynthData}
import repro.catalyst.PhasedTestKit.{assertMatchesDuck, runPlan}
import repro.core._

/** Edge cases of the plan executor, `catalyst.PhasedAggregation.execute`. */
class PlanExecutorEdgeSpec extends SparkSpec {

  private def grasp(nFrags: Int, mapping: Mapping) = (stats: PlannerState) =>
    GraspPlanner.plan(stats, Topology.uniform(nFrags), mapping, 16.0)

  /** The executor and the simulator both reject `plan`, an all-to-one plan
    * into fragment 0 over the 3 fragments of `df`, with `msg`.
    */
  private def assertRejected(df: DataFrame, plan: AggPlan, msg: String): Unit = {
    val mapping = Mapping.allToOne(0)
    val data = Fragments.collectClusterData(df, 3, KeyPartitioner.Single, preAggregated = true)
    val simulated = intercept[IllegalArgumentException] {
      new Simulator(Topology.uniform(3), 16.0).run(plan, data, mapping)
    }
    val executed = intercept[IllegalArgumentException] {
      runPlan(df, 3, Seq(AggSpec.sum("v", "s"), AggSpec.count("n")), KeyPartitioner.Single, mapping,
        _ => plan)
    }
    Seq(simulated, executed).foreach(e => assert(e.getMessage.contains(msg), e.getMessage))
  }

  test("empty plan is valid when all data already sits at its destination") {
    import spark.implicits._
    // Only fragment 0 has data and fragment 0 is the destination.
    val df = Seq((0, 1L, 2.0), (0, 1L, 3.0), (0, 2L, 4.0)).toDF("fragment", "key", "v")
    val specs = Seq(AggSpec.sum("v", "s"))
    val r = runPlan(df, 2, specs, KeyPartitioner.Single, Mapping.allToOne(0), _ => AggPlan(Vector.empty))
    assert(r.tuplesMoved == 0)
    assertMatchesDuck(r.result, df, specs)
  }

  test("incomplete plans are rejected by the completion check") {
    import spark.implicits._
    val df = Seq((0, 1L, 1.0), (1, 2L, 1.0), (2, 3L, 1.0)).toDF("fragment", "key", "v")
    val halfway = AggPlan(Vector(Phase(Vector(Transfer(2, 0, 0)))))
    assertRejected(df, halfway, "fragment 1 still holds partition 0")
  }

  test("transfers from an empty share are rejected") {
    import spark.implicits._
    val df = Seq((0, 1L, 1.0), (1, 2L, 1.0)).toDF("fragment", "key", "v")
    val plan = AggPlan(Vector(Phase(Vector(Transfer(2, 0, 0), Transfer(1, 0, 0)))))
    assertRejected(df, plan, "2->0[l=0]: sender share is empty")
  }

  test("a share sent to two receivers in one phase is rejected") {
    import spark.implicits._
    // Applied, the plan would merge fragment 2's share twice into fragment
    // 0: SUM 211.0 and COUNT 4 for key 1, where 111.0 and 3 are right.
    val df = Seq((0, 1L, 1.0), (1, 1L, 10.0), (2, 1L, 100.0)).toDF("fragment", "key", "v")
    val plan = AggPlan(Vector(
      Phase(Vector(Transfer(2, 0, 0), Transfer(2, 1, 0))),
      Phase(Vector(Transfer(1, 0, 0)))))
    assertRejected(df, plan, "2->1[l=0]: share already sent in the same phase")
  }

  test("two partitions mapped to one destination execute correctly") {
    val df = SynthData.uniformFragments(spark, 3, 300, keySpace = 500)
      .withColumn("v", round(col("v") * 10).cast("double"))
    val mapping = Mapping(Vector(2, 2))
    val specs = Seq(AggSpec.count("n"))
    val r = runPlan(df, 3, specs, KeyPartitioner.Hashed(2), mapping, grasp(3, mapping))
    assertMatchesDuck(r.result, df, specs)
  }

  test("multi-phase merge keeps AVG exact across uneven fragment sizes") {
    import spark.implicits._
    val rows = (1 to 500).map(i => ((i % 5), (i % 17).toLong, (i % 7).toDouble))
    val df = rows.toDF("fragment", "key", "v")
    val specs = Seq(AggSpec.avg("v", "a"))
    val r = runPlan(df, 5, specs, KeyPartitioner.Single, Mapping.allToOne(3),
      grasp(5, Mapping.allToOne(3)))
    assert(r.phases >= 2, "want a multi-phase plan for this test")
    assertMatchesDuck(r.result, df, specs)
  }

  test("arriving tables merge in ascending source order, whatever the plan's order") {
    import spark.implicits._
    // One Repart phase into fragment 0, its transfers listed in descending
    // source order. 1e16 + 1.0 rounds back to 1e16, so the sum reads 0.0
    // only when fragment 1's value is added before fragment 2's.
    val df = Seq((0, 7L, 1e16), (1, 7L, 1.0), (2, 7L, -1e16)).toDF("fragment", "key", "v")
    val repart = AggPlan(Vector(Phase(Vector(Transfer(2, 0, 0), Transfer(1, 0, 0)))))
    val r = runPlan(df, 3, Seq(AggSpec.sum("v", "s")), KeyPartitioner.Single, Mapping.allToOne(0),
      _ => repart)
    val sums = r.result.collect().map(_.getDouble(1))
    assert(sums.toSeq == Seq((1e16 + 1.0) + -1e16), sums.mkString(", "))
    assert(sums.head == 0.0)
  }

  test("a fragment that sends and receives a partition in one phase") {
    import spark.implicits._
    val df = (0 until 90).map(i => (i % 3, (i % 11).toLong, (i % 7).toDouble)).toDF("fragment", "key", "v")
    // Phase 1: fragment 1 sends its share to 0 while it receives 2's, which
    // it would pass on to 0 in phase 2.
    val plan = AggPlan(Vector(
      Phase(Vector(Transfer(1, 0, 0), Transfer(2, 1, 0))),
      Phase(Vector(Transfer(1, 0, 0)))))
    assertRejected(df, plan, "2->1[l=0]: receiver also sends partition 0 in the same phase")
  }

  test("executor requires at least one aggregate") {
    import spark.implicits._
    val df = Seq((0, 1L, 1.0)).toDF("fragment", "key", "v")
    intercept[IllegalArgumentException] {
      runPlan(df, 1, Seq.empty, KeyPartitioner.Single, Mapping.allToOne(0), _ => AggPlan(Vector.empty))
    }
  }
}
