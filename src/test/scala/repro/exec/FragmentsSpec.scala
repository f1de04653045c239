package repro.exec

import repro.SparkSpec
import repro.SynthData
import repro.core._

/** DataFrame → simulator/planner bridge. */
class FragmentsSpec extends SparkSpec {

  private val hasher = new MinHasher(numHashes = 64, seed = 3)

  test("collectClusterData recovers exact per-fragment key sets and raw counts") {
    import spark.implicits._
    val df = Seq(
      (0, 10L), (0, 10L), (0, 11L),
      (1, 10L), (1, 12L), (1, 12L), (1, 12L),
    ).toDF("fragment", "key")
    val data = Fragments.collectClusterData(df, 2, KeyPartitioner.Single, preAggregated = true)
    assert(data(0, 0).keys.toSeq == Seq(10L, 11L))
    assert(data(0, 0).rawCount == 3)
    assert(data(1, 0).keys.toSeq == Seq(10L, 12L))
    assert(data(1, 0).rawCount == 4)
  }

  test("fragments with no rows become empty shares") {
    import spark.implicits._
    val df = Seq((0, 1L)).toDF("fragment", "key")
    val data = Fragments.collectClusterData(df, 3, KeyPartitioner.Single, preAggregated = true)
    assert(data(1, 0).isEmpty && data(2, 0).isEmpty)
  }

  test("partitioned collection splits keys with the same partitioner as the driver") {
    val df = SynthData.overlapFragments(spark, 4, 500, jaccard = 0.5, seed = 1)
    val part = KeyPartitioner.Hashed(4)
    val data = Fragments.collectClusterData(df, 4, part, preAggregated = true)
    for (v <- 0 until 4; l <- 0 until 4; k <- data(v, l).keys)
      assert(part.partitionOf(k) == l)
  }

  test("fragment ids outside [0, nFragments) are rejected") {
    import spark.implicits._
    for (bad <- Seq(-1, 2)) {
      val df = Seq((0, 1L), (bad, 2L)).toDF("fragment", "key")
      val e1 = intercept[IllegalArgumentException](
        Fragments.collectClusterData(df, 2, KeyPartitioner.Single, preAggregated = true))
      val e2 = intercept[IllegalArgumentException](
        Fragments.collectStats(df, 2, KeyPartitioner.Single, hasher))
      Seq(e1, e2).foreach(e => assert(e.getMessage.contains(s"fragment $bad out of range")))
    }
  }

  test("collectStats cardinalities equal exact distinct counts") {
    val df = SynthData.overlapFragments(spark, 4, 300, jaccard = 0.25, dupFactor = 3, seed = 2)
    val part = KeyPartitioner.Hashed(2)
    val data = Fragments.collectClusterData(df, 4, part, preAggregated = true)
    val stats = Fragments.collectStats(df, 4, part, hasher)
    for (v <- 0 until 4; l <- 0 until 2)
      assert(stats.cardinality(v, l) == data(v, l).keys.length.toLong, s"($v,$l)")
  }

  test("collectStats signatures equal driver-side signatures of the exact key sets") {
    val df = SynthData.overlapFragments(spark, 3, 200, jaccard = 0.5, dupFactor = 2, seed = 3)
    val rows = df.select("fragment", "key").collect().map(r => (r.getInt(0), r.getLong(1)))
    for (part <- Seq(KeyPartitioner.Single, KeyPartitioner.Hashed(4),
                     KeyPartitioner.Weighted(Vector(3.0, 1.0, 1.0)))) {
      val stats = Fragments.collectStats(df, 3, part, hasher)
      for (v <- 0 until 3; l <- 0 until part.numPartitions) {
        val keys = rows.collect { case (`v`, k) if part.partitionOf(k) == l => k }.distinct
        assert(stats.cardinality(v, l) == keys.length.toLong, s"$part ($v,$l)")
        assert(stats.signature(v, l).sameElements(hasher.signature(keys)), s"$part ($v,$l)")
      }
    }
  }

  test("GRASP plans from Spark-collected stats complete under the simulator") {
    val df = SynthData.overlapFragments(spark, 6, 400, jaccard = 0.75, seed = 4)
    val data = Fragments.collectClusterData(df, 6, KeyPartitioner.Single, preAggregated = true)
    val stats = Fragments.collectStats(df, 6, KeyPartitioner.Single, hasher)
    val topo = Topology.uniform(6)
    val mapping = Mapping.allToOne(0)
    val plan = GraspPlanner.plan(stats, topo, mapping, tupleBytes = 16.0)
    val r = new Simulator(topo, 16.0).run(plan, data, mapping)
    assert(r.resultCardinalities(0) == data.globalCardinality(0))
  }
}
