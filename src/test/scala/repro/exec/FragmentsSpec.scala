package repro.exec

import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions.{col, spark_partition_id}
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}

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

  for (column <- Seq("fragment", "key"))
    test(s"a null $column is rejected, not read as 0") {
      import spark.implicits._
      val rows = Seq((Option(0), Option(1L)), (Option(1), Option(2L)))
      val df = (rows :+ (if (column == "fragment") (None, Option(0L)) else (Option(0), None)))
        .toDF("fragment", "key")
      val e1 = intercept[IllegalArgumentException](
        Fragments.collectClusterData(df, 2, KeyPartitioner.Single, preAggregated = true))
      val e2 = intercept[IllegalArgumentException](
        Fragments.collectStats(df, 2, KeyPartitioner.Single, hasher))
      Seq(e1, e2).foreach(e => assert(e.getMessage.contains(s"column $column holds a null")))
    }

  test("collection equals the collect_set oracle when fragments span Spark partitions") {
    val df = SynthData.overlapFragments(spark, 4, 600, jaccard = 0.5, dupFactor = 3, seed = 5)
      .repartition(6).persist()
    val placed = df.select(col("fragment"), col("key"), spark_partition_id() as "p").distinct()
    val spans = placed.select("fragment", "p").distinct().groupBy("fragment").count().collect().map(_.getLong(1))
    assert(spans.length == 4 && spans.forall(_ > 1), s"Spark partitions per fragment: ${spans.toSeq}")
    assert(placed.groupBy("fragment", "key").count().filter(col("count") > 1).count() > 0,
      "no key of a fragment is held by two Spark partitions")
    for (part <- Seq(KeyPartitioner.Single, KeyPartitioner.Hashed(4),
                     KeyPartitioner.Weighted(Vector(3.0, 1.0, 1.0)))) {
      val data = Fragments.collectClusterData(df, 4, part, preAggregated = true)
      val oracle = CollectSetOracle.collectClusterData(df, 4, part, preAggregated = true)
      for (v <- 0 until 4; l <- 0 until part.numPartitions) {
        assert(data(v, l).keys.sameElements(oracle(v, l).keys), s"$part ($v,$l)")
        assert(data(v, l).rawCount == oracle(v, l).rawCount, s"$part ($v,$l)")
      }
    }
    df.unpersist()
  }

  test("a frame with both a null and an out-of-range fragment reports the null") {
    import spark.implicits._
    val rows = Seq((Option(0), Option(1L)), (Option(5), Option(2L)), (None, Option(3L)))
    // One task holding every row, and one task per row with the null last.
    for (slices <- Seq(1, 3)) {
      val df = spark.createDataset(spark.sparkContext.parallelize(rows, slices)).toDF("fragment", "key")
      val e = intercept[IllegalArgumentException](
        Fragments.collectClusterData(df, 2, KeyPartitioner.Single, preAggregated = true))
      assert(e.getMessage.contains("column fragment holds a null"), s"$slices tasks: ${e.getMessage}")
    }
  }

  test("more shares than an Int share id can number are rejected before any job") {
    import spark.implicits._
    val df = Seq((0, 1L)).toDF("fragment", "key")
    val e = intercept[IllegalArgumentException](
      Fragments.collectClusterData(df, 1 << 20, KeyPartitioner.Hashed(1 << 12), preAggregated = true))
    assert(e.getMessage.contains("shares exceed an Int share id"), e.getMessage)
  }

  test("merging at least four runs per share equals the collect_set oracle") {
    val df = SynthData.overlapFragments(spark, 3, 800, jaccard = 0.5, dupFactor = 4, seed = 8)
      .repartition(16).persist()
    val runs = df.select(col("fragment"), spark_partition_id() as "p").distinct()
      .groupBy("fragment").count().collect().map(_.getLong(1))
    assert(runs.length == 3 && runs.forall(_ >= 4), s"Spark partitions per fragment: ${runs.toSeq}")
    val dupes = df.select(col("fragment"), col("key"), spark_partition_id() as "p").distinct()
      .groupBy("fragment", "key").count().filter(col("count") > 1).count()
    assert(dupes > 0, "no key of a fragment is held by two Spark partitions")
    for (part <- Seq(KeyPartitioner.Single, KeyPartitioner.Hashed(3))) {
      val data = Fragments.collectClusterData(df, 3, part, preAggregated = false)
      val oracle = CollectSetOracle.collectClusterData(df, 3, part, preAggregated = false)
      for (v <- 0 until 3; l <- 0 until part.numPartitions) {
        assert(data(v, l).keys.sameElements(oracle(v, l).keys), s"$part ($v,$l)")
        assert(data(v, l).rawCount == oracle(v, l).rawCount, s"$part ($v,$l)")
      }
    }
    df.unpersist()
  }

  test("collectClusterData runs one job of one stage") {
    val sc = spark.sparkContext
    val id = java.util.UUID.randomUUID()
    val (query, marker) = (s"fragments-query-$id", s"fragments-marker-$id")
    def inGroup[T](group: String)(body: => T): T = {
      sc.setJobGroup(group, group)
      try body finally sc.clearJobGroup()
    }
    // (job group, stages) of every job started while the listener is on.
    val jobs = new ConcurrentLinkedQueue[(String, Int)]()
    val listener = new SparkListener {
      override def onJobStart(job: SparkListenerJobStart): Unit =
        jobs.add((job.properties.getProperty("spark.jobGroup.id"), job.stageInfos.size))
    }
    val df = SynthData.overlapFragments(spark, 4, 500, jaccard = 0.5, dupFactor = 2, seed = 6)
    sc.addSparkListener(listener)
    try {
      inGroup(query)(Fragments.collectClusterData(df, 4, KeyPartitioner.Hashed(4), preAggregated = true))
      // Job events reach listeners in order: once the marker job is seen,
      // every job of the collection is too.
      inGroup(marker)(sc.parallelize(Seq(1)).count())
      eventually(timeout(Span(30, Seconds)))(assert(jobs.asScala.exists(_._1 == marker)))
    } finally sc.removeSparkListener(listener)
    assert(jobs.asScala.collect { case (`query`, stages) => stages }.toSeq == Seq(1))
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
