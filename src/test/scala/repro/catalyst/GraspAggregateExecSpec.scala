package repro.catalyst

import java.util.concurrent.ConcurrentHashMap

import scala.jdk.CollectionConverters._

import org.apache.spark.SparkEnv
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerBlockUpdated}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.{BlockId, RDDBlockId, StorageLevel}
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}

import repro.{Oracle, SparkSpec, SynthData}
import repro.catalyst.PhasedTestKit.{assertMatchesDuck, byFragment, findExec}
import repro.core.{GraspPlanner, KeyPartitioner, Mapping, MinHasher, PlannerState, Simulator, Topology}
import repro.exec.{AggSpec, Fragments}

/** End-to-end tests of the GRASP Catalyst physical operator against DuckDB.
  * Every query result must be identical to a plain GROUP BY; the operator's
  * SQL metrics must show the similarity advantage (fewer tuples moved on
  * similar fragments).
  */
class GraspAggregateExecSpec extends SparkSpec {

  private def intValued(df: DataFrame): DataFrame =
    df.withColumn("v", round(col("v") * 100).cast("double"))

  test("physical plan contains GraspAggregateExec") {
    val df = intValued(SynthData.overlapFragments(spark, 2, 50, jaccard = 0.5, seed = 1))
    val out = Grasp.aggregate(df, "key", Seq(AggSpec.sum("v", "s")))
    assert(findExec(out.queryExecution.executedPlan).isDefined,
      out.queryExecution.executedPlan.toString)
  }

  test("SUM over similar fragments matches DuckDB") {
    val df = intValued(SynthData.overlapFragments(spark, 4, 300, jaccard = 0.75, seed = 2))
      .repartition(8, col("fragment"))
    val specs = Seq(AggSpec.sum("v", "sum_v"))
    val out = Grasp.aggregate(df, "key", specs)
    assertMatchesDuck(out, df, specs)
  }

  test("all five aggregate functions match DuckDB") {
    val df = intValued(SynthData.reviewsLike(spark, 4, 400, nUsers = 150, seed = 3))
      .repartition(6, col("fragment"))
    val specs = Seq(
      AggSpec.sum("v", "sum_v"), AggSpec.min("v", "min_v"), AggSpec.max("v", "max_v"),
      AggSpec.count("n"), AggSpec.avg("v", "avg_v"))
    val out = Grasp.aggregate(df, "key", specs)
    assertMatchesDuck(out, df, specs)
  }

  test("integer key column is supported") {
    import spark.implicits._
    val df = Seq.tabulate(500)(i => (i % 37, (i % 5).toDouble)).toDF("key", "v").repartition(4)
    val specs = Seq(AggSpec.sum("v", "s"), AggSpec.count("n"))
    val out = Grasp.aggregate(df, "key", specs)
    Oracle.assertEquivalent(out, "SELECT key, CAST(SUM(CAST(v AS DOUBLE)) AS DOUBLE) AS s, " +
      "COUNT(*) AS n FROM r GROUP BY key", "r" -> df)
  }

  test("long/int/double aggregate inputs are accepted") {
    import spark.implicits._
    val df = Seq.tabulate(300)(i => (i.toLong % 11, i.toLong, i, i.toDouble / 4))
      .toDF("key", "lv", "iv", "dv").repartition(5)
    val specs = Seq(AggSpec.sum("lv", "sl"), AggSpec.sum("iv", "si"), AggSpec.avg("dv", "ad"))
    val out = Grasp.aggregate(df, "key", specs)
    Oracle.assertEquivalent(out,
      "SELECT key, CAST(SUM(CAST(lv AS DOUBLE)) AS DOUBLE) AS sl, " +
        "CAST(SUM(CAST(iv AS DOUBLE)) AS DOUBLE) AS si, " +
        "CAST(AVG(CAST(dv AS DOUBLE)) AS DOUBLE) AS ad FROM r GROUP BY key",
      "r" -> df)
  }

  test("byte/short/float aggregate inputs are accepted") {
    import spark.implicits._
    val df = Seq.tabulate(300)(i => (i.toLong % 11, (i % 120 - 60).toByte, (i * 7).toShort, i / 4.0f))
      .toDF("key", "bv", "sv", "fv").repartition(5)
    val specs = Seq(AggSpec.sum("bv", "sb"), AggSpec.min("sv", "ms"), AggSpec.avg("fv", "af"))
    assertMatchesDuck(Grasp.aggregate(df, "key", specs), df, specs)
  }

  test("single-partition input needs no merge phases") {
    import spark.implicits._
    val df = Seq.tabulate(100)(i => (i.toLong % 9, 1.0)).toDF("key", "v").coalesce(1)
    val out = Grasp.aggregate(df, "key", Seq(AggSpec.count("n")))
    Oracle.assertEquivalent(out, "SELECT key, COUNT(*) AS n FROM r GROUP BY key", "r" -> df)
  }

  test("empty input yields an empty result") {
    import spark.implicits._
    val df = Seq.empty[(Long, Double)].toDF("key", "v")
    val out = Grasp.aggregate(df, "key", Seq(AggSpec.sum("v", "s")))
    assert(out.collect().isEmpty)
  }

  test("null keys are ignored, null values skipped by SUM but counted by COUNT(*)") {
    import spark.implicits._
    val df = Seq[(Option[Long], Option[Double])](
      (Some(1L), Some(2.0)), (Some(1L), None), (None, Some(9.0)), (Some(2L), Some(3.0)))
      .toDF("key", "v").repartition(3)
    val out = Grasp.aggregate(df, "key", Seq(AggSpec.sum("v", "s"), AggSpec.count("n")))
      .orderBy("key").collect()
    assert(out.length == 2)
    assert(out(0).getLong(0) == 1L && out(0).getDouble(1) == 2.0 && out(0).getLong(2) == 2L)
    assert(out(1).getLong(0) == 2L && out(1).getDouble(1) == 3.0 && out(1).getLong(2) == 1L)
  }

  test("metrics: similar fragments move fewer tuples than dissimilar ones") {
    def movedTuples(jaccard: Double): Long = {
      val df = intValued(SynthData.overlapFragments(spark, 8, 400, jaccard, seed = 5))
        .repartition(8, col("fragment"))
      val out = Grasp.aggregate(df, "key", Seq(AggSpec.sum("v", "s")))
      out.collect()
      findExec(out.queryExecution.executedPlan).get.metrics("tuplesMoved").value
    }
    val similar = movedTuples(1.0)
    val dissimilar = movedTuples(0.0)
    assert(similar < dissimilar, s"similar=$similar dissimilar=$dissimilar")
  }

  test("numPhases metric is populated") {
    val df = intValued(SynthData.overlapFragments(spark, 4, 100, jaccard = 0.5, seed = 6))
      .repartition(4, col("fragment"))
    val out = Grasp.aggregate(df, "key", Seq(AggSpec.sum("v", "s")))
    out.collect()
    val exec = findExec(out.queryExecution.executedPlan).get
    assert(exec.metrics("numPhases").value >= 1)
    assert(exec.metrics("numOutputRows").value == out.count())
  }

  test("planningTime metric is a timing metric set by the query") {
    val df = intValued(SynthData.overlapFragments(spark, 4, 100, jaccard = 0.5, seed = 6))
      .repartition(4, col("fragment"))
    val out = Grasp.aggregate(df, "key", Seq(AggSpec.sum("v", "s")))
    out.collect()
    val exec = findExec(out.queryExecution.executedPlan).get
    Seq("statisticsTime", "planningTime", "mergePhasesTime").foreach { name =>
      val timing = exec.metrics(name)
      assert(timing.metricType == "timing", name)
      assert(!timing.isZero, s"$name was never set")
    }
  }

  test("metrics count each phase once when Spark recomputes the query's partitions") {
    val n = 6
    val df = intValued(SynthData.overlapFragments(spark, n, 300, jaccard = 0.5, seed = 10))
    val specs = Seq(AggSpec.sum("v", "s"), AggSpec.count("c"))
    val sc = spark.sparkContext
    val persistedBefore = sc.getPersistentRDDs.keySet
    val grasp = (stats: PlannerState) =>
      new GraspPlanner(stats, Array.fill(n, n)(1.0), Mapping.allToAll(n), tupleBytes = 16.0).plan()
    val run = PhasedTestKit.runPlan(df, n, specs, KeyPartitioner.Hashed(n), Mapping.allToAll(n), grasp)
    def counts = Seq("numPhases", "tuplesMoved", "tuplesIntoDestinations").map(run.metrics(_).value)
    assertMatchesDuck(run.result, df, specs)
    val first = counts
    assert(first.head > 1, s"want several phases, got $first")
    val persisted = sc.getPersistentRDDs.filter { case (id, _) => !persistedBefore(id) }.values
    assert(persisted.nonEmpty)
    persisted.foreach(_.unpersist(blocking = true))
    // Every phase partition is computed again from the input.
    assertMatchesDuck(run.result, df, specs)
    assert(counts == first)
  }

  test("metrics: tuples moved and into destinations equal the simulator's on the same plan") {
    val n = 6
    val input = byFragment(
      intValued(SynthData.overlapFragments(spark, n, 300, jaccard = 0.5, seed = 8)), n)
    val out = Grasp.aggregate(input, "key", Seq(AggSpec.sum("v", "s")))
    out.collect()
    val exec = findExec(out.queryExecution.executedPlan).get
    // The operator's plan, rebuilt from the same statistics.
    val part = KeyPartitioner.Hashed(n)
    val mapping = Mapping.allToAll(n)
    val stats = Fragments.collectStats(input, n, part, new MinHasher())
    val plan = new GraspPlanner(stats, Array.fill(n, n)(1.0), mapping, tupleBytes = 16.0).plan()
    val data = Fragments.collectClusterData(input, n, part, preAggregated = true)
    val sim = new Simulator(Topology.uniform(n), 16.0).run(plan, data, mapping)
    assert(exec.metrics("numPhases").value == plan.numPhases)
    assert(exec.metrics("tuplesMoved").value == sim.tuplesReceived.sum)
    assert(exec.metrics("tuplesIntoDestinations").value == sim.tuplesIntoDestinations)
  }

  /** The jobs `Grasp.aggregate(input, "key", SUM(v))` runs to collect, and
    * its phase count. Job groups outlive the query, so each call uses its own.
    */
  private def jobsAndPhases(input: DataFrame): (Int, Long) = {
    val sc = spark.sparkContext
    val id = java.util.UUID.randomUUID()
    val (query, marker) = (s"grasp-query-$id", s"grasp-marker-$id")
    def inGroup[T](group: String)(body: => T): T = {
      sc.setJobGroup(group, group)
      try body finally sc.clearJobGroup()
    }
    val out = Grasp.aggregate(input, "key", Seq(AggSpec.sum("v", "s")))
    inGroup(query)(out.collect())
    // Job events reach the status store in order: once the marker job is
    // listed, every job of the query is too.
    inGroup(marker)(sc.parallelize(Seq(1)).count())
    eventually(timeout(Span(30, Seconds))) {
      assert(sc.statusTracker.getJobIdsForGroup(marker).nonEmpty)
    }
    val phases = findExec(out.queryExecution.executedPlan).get.metrics("numPhases").value
    (sc.statusTracker.getJobIdsForGroup(query).length, phases)
  }

  test("a query runs one statistics job, one merge job and one projection job") {
    val input = byFragment(
      intValued(SynthData.overlapFragments(spark, 4, 200, jaccard = 0.5, seed = 9)), 4).persist()
    input.count()
    val (jobs, phases) = jobsAndPhases(input)
    assert(phases >= 1)
    assert(jobs == 3, s"$jobs jobs for $phases phases")
    input.unpersist()
  }

  test("a plan with no phases runs no merge job") {
    val input = byFragment(
      intValued(SynthData.overlapFragments(spark, 1, 200, jaccard = 0.5, seed = 11)), 1).persist()
    input.count()
    val (jobs, phases) = jobsAndPhases(input)
    assert(phases == 0)
    assert(jobs == 2, s"$jobs jobs")
    input.unpersist()
  }

  /** The merge RDD below `rdd`, found through first dependencies. */
  private def mergeTree(rdd: RDD[_]): MergeTreeRDD = rdd match {
    case t: MergeTreeRDD => t
    case _               => mergeTree(rdd.dependencies.head.rdd)
  }

  test("a query leaves only its merge result persisted") {
    val n = 5
    val input = byFragment(
      intValued(SynthData.overlapFragments(spark, n, 200, jaccard = 0.5, seed = 12)), n).persist()
    input.count()
    val sc = spark.sparkContext
    val persistedBefore = sc.getPersistentRDDs.keySet
    val out = Grasp.aggregate(input, "key", Seq(AggSpec.sum("v", "s")))
    out.collect()
    val phases = findExec(out.queryExecution.executedPlan).get.metrics("numPhases").value
    assert(phases >= 2, "want a plan with intermediate phases")
    val left = sc.getPersistentRDDs.filter { case (id, _) => !persistedBefore(id) }.values.toSeq
    assert(left.size == 1, s"persisted after the query: $left")
    left.head match {
      case t: MergeTreeRDD => assert(t.getNumPartitions == n)
      case other           => fail(s"persisted after the query: $other, not the merge result")
    }
    left.foreach(_.unpersist(blocking = true))
    input.unpersist()
  }

  test("fragment states persisted on disk read back equal tables") {
    // The spill path: blocks of the operator's RDDs, a fragment's local
    // shares and a merged partition, written to disk and read back, as when
    // the memory store evicts them.
    val ops = new AggStateOps(Seq(AggSpec.sum("v", "s"), AggSpec.count("c")))
    def shares(f: Int): Array[StateTable] = Array.tabulate(3) { l =>
      val t = new StateTable(ops, 0)
      (0 until 500).foreach(k => t.update(f * 10000L + l * 1000L + k % 400, Array(k.toDouble, 1.0)))
      t
    }
    def merged(f: Int) =
      new MergedPartition(shares(f)(f % 3), received = 10L + f, receivedIntoDestination = f.toLong)
    def entries(t: StateTable) =
      (0 until t.size).map(i => t.key(i) -> t.states.slice(i * t.width, (i + 1) * t.width).toSeq)
    def roundTrip[T: scala.reflect.ClassTag](make: Int => T, contents: T => Any): Unit = {
      val sc = spark.sparkContext
      val onDisk = sc.parallelize(0 until 4, 4).map(make).persist(StorageLevel.DISK_ONLY)
      try {
        val expected = (0 until 4).map(f => contents(make(f)))
        assert(onDisk.map(contents).collect().toSeq == expected)
        val stored = sc.getRDDStorageInfo.find(_.id == onDisk.id)
        assert(stored.exists(i => i.numCachedPartitions == 4 && i.diskSize > 0 && i.memSize == 0), stored)
        // A second job reads every partition back from its disk block.
        assert(onDisk.map(contents).collect().toSeq == expected)
      } finally onDisk.unpersist(blocking = true)
    }
    roundTrip[Array[StateTable]](shares, _.toSeq.map(entries))
    roundTrip[MergedPartition](merged, r => (r.received, r.receivedIntoDestination, entries(r.table)))
  }

  test("a deep plan over 64 fragments matches DuckDB") {
    val n = 64
    val df = intValued(SynthData.overlapFragments(spark, n, 200, jaccard = 0.5, seed = 13))
    val specs = Seq(AggSpec.sum("v", "s"), AggSpec.count("c"))
    val out = Grasp.aggregate(byFragment(df, n), "key", specs)
    assertMatchesDuck(out, df, specs)
    assert(findExec(out.queryExecution.executedPlan).get.metrics("numPhases").value > n)
  }

  /** The persisted merge RDD of `SUM(v)` over `n` similar fragments, and
    * the number of transfers in its plan, rebuilt from the same statistics.
    */
  private def mergedQuery(n: Int): (MergeTreeRDD, Int) = {
    val input = byFragment(intValued(SynthData.overlapFragments(spark, n, 200, jaccard = 0.5, seed = 13)), n)
    val out = Grasp.aggregate(input, "key", Seq(AggSpec.sum("v", "s")))
    val merged = mergeTree(out.queryExecution.toRdd)
    val stats = Fragments.collectStats(input, n, KeyPartitioner.Hashed(n), new MinHasher())
    val plan = new GraspPlanner(stats, Array.fill(n, n)(1.0), Mapping.allToAll(n), tupleBytes = 16.0).plan()
    assert(findExec(out.queryExecution.executedPlan).get.metrics("numPhases").value == plan.numPhases)
    (merged, plan.numTransfers)
  }

  test("a merge task's partition of a 64-fragment plan serializes to under 1 KB") {
    val (merged, _) = mergedQuery(64)
    try {
      val serializer = SparkEnv.get.closureSerializer.newInstance()
      val sizes = merged.partitions.map(p => serializer.serialize(p).limit())
      assert(sizes.length == 64)
      assert(sizes.max < 1024, s"partition sizes in bytes: ${sizes.distinct.sorted.mkString(", ")}")
    } finally merged.unpersist(blocking = true)
  }

  test("a 64-fragment plan's transfer lists add at most 16 bytes per transfer to the task binary") {
    val (merged, transfers) = mergedQuery(64)
    try {
      val serializer = SparkEnv.get.closureSerializer.newInstance()
      val local = merged.dependencies.head.rdd
      val added = serializer.serialize(merged).limit() - serializer.serialize(local).limit()
      assert(transfers > 64 * 32, s"want a plan with many transfers, got $transfers")
      assert(added <= 16L * transfers + 4096, s"$added bytes for $transfers transfers")
    } finally merged.unpersist(blocking = true)
  }

  test("a 64-fragment merge result is reported at most twice the memory of the local blocks") {
    val sc = spark.sparkContext
    val memory = new ConcurrentHashMap[BlockId, java.lang.Long]()
    val listener = new SparkListener {
      override def onBlockUpdated(update: SparkListenerBlockUpdated): Unit = {
        val info = update.blockUpdatedInfo
        if (info.memSize > 0) memory.merge(info.blockId, info.memSize, (a, b) => math.max(a, b))
      }
    }
    sc.addSparkListener(listener)
    try {
      val (merged, _) = mergedQuery(64)
      try {
        // The listener bus is asynchronous: wait for every block's put.
        def reported(rdd: RDD[_]): Long = eventually(timeout(Span(30, Seconds))) {
          val sizes = memory.asScala.toSeq.collect { case (RDDBlockId(id, _), size) if id == rdd.id => size.toLong }
          assert(sizes.size == rdd.getNumPartitions, s"blocks of RDD ${rdd.id} reported so far")
          sizes.sum
        }
        val local = reported(merged.dependencies.head.rdd)
        val result = reported(merged)
        assert(result <= 2 * local, s"merge result $result bytes, local blocks $local bytes")
      } finally merged.unpersist(blocking = true)
    } finally sc.removeSparkListener(listener)
  }

  test("operator composes with downstream operators (filter + order by)") {
    val df = intValued(SynthData.overlapFragments(spark, 3, 200, jaccard = 0.5, seed = 7))
    val out = Grasp.aggregate(df, "key", Seq(AggSpec.count("n")))
      .filter(col("n") >= 2).orderBy(desc("n"), col("key")).limit(5)
    val expect = df.groupBy("key").agg(count(lit(1)) as "n")
      .filter(col("n") >= 2).orderBy(desc("n"), col("key")).limit(5)
    assert(out.collect().toSeq == expect.collect().toSeq)
  }

  test("unknown key or input column is rejected") {
    import spark.implicits._
    val df = Seq((1L, 1.0)).toDF("key", "v")
    intercept[IllegalArgumentException](Grasp.aggregate(df, "nope", Seq(AggSpec.sum("v", "s"))))
    intercept[IllegalArgumentException](Grasp.aggregate(df, "key", Seq(AggSpec.sum("w", "s"))))
    intercept[IllegalArgumentException](Grasp.aggregate(df, "key", Seq.empty))
  }

  test("GraspExtensions installs the strategy via SparkSessionExtensions") {
    val ext = new org.apache.spark.sql.SparkSessionExtensions
    new GraspExtensions().apply(ext)
    // Building the extensions object must not throw; the strategy itself is
    // exercised through Grasp.enable in every other test.
    succeed
  }
}
