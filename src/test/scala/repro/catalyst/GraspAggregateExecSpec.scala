package repro.catalyst

import org.apache.spark.SparkEnv
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}

import repro.{Oracle, SparkSpec, SynthData}
import repro.catalyst.PhasedTestKit.{assertMatchesDuck, byFragment}
import repro.core.{GraspPlanner, KeyPartitioner, Mapping, PlannerState, Simulator, Topology}
import repro.exec.{AggSpec, Fragments}

/** End-to-end tests of the GRASP Catalyst physical operator against DuckDB.
  * Every query result must be identical to a plain GROUP BY; the operator's
  * SQL metrics must show the similarity advantage (fewer tuples moved on
  * similar fragments).
  */
class GraspAggregateExecSpec extends SparkSpec {

  private def intValued(df: DataFrame): DataFrame =
    df.withColumn("v", round(col("v") * 100).cast("double"))

  /** Locate the operator, descending through AQE wrappers. */
  private def findExec(plan: org.apache.spark.sql.execution.SparkPlan): Option[GraspAggregateExec] =
    plan match {
      case a: org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanExec => findExec(a.executedPlan)
      case q: org.apache.spark.sql.execution.adaptive.QueryStageExec => findExec(q.plan)
      case g: GraspAggregateExec => Some(g)
      case p => p.children.iterator.flatMap(findExec).nextOption()
    }

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
    val stats = Fragments.collectStats(input, n, part, PhasedAggregation.Hasher)
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

  test("a query leaves only its last phase persisted") {
    val input = byFragment(
      intValued(SynthData.overlapFragments(spark, 5, 200, jaccard = 0.5, seed = 12)), 5).persist()
    input.count()
    val sc = spark.sparkContext
    val persistedBefore = sc.getPersistentRDDs.keySet
    val out = Grasp.aggregate(input, "key", Seq(AggSpec.sum("v", "s")))
    out.collect()
    val phases = findExec(out.queryExecution.executedPlan).get.metrics("numPhases").value
    assert(phases >= 2, "want intermediate phases to release")
    val left = sc.getPersistentRDDs.filter { case (id, _) => !persistedBefore(id) }.values.toSeq
    assert(left.size == 1, s"persisted after the query: $left")
    // The one left is the end of a chain of `phases` phase RDDs.
    def phasesBelow(rdd: RDD[_]): Int = rdd match {
      case p: MergePhaseRDD => 1 + phasesBelow(p.dependencies.head.rdd)
      case _                => 0
    }
    assert(phasesBelow(left.head) == phases)
    left.foreach(_.unpersist(blocking = true))
    input.unpersist()
  }

  test("fragment states persisted on disk read back equal tables") {
    // The spill path: a block of the operator's RDDs written to disk and
    // read back, as when the memory store evicts a phase's block.
    val ops = new AggStateOps(Seq(AggSpec.sum("v", "s"), AggSpec.count("c")))
    def fragment(f: Int): FragmentState = {
      val shares = Array.tabulate(3) { l =>
        val t = new StateTable(ops, 0)
        (0 until 500).foreach(k => t.update(f * 10000L + l * 1000L + k % 400, Array(k.toDouble, 1.0)))
        t
      }
      new FragmentState(shares, received = 10L + f, receivedIntoDestination = f.toLong)
    }
    def entries(t: StateTable) =
      (0 until t.size).map(i => t.key(i) -> t.states.slice(i * t.width, (i + 1) * t.width).toSeq)
    def contents(s: FragmentState) = (s.received, s.receivedIntoDestination, s.shares.toSeq.map(entries))
    val sc = spark.sparkContext
    val onDisk = sc.parallelize(0 until 4, 4).map(fragment).persist(StorageLevel.DISK_ONLY)
    try {
      val expected = (0 until 4).map(f => contents(fragment(f)))
      assert(onDisk.map(contents).collect().toSeq == expected)
      val stored = sc.getRDDStorageInfo.find(_.id == onDisk.id)
      assert(stored.exists(i => i.numCachedPartitions == 4 && i.diskSize > 0 && i.memSize == 0), stored)
      // A second job reads every partition back from its disk block.
      assert(onDisk.map(contents).collect().toSeq == expected)
    } finally onDisk.unpersist(blocking = true)
  }

  test("a deep plan over 64 fragments matches DuckDB") {
    val n = 64
    val df = intValued(SynthData.overlapFragments(spark, n, 200, jaccard = 0.5, seed = 13))
    val specs = Seq(AggSpec.sum("v", "s"), AggSpec.count("c"))
    val out = Grasp.aggregate(byFragment(df, n), "key", specs)
    assertMatchesDuck(out, df, specs)
    assert(findExec(out.queryExecution.executedPlan).get.metrics("numPhases").value > n)
  }

  test("a task's partition of a 64-fragment plan's last phase serializes to under 1 KB") {
    val n = 64
    val df = intValued(SynthData.overlapFragments(spark, n, 200, jaccard = 0.5, seed = 13))
    val out = Grasp.aggregate(byFragment(df, n), "key", Seq(AggSpec.sum("v", "s")))
    def lastPhase(rdd: RDD[_]): MergePhaseRDD = rdd match {
      case p: MergePhaseRDD => p
      case _                => lastPhase(rdd.dependencies.head.rdd)
    }
    val last = lastPhase(out.queryExecution.toRdd)
    try {
      val serializer = SparkEnv.get.closureSerializer.newInstance()
      val sizes = last.partitions.map(p => serializer.serialize(p).limit())
      assert(sizes.length == n)
      assert(sizes.max < 1024, s"partition sizes in bytes: ${sizes.distinct.sorted.mkString(", ")}")
    } finally last.unpersist(blocking = true)
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
