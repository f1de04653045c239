package perfbench

import java.util.concurrent.atomic.AtomicReference

import scala.collection.mutable.ArrayBuffer
import scala.util.Try

import org.apache.spark.sql.{DataFrame, SparkSession, functions => F}
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.types.{IntegerType, LongType}

import repro.SynthData
import repro.core._
import repro.exec.Fragments
import repro.harness.{Algorithms, Scenario, Scenarios}

/** What the benchmark was asked to run. `toy` selects the self-test sizes;
  * `unpermuted` keeps MODIS fragment ids as generated.
  */
final case class Ctx(spark: SparkSession, seed: Long, toy: Boolean, unpermuted: Boolean, cores: Int)

/** One timed operation: the wall seconds of each timed call it made (one,
  * except fig15-plan's one per planning client), the correctness problems
  * its checks found, and the exact counts that must repeat across
  * operations (they include the end-to-end `sim_speedup` and `dest_tuples`).
  */
final case class Op(seconds: Seq[Double], problems: Seq[String], counts: Map[String, Double])

/** A workload: a cached input built by `setup`, one closed-loop operation,
  * and the per-layer probes of a traced run. `layers` returns the problems
  * its own checks found together with every per-layer metric.
  */
trait Workload {
  def setup(tr: Tracer): Unit
  def release(): Unit
  def prepare(tr: Tracer): Unit = ()
  def op(tr: Tracer, rec: Option[JobRecorder]): Op
  def layers(tr: Tracer, rec: JobRecorder): (Seq[String], Map[String, Double])
}

object Workload {
  val Names: Seq[String] = Seq("q18-operator", "fig15-plan", "modis-pipeline")

  def apply(name: String, ctx: Ctx): Workload = name match {
    case "q18-operator"   => new Q18Operator(ctx)
    case "fig15-plan"     => new Fig15Plan(ctx)
    case "modis-pipeline" => new ModisPipeline(ctx)
    case other => throw new IllegalArgumentException(s"unknown workload '$other' (one of ${Names.mkString(", ")})")
  }

  /** Fragments per machine in the paper's §5.3 cluster. */
  val PerMachine = 14

  /** Child partitions of the operator runs on the fig15 and MODIS inputs. */
  def probePartitions(ctx: Ctx): Int = if (ctx.toy) 4 else 16

  /** `Grasp.aggregate` over a `(fragment, key, v)` input with fragment `f`
    * on child partition `f mod p`: one warm-up query, one traced query and
    * the native oracle.
    */
  def operatorProbe(df: DataFrame, ctx: Ctx, tr: Tracer, rec: JobRecorder): (Seq[String], Map[String, Double]) = {
    val input = Operator.byFragment(df.select("fragment", "key", "v"), probePartitions(ctx)).persist()
    input.count()
    tr.on = false
    Operator.run(input, "key", "v", tr, None, ctx.cores)
    tr.on = true
    val run = Operator.run(input, "key", "v", tr, Some(rec), ctx.cores)
    val (nativeSeconds, want) = Operator.native(input, "key", "v", tr)
    input.unpersist(blocking = true)
    Operator.mismatches(run.result, want) -> Operator.metrics(Seq(run), Seq(nativeSeconds))
  }

  def globalCardinalities(data: ClusterData): IndexedSeq[Long] =
    (0 until data.numPartitions).map(data.globalCardinality)

  def uniformBandwidth(n: Int): Array[Array[Double]] = Array.fill(n, n)(1.0)
}

/** `Grasp.aggregate(lineitem, "l_orderkey", SUM(l_quantity))`, TPC-H Q18's
  * subquery, on `SynthData.lineitem` at SF 0.1 (600,000 rows, order keys
  * uniform over 150,000, quantities 1-50) with a seeded supplier key over
  * 1,000 suppliers. Rows go to fragment `hash(seed, l_suppkey) mod p`, and
  * each fragment is one cached child partition.
  */
final class Q18Operator(ctx: Ctx) extends Workload {
  import ctx.spark

  private val p = if (ctx.toy) 4 else 16
  private val sf = if (ctx.toy) 0.01 else 0.1
  // TPC-H has 10,000 suppliers per unit of scale factor.
  private val suppliers = (10000 * sf).toLong

  private var input: DataFrame = _
  private var expected: Map[Long, Double] = _
  private var scenario: Scenario = _
  private var plan: AggPlan = _
  private var globalCard: IndexedSeq[Long] = _
  private var simProblems: Seq[String] = Nil
  private var simCounts: Map[String, Double] = Map.empty
  private val runs = ArrayBuffer.empty[QueryRun]
  private val natives = ArrayBuffer.empty[Double]

  private def fragmentKeys: DataFrame = input.select(col("fragment"), col("l_orderkey").as("key"))

  override def setup(tr: Tracer): Unit = {
    val lineitem = SynthData.lineitem(spark, sf, ctx.seed)
      .withColumn("l_suppkey", (F.rand(ctx.seed + 10) * suppliers + 1).cast(LongType))
    val fragmented = lineitem.select(
      F.pmod(F.xxhash64(col("l_suppkey"), lit(ctx.seed)), lit(p)).cast(IntegerType).as("fragment"),
      col("l_orderkey"), col("l_quantity"))
    input = Operator.byFragment(fragmented, p).persist()
    input.count()
  }

  override def release(): Unit = input.unpersist(blocking = true)

  /** The oracle result, and the operator's plan rebuilt outside it from the
    * same statistics (hasher seed 42, `KeyPartitioner.Hashed(p)`, uniform
    * bandwidth), simulated for the plan-quality metrics.
    */
  override def prepare(tr: Tracer): Unit = {
    expected = Operator.native(input, "l_orderkey", "l_quantity", new Tracer(false))._2
    val part = KeyPartitioner.Hashed(p)
    val data = tr.span("exec.fragments.clusterdata")(
      Fragments.collectClusterData(fragmentKeys, p, part, preAggregated = true))
    val stats = tr.span("exec.fragments.stats")(Fragments.collectStats(fragmentKeys, p, part, new MinHasher()))
    scenario = Scenario("q18", Topology.uniform(p), Mapping.allToAll(p), data, stats, Scenarios.TupleBytes, None)
    plan = new GraspPlanner(stats, Workload.uniformBandwidth(p), scenario.mapping, scenario.tupleBytes).plan()
    globalCard = Workload.globalCardinalities(data)
    val (problems, counts) = Probes.check(scenario, plan, globalCard)
    simProblems = problems
    simCounts = counts
  }

  override def op(tr: Tracer, rec: Option[JobRecorder]): Op = {
    val run = Operator.run(input, "l_orderkey", "l_quantity", tr, rec, ctx.cores)
    if (tr.on) {
      runs += run
      natives += Operator.native(input, "l_orderkey", "l_quantity", tr)._1
    }
    val inconsistent = Seq(
      Option.when(run.numPhases != plan.numPhases)(
        s"operator ran ${run.numPhases} phases, the rebuilt plan has ${plan.numPhases}"),
      Option.when(run.tuplesMoved != simCounts("sim.tuples_received").toLong)(
        s"operator moved ${run.tuplesMoved} tuples, the simulated plan ${simCounts("sim.tuples_received").toLong}"),
    ).flatten
    Op(Seq(run.seconds), Operator.mismatches(run.result, expected) ++ simProblems ++ inconsistent,
      simCounts ++ Map(
        "catalyst.num_phases" -> run.numPhases.toDouble,
        "catalyst.tuples_moved" -> run.tuplesMoved.toDouble,
        "catalyst.output_rows" -> run.outputRows.toDouble))
  }

  override def layers(tr: Tracer, rec: JobRecorder): (Seq[String], Map[String, Double]) = {
    val oneStats = Fragments.collectStats(fragmentKeys, p, KeyPartitioner.Single, new MinHasher())
    val (_, planner) = Probes.planner(tr, scenario, Workload.uniformBandwidth(p), reps = 5)
    Nil -> (Operator.metrics(runs.toSeq, natives.toSeq) ++ planner ++
      Probes.minhash(tr, scenario.data, scenario.stats) ++
      Probes.loom(tr, oneStats, scenario.topo, globalCard.sum, scenario.tupleBytes, reps = 5) ++
      Probes.simulator(tr, scenario, plan, reps = 3) ++
      Probes.fragments(tr) ++ Probes.harness(tr, scenario))
  }
}

/** `GraspPlanner.plan()` on the all-to-all statistics of Fig. 15's uniform
  * workload: 4 machines x 14 fragments, 20,000 rows per fragment drawn from
  * 20,000 keys. One operation is a round of `cores` concurrent plans of the
  * same statistics, one per client thread, each timed on its own. The
  * planner is single-threaded, and on a shared host each vCPU's speed
  * drifts for tens of seconds at a time, so a single client would sample
  * one vCPU while a round samples all of them. The plans must be identical;
  * one is simulated (untimed) and priced against Preagg+Repart.
  */
final class Fig15Plan(ctx: Ctx) extends Workload {
  private val machines = if (ctx.toy) 1 else 4
  private val n = machines * Workload.PerMachine
  private val rowsPerFrag = if (ctx.toy) 5000 else 20000

  private var df: DataFrame = _
  private var scenario: Scenario = _
  private var bandwidth: Array[Array[Double]] = _
  private var globalCard: IndexedSeq[Long] = _

  override def setup(tr: Tracer): Unit = {
    df = SynthData.uniformFragments(ctx.spark, n, rowsPerFrag, keySpace = rowsPerFrag.toLong, seed = ctx.seed).persist()
    val part = KeyPartitioner.Hashed(n)
    val data = tr.span("exec.fragments.clusterdata")(
      Fragments.collectClusterData(df, n, part, preAggregated = true))
    val stats = tr.span("exec.fragments.stats")(Fragments.collectStats(df, n, part, new MinHasher()))
    val topo = Topology.colocated(machines, Workload.PerMachine)
    scenario = Scenario("fig15-all", topo, Mapping.allToAll(n), data, stats, Scenarios.TupleBytes, None)
    bandwidth = topo.bandwidthMatrix
    globalCard = Workload.globalCardinalities(data)
  }

  override def release(): Unit = df.unpersist(blocking = true)

  private def timedPlan(): (AggPlan, Double) =
    Stats.seconds(new GraspPlanner(scenario.stats, bandwidth, scenario.mapping, scenario.tupleBytes).plan())

  override def op(tr: Tracer, rec: Option[JobRecorder]): Op = {
    // The other clients run untraced, so spans stay on this thread.
    val others = Seq.fill(ctx.cores - 1) {
      val result = new AtomicReference[Try[(AggPlan, Double)]]()
      val thread = new Thread(() => result.set(Try(timedPlan())), "perfbench-planner")
      thread.start()
      thread -> result
    }
    val mine = Try(tr.span("core.planner.plan")(timedPlan()))
    others.foreach(_._1.join())
    val plans = (mine +: others.map(_._2.get)).map(_.get)
    val plan = plans.head._1
    val (problems, counts) = Probes.check(scenario, plan, globalCard)
    val differing = plans.count(_._1 != plan)
    Op(plans.map(_._2), problems ++ Option.when(differing > 0)(
      s"$differing of ${plans.size} concurrent plans differ from the checked one"), counts)
  }

  override def layers(tr: Tracer, rec: JobRecorder): (Seq[String], Map[String, Double]) = {
    val oneStats = Fragments.collectStats(df, n, KeyPartitioner.Single, new MinHasher())
    val (plan, planner) = Probes.planner(tr, scenario, bandwidth, reps = 1)
    val (problems, catalyst) = Workload.operatorProbe(df, ctx, tr, rec)
    problems -> (catalyst ++ planner ++
      Probes.minhash(tr, scenario.data, scenario.stats) ++
      Probes.loom(tr, oneStats, scenario.topo, globalCard.sum, scenario.tupleBytes, reps = 5) ++
      Probes.simulator(tr, scenario, plan, reps = 3) ++
      Probes.fragments(tr) ++ Probes.harness(tr, scenario))
  }
}

/** Table 2's MODIS scenario, all-to-one over 8 machines x 14 fragments,
  * with fragment ids permuted by the seed. The timed operation is the
  * reproduction pipeline: ground truth and statistics from the cached
  * DataFrame, then `Algorithms.runAll`.
  */
final class ModisPipeline(ctx: Ctx) extends Workload {
  private val machines = if (ctx.toy) 2 else 8
  private val n = machines * Workload.PerMachine
  private val cellsPerFile = if (ctx.toy) 1500 else 6000
  // Three files per fragment as in Table 2; the toy size takes two, since
  // the file count must be a multiple of the revisit lag (8).
  private val nFiles = n * (if (ctx.toy) 2 else 3)
  private val grid = math.max(1L, (nFiles.toLong * cellsPerFile / 4.6).toLong)
  private val topo = Topology.colocated(machines, Workload.PerMachine)
  private val fragmentIds: Seq[Int] =
    if (ctx.unpermuted) 0 until n else new scala.util.Random(ctx.seed).shuffle((0 until n).toVector)

  private var df: DataFrame = _
  private var scenario: Scenario = _

  override def setup(tr: Tracer): Unit = {
    df = SynthData.modisLike(ctx.spark, n, nFiles, cellsPerFile, grid)
      .withColumn("fragment", F.element_at(F.typedLit(fragmentIds), col("fragment") + 1))
      .persist()
    df.count()
  }

  override def release(): Unit = df.unpersist(blocking = true)

  override def op(tr: Tracer, rec: Option[JobRecorder]): Op = {
    val ((sc, results), seconds) = Stats.seconds {
      val data = tr.span("exec.fragments.clusterdata")(
        Fragments.collectClusterData(df, n, KeyPartitioner.Single, preAggregated = true))
      val stats = tr.span("exec.fragments.stats")(
        Fragments.collectStats(df, n, KeyPartitioner.Single, new MinHasher()))
      val sc = Scenario("MODIS", topo, Mapping.allToOne(0), data, stats, Scenarios.TupleBytes, None)
      (sc, tr.span("harness.runall")(Algorithms.runAll(sc)))
    }
    scenario = sc
    val plan = GraspPlanner.plan(sc.stats, topo, sc.mapping, sc.tupleBytes)
    val (problems, counts) = Probes.check(sc, plan, Workload.globalCardinalities(sc.data))
    val inconsistent = Option.when(counts("dest_tuples").toLong != results.grasp.tuplesIntoDest)(
      s"runAll's GRASP delivered ${results.grasp.tuplesIntoDest} tuples, the checked plan ${counts("dest_tuples").toLong}")
    Op(Seq(seconds), problems ++ inconsistent, counts)
  }

  override def layers(tr: Tracer, rec: JobRecorder): (Seq[String], Map[String, Double]) = {
    val (plan, planner) = Probes.planner(tr, scenario, topo.bandwidthMatrix, reps = 5)
    val (problems, catalyst) = Workload.operatorProbe(df, ctx, tr, rec)
    problems -> (catalyst ++ planner ++
      Probes.minhash(tr, scenario.data, scenario.stats) ++
      Probes.loom(tr, scenario.stats, topo, scenario.data.globalCardinality(0), scenario.tupleBytes, reps = 5) ++
      Probes.simulator(tr, scenario, plan, reps = 3) ++
      Probes.fragments(tr) ++ Probes.harness(tr, scenario))
  }
}
