package perfbench

import java.io.File

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

/** Runs one workload: set-up several times, untimed warm-up operations (the
  * first one's exact counts become the reference), then a closed loop of
  * operations (each starting when the previous one ended) for the requested
  * seconds. A traced run alternates traced and untraced
  * operations and then runs the per-layer probes.
  */
object Runner {
  val SetupReps = 3
  val MinTracedOps = 4
  val WarmSeconds = 1

  final case class Result(attempted: Int, failed: Int, metrics: Map[String, Double], notes: Seq[String])

  def run(w: Workload, seconds: Int, tr: Tracer, rec: JobRecorder): Result = {
    val setups = (1 to SetupReps).map { i =>
      if (i > 1) w.release()
      Stats.seconds(tr.span("setup")(w.setup(tr)))._2
    }
    w.prepare(tr)

    // Every operation, warm-up ones included, is checked and counted.
    val notes = ArrayBuffer.empty[String]
    var reference: Option[Op] = None
    var attempted = 0
    var failed = 0
    def attempt(traced: Boolean): Option[Op] = {
      attempted += 1
      tr.on = traced
      if (traced) rec.attach()
      val outcome =
        try Right(w.op(tr, Option.when(traced)(rec)))
        catch { case NonFatal(e) => Left(e) }
      if (traced) rec.detach()
      val checked = outcome match {
        case Left(e) =>
          notes += s"operation threw: $e"
          e.printStackTrace()
          None
        case Right(op) =>
          val ref = reference.getOrElse { reference = Some(op); op }
          val drift = (ref.counts.keySet ++ op.counts.keySet).toSeq.sorted.filter(k => ref.counts.get(k) != op.counts.get(k))
          val problems = op.problems ++ drift.map(k =>
            s"exact count $k = ${op.counts.get(k).orNull}, the reference operation gave ${ref.counts.get(k).orNull}")
          problems.foreach(notes += _)
          Some(op.copy(problems = problems))
      }
      if (checked.forall(_.problems.nonEmpty)) failed += 1
      checked
    }

    // Warm-up: untimed operations until the JIT has seen the hot paths.
    val warmUntil = System.nanoTime() + WarmSeconds * 1000000000L
    val warm = ArrayBuffer.empty[Option[Op]]
    while (warm.isEmpty || System.nanoTime() < warmUntil)
      warm += attempt(traced = false)
    val ops = ArrayBuffer.empty[(Boolean, Option[Op])]
    val deadline = System.nanoTime() + seconds * 1000000000L
    while (System.nanoTime() < deadline || (tr.enabled && ops.size < MinTracedOps)) {
      val traced = tr.enabled && ops.size % 2 == 0
      ops += traced -> attempt(traced)
    }
    val ref = reference.getOrElse(throw new IllegalStateException("every operation threw"))
    def medianOf(traced: Boolean) = Stats.median(ops.collect { case (`traced`, Some(op)) => op.seconds }.flatten.toSeq)

    val metrics =
      if (!tr.enabled)
        Map(
          "setup_s" -> Stats.median(setups),
          "op_s" -> medianOf(false),
          "sim_speedup" -> ref.counts("sim_speedup"),
          "dest_tuples" -> ref.counts("dest_tuples"))
      else {
        tr.on = true
        rec.attach()
        val (problems, layers) =
          try w.layers(tr, rec)
          finally rec.detach()
        attempted += 1
        if (problems.nonEmpty) failed += 1
        problems.foreach(notes += _)
        val (traced, untraced) = (medianOf(true), medianOf(false))
        layers ++ Map("trace.op_s" -> traced, "trace.overhead_ratio" -> traced / untraced)
      }
    def show(op: Op) = op.seconds.map(s => f"$s%.3f").mkString("/")
    println(f"ops: ${ops.size}%d timed (${ops.count(_._1)}%d traced), ${ops.flatMap(_._2).map(_.seconds.size).sum}%d samples, seconds: " +
      ops.flatMap(_._2).map(show).mkString(" "))
    println(f"warm-up: ${warm.size}%d operations, seconds: " + warm.flatten.map(show).mkString(" "))
    println(f"setup repeated $SetupReps%d times, seconds: " + setups.map(s => f"$s%.3f").mkString(" "))
    Result(attempted, failed, metrics, notes.toSeq)
  }
}

object Main {
  final case class Args(
      workload: String = "",
      seed: Long = 1L,
      seconds: Int = 10,
      trace: Boolean = false,
      toy: Boolean = false,
      unpermuted: Boolean = false,
  )

  private def parse(argv: List[String], a: Args = Args()): Args = argv match {
    case "--workload" :: v :: rest => parse(rest, a.copy(workload = v))
    case "--seed" :: v :: rest     => parse(rest, a.copy(seed = v.toLong))
    case "--seconds" :: v :: rest  => parse(rest, a.copy(seconds = v.toInt))
    case "--trace" :: v :: rest    => parse(rest, a.copy(trace = v == "1"))
    case "--toy" :: rest           => parse(rest, a.copy(toy = true))
    case "--unpermuted" :: rest    => parse(rest, a.copy(unpermuted = true))
    case Nil                       => a
    case other :: _                => throw new IllegalArgumentException(s"unknown argument '$other'")
  }

  private def session(cores: Int, workDir: File): SparkSession =
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.local.dir", new File(workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(workDir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()

  /** The result line without units: run.py checks the metric names against
    * BENCHMARK.json and attaches the units from there.
    */
  private def json(r: Runner.Result): String = {
    val metrics = r.metrics.toSeq.sortBy(_._1).map { case (k, v) =>
      require(!v.isNaN && !v.isInfinite, s"metric $k is $v")
      s""""$k": $v"""
    }
    s"""{"correct": ${r.failed == 0}, "attempted": ${r.attempted}, "failed": ${r.failed}, "metrics": {${metrics.mkString(", ")}}}"""
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList)
    require(Workload.Names.contains(args.workload), s"--workload must be one of ${Workload.Names.mkString(", ")}")
    val workDir = new File(sys.props.getOrElse("perfbench.work", ".bench_build"))
    val cores = Runtime.getRuntime.availableProcessors()
    val spark = session(cores, workDir)
    try {
      println(s"workload=${args.workload} seed=${args.seed} seconds=${args.seconds} trace=${if (args.trace) 1 else 0}" +
        (if (args.toy) " toy" else "") + (if (args.unpermuted) " unpermuted" else ""))
      println(s"nproc=$cores java=${sys.props("java.version")} spark=${spark.version} " +
        s"heap_mb=${Runtime.getRuntime.maxMemory / (1 << 20)} master=local[$cores] shuffle_partitions=8 " +
        s"source=${sys.props.getOrElse("perfbench.source", "unknown")}")
      val ctx = Ctx(spark, args.seed, args.toy, args.unpermuted, cores)
      val tracer = new Tracer(args.trace)
      val result = Runner.run(Workload(args.workload, ctx), args.seconds, tracer, new JobRecorder(spark.sparkContext))
      if (args.trace) {
        val file = new File(workDir, s"trace/${args.workload}-seed${args.seed}.jsonl")
        tracer.write(file)
        println(s"trace: ${tracer.count} spans written to ${file.getPath}")
      }
      result.notes.distinct.foreach(n => println(s"CHECK FAILED: $n"))
      println(f"failed_frac=${result.failed.toDouble / result.attempted}%.4f (${result.failed}/${result.attempted})")
      result.metrics.toSeq.sortBy(_._1).foreach { case (k, v) => println(f"  $k%-32s $v%.6g") }
      println(json(result))
    } finally spark.stop()
  }
}
