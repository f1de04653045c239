package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.perfbench.ListenerBusAccess
import org.apache.spark.scheduler._

final case class Span(id: Int, parent: Int, layer: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spans recorded around the benchmark's calls into the program's layers.
  *
  * Spans are kept in memory and written as JSON lines when the run ends.
  * `on` is toggled per operation in a traced run, so traced and untraced
  * operations of the same process can be compared (the tracing overhead).
  * When `on` is false, `span` only runs its body.
  */
final class Tracer(val enabled: Boolean) {
  var on: Boolean = enabled
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  // Spark listener times are epoch milliseconds; spans use nanoTime.
  private val epochOffsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()

  private def currentParent: Int = open.headOption.getOrElse(-1)

  def span[A](layer: String)(body: => A): A =
    if (!on) body
    else {
      val id = nextId
      nextId += 1
      val parent = currentParent
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, layer, t0, System.nanoTime())
        open = open.tail
      }
    }

  /** Adds a span measured elsewhere (a Spark job) under `parent`. */
  def record(layer: String, parent: Int, startEpochMs: Long, endEpochMs: Long): Unit =
    if (on) {
      spans += Span(nextId, parent, layer,
        startEpochMs * 1000000L - epochOffsetNs, endEpochMs * 1000000L - epochOffsetNs)
      nextId += 1
    }

  def seconds(layer: String): Seq[Double] = spans.iterator.filter(_.layer == layer).map(_.seconds).toSeq

  def count: Int = spans.size

  /** Id of the span that closed last. */
  def lastId: Int = spans.lastOption.map(_.id).getOrElse(-1)

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      out.println(
        s"""{"id":${s.id},"parent":${s.parent},"layer":"${s.layer}","start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    }
    finally out.close()
  }
}

/** Bytes allocated by the calling thread while `body` runs. */
object Alloc {
  private val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def measure[A](body: => A): (A, Long) = {
    val before = bean.getCurrentThreadAllocatedBytes
    val a = body
    (a, bean.getCurrentThreadAllocatedBytes - before)
  }
}

/** Per-job and per-task timings of the Spark jobs one query ran. */
final case class JobTiming(id: Int, startMs: Long, endMs: Long, stages: Seq[Int]) {
  def seconds: Double = (endMs - startMs) / 1000.0
}
final case class TaskTiming(stage: Int, durationMs: Long, runMs: Long, gcMs: Long)

/** Listener registered only in traced runs. It records job boundaries and
  * task metrics; `take` drains the listener bus and returns what arrived
  * since the last call.
  */
final class JobRecorder(sc: SparkContext) extends SparkListener {
  private val starts = mutable.LinkedHashMap.empty[Int, (Long, Seq[Int])]
  private val jobs = mutable.ArrayBuffer.empty[JobTiming]
  private val tasks = mutable.ArrayBuffer.empty[TaskTiming]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    starts(e.jobId) = (e.time, e.stageIds)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    starts.remove(e.jobId).foreach { case (t0, stages) => jobs += JobTiming(e.jobId, t0, e.time, stages) }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null)
      tasks += TaskTiming(e.stageId, e.taskInfo.duration, m.executorRunTime, m.jvmGCTime)
  }

  def attach(): Unit = sc.addSparkListener(this)
  def detach(): Unit = sc.removeSparkListener(this)

  def take(): (Seq[JobTiming], Seq[TaskTiming]) = {
    ListenerBusAccess.drain(sc)
    synchronized {
      val out = (jobs.sortBy(_.id).toSeq, tasks.toSeq)
      jobs.clear()
      tasks.clear()
      out
    }
  }
}
