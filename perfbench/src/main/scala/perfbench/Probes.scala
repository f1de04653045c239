package perfbench

import repro.core._
import repro.harness.{Algorithms, Scenario}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile, `q` in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no values")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }
}

/** Per-layer probes of the pure-Scala `core` and `harness` layers, run in a
  * traced run on a workload's own statistics and exact data. Each call into
  * a layer is one span; the metric is the median over the spans of the run.
  */
object Probes {

  /** `GraspPlanner.plan()` `reps` more times (spans from the timed loop
    * count too), with the allocation of the last call.
    */
  def planner(tr: Tracer, sc: Scenario, bw: Array[Array[Double]], reps: Int): (AggPlan, Map[String, Double]) = {
    var plan: AggPlan = null
    var allocated = 0L
    (1 to reps).foreach { _ =>
      val (p, bytes) = Alloc.measure(tr.span("core.planner.plan")(
        new GraspPlanner(sc.stats, bw, sc.mapping, sc.tupleBytes).plan()))
      plan = p
      allocated = bytes
    }
    val planS = Stats.median(tr.seconds("core.planner.plan"))
    plan -> Map(
      "core.planner.plan_s" -> planS,
      "core.planner.phases" -> plan.numPhases.toDouble,
      "core.planner.transfers" -> plan.numTransfers.toDouble,
      "core.planner.ns_per_transfer" -> planS * 1e9 / plan.numTransfers,
      "core.planner.alloc_mb" -> allocated / 1e6,
    )
  }

  /** `LoomPlanner.plan` on all-to-one statistics of the same input. */
  def loom(tr: Tracer, oneStats: PlannerState, topo: Topology, rootCard: Long, tupleBytes: Double, reps: Int): Map[String, Double] = {
    (1 to reps).foreach(_ => tr.span("core.loom.plan")(LoomPlanner.plan(oneStats, topo, 0, rootCard, tupleBytes)))
    Map("core.loom.plan_s" -> Stats.median(tr.seconds("core.loom.plan")))
  }

  def simulator(tr: Tracer, sc: Scenario, plan: AggPlan, reps: Int): Map[String, Double] = {
    (1 to reps).foreach(_ => tr.span("core.simulator.run")(sc.simulator.run(plan, sc.data, sc.mapping)))
    Map("core.simulator.run_s" -> Stats.median(tr.seconds("core.simulator.run")))
  }

  /** `Algorithms.runAll` once, unless the timed loop already called it. */
  def harness(tr: Tracer, sc: Scenario): Map[String, Double] = {
    if (tr.seconds("harness.runall").isEmpty) tr.span("harness.runall")(Algorithms.runAll(sc))
    Map("harness.runall_s" -> Stats.median(tr.seconds("harness.runall")))
  }

  def fragments(tr: Tracer): Map[String, Double] = Map(
    "exec.fragments.stats_s" -> Stats.median(tr.seconds("exec.fragments.stats")),
    "exec.fragments.clusterdata_s" -> Stats.median(tr.seconds("exec.fragments.clusterdata")),
  )

  /** `MinHasher.add` over every distinct (fragment, partition, key), and
    * Fig. 19's ESTCARD error over the overlapping share pairs.
    */
  def minhash(tr: Tracer, data: ClusterData, stats: PlannerState): Map[String, Double] = {
    val hasher = stats.hasher
    val keys = data.keySets
    val nKeys = keys.iterator.flatten.map(_.length.toLong).sum
    val addNs = (1 to 3).map { _ =>
      val (_, s) = Stats.seconds(tr.span("core.minhash.add") {
        keys.foreach(_.foreach { ks =>
          val sig = hasher.emptySignature
          var i = 0
          while (i < ks.length) { hasher.add(sig, ks(i)); i += 1 }
        })
      })
      s * 1e9 / nKeys
    }
    val errors = for {
      l <- 0 until data.numPartitions
      s <- 0 until data.nFragments
      t <- s + 1 until data.nFragments
      if KeySet.intersectionSize(keys(s)(l), keys(t)(l)) > 0
    } yield {
      val exact = KeySet.unionSize(keys(s)(l), keys(t)(l)).toDouble
      math.abs(stats.estCard(s, t, l) - exact) / exact
    }
    require(errors.nonEmpty, "no overlapping fragment pairs")
    Map(
      "core.minhash.add_ns_per_key" -> Stats.median(addNs),
      "core.minhash.estcard_err_p50" -> Stats.quantile(errors, 0.5),
      "core.minhash.estcard_err_p90" -> Stats.quantile(errors, 0.9),
    )
  }

  /** Simulated GRASP run of `plan`, checked against Eq. 2/7 (inside
    * `Simulator.run`) and against the exact per-partition result sizes, and
    * priced against Preagg+Repart. Returns problems found and exact counts.
    */
  def check(sc: Scenario, plan: AggPlan, globalCard: IndexedSeq[Long]): (Seq[String], Map[String, Double]) = {
    val sim = sc.simulator.run(plan, sc.data, sc.mapping)
    val wrong = globalCard.indices.filter(l => sim.resultCardinalities(l) != globalCard(l))
    val preagg = Algorithms.preaggRepart(sc)
    val problems = wrong.take(3).map(l =>
      s"partition $l: simulated result has ${sim.resultCardinalities(l)} keys, expected ${globalCard(l)}")
    problems -> Map(
      "core.planner.phases" -> plan.numPhases.toDouble,
      "core.planner.transfers" -> plan.numTransfers.toDouble,
      "sim_speedup" -> preagg.seconds / sim.totalSeconds,
      "dest_tuples" -> sim.tuplesIntoDestinations.toDouble,
      "sim.tuples_received" -> sim.tuplesReceived.sum.toDouble,
    )
  }
}
