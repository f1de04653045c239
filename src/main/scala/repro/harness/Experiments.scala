package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.SynthData
import repro.core._
import repro.harness.Algorithms.{AllResults, RunResult}

/** One driver per reproduced exhibit of the paper's evaluation section
  * (Table 2 and the experiments behind Figures 10–20). Each driver builds
  * its workload with Spark, runs the four algorithms through the
  * planner + cost-model simulator, and returns structured results; the
  * bench suites render them next to the paper's reported numbers and assert
  * the qualitative shape.
  *
  * Scale note: the paper runs 16–128 M tuples per fragment; these drivers
  * run 10³–10⁵ tuples per fragment. The cost model is linear in data size,
  * so speedups (ratios), not absolute seconds, are the comparable output.
  */
object Experiments {

  /** Fragment counts follow §5.3: `machines x 14` fragments. */
  val PerMachine = 14

  // ----- shared MODIS-like configuration (Table 2, Fig. 14, 17, 19, 20) ----

  /** MODIS-like scenario: `machines * perMachine` fragments of 3 files of
    * 6,000 cells each, ~4.6 raw tuples per distinct key globally (3 B tuples
    * / 648 M keys in the paper), spatial overlap between files → high
    * inter-fragment similarity.
    */
  def modisScenario(
      spark: SparkSession,
      machines: Int = 8,
      perMachine: Int = PerMachine,
      nicBw: Double = Topology.OneGbps,
      compute: Option[ComputeModel] = None,
  ): Scenario = {
    val cellsPerFile = 6000
    val nFrags = machines * perMachine
    val nFiles = nFrags * 3
    val grid = math.max(1L, (nFiles.toLong * cellsPerFile / 4.6).toLong)
    val df = SynthData.modisLike(spark, nFrags, nFiles, cellsPerFile, grid)
    Scenarios.fromDataFrame(
      "MODIS", df,
      Topology.colocated(machines, perMachine, nicBw = nicBw),
      Mapping.allToOne(0), KeyPartitioner.Single, compute = compute)
  }

  /** All four algorithms on `df`'s fragments aggregated all-to-one. */
  private def allToOne(df: DataFrame, topo: Topology): AllResults =
    Algorithms.runAll(Scenarios.fromDataFrame(
      "all-to-one", df, topo, Mapping.allToOne(0), KeyPartitioner.Single))

  // ------------------------------ Fig. 10 ---------------------------------

  /** Similarity sweep: 8 uniform fragments of 100,000 rows, 1 tuple/key,
    * J ∈ [0, 1].
    */
  def fig10(spark: SparkSession): Seq[(Double, AllResults)] =
    Seq(0.0, 0.25, 0.5, 0.75, 1.0).map { j =>
      j -> allToOne(SynthData.overlapFragments(spark, 8, 100000, j), Topology.uniform(8))
    }

  // ------------------------------ Fig. 11 ---------------------------------

  /** Duplicates-per-key sweep over 8 uniform fragments of 96,000 rows:
    * local aggregation effectiveness.
    */
  def fig11(spark: SparkSession): Seq[(Int, AllResults)] =
    Seq(1, 2, 4, 8).map { dup =>
      dup -> allToOne(
        SynthData.overlapFragments(spark, 8, 96000, jaccard = 0.5, dupFactor = dup), Topology.uniform(8))
    }

  // ------------------------------ Fig. 12 ---------------------------------

  /** All-to-all workload imbalance over 8 fragments of 100,000 rows: the
    * repartition function assigns `level` times more keys to fragment 0's
    * partition.
    */
  def fig12(spark: SparkSession): Seq[(Double, AllResults)] = {
    val df = SynthData.uniformFragments(spark, 8, 100000, keySpace = 400000L)
    df.persist()
    val out = Seq(1.0, 2.0, 3.0, 4.0, 6.0, 8.0).map { level =>
      val part = KeyPartitioner.Weighted(level +: Vector.fill(7)(1.0))
      val sc = Scenarios.fromDataFrame(
        s"fig12-l$level", df, Topology.uniform(8), Mapping.allToAll(8), part)
      level -> Algorithms.runAll(sc)
    }
    df.unpersist()
    out
  }

  // ---------------------------- Fig. 13/14 --------------------------------

  /** Robustness to bandwidth underestimation: the planner receives a
    * perturbed matrix, the simulator charges the true topology. Returns the
    * baseline GRASP run and (label, underestimation, run) triples.
    */
  def fig14(spark: SparkSession): (RunResult, Seq[(String, Double, RunResult)]) = {
    val sc = modisScenario(spark)
    val base = Algorithms.grasp(sc)
    val rnd = new scala.util.Random(3)
    val someMachines = Seq.fill(3)(rnd.nextInt(8)).toSet
    val cases = for {
      factor <- Seq(0.2, 0.5)
      (label, kind) <- Seq(
        "Co-location"       -> Scenarios.CoLocation,
        "NIC contention"    -> Scenarios.NicContention,
        "Switch contention" -> Scenarios.SwitchContention,
      )
    } yield {
      val bw = Scenarios.underestimate(sc.topo, kind, factor, someMachines)
      (label, factor, Algorithms.grasp(sc, Some(bw)))
    }
    (base, cases)
  }

  // --------------------------- Fig. 15 and 16 ----------------------------

  /** Nonuniform bandwidth at one size: `machines x 14` fragments, all drawing
    * `rowsPerFrag` rows from the same key range (the paper's R.a in [1, 14M]
    * per fragment), as an all-to-one and an all-to-all scenario.
    */
  private def colocatedScenarios(spark: SparkSession, machines: Int, rowsPerFrag: Int)
      : (Scenario, Scenario) = {
    val n = machines * PerMachine
    val df = SynthData.uniformFragments(spark, n, rowsPerFrag, keySpace = rowsPerFrag.toLong)
    df.persist()
    val topo = Topology.colocated(machines, PerMachine)
    val one = Scenarios.fromDataFrame(
      s"all-to-one-$n", df, topo, Mapping.allToOne(0), KeyPartitioner.Single)
    val all = Scenarios.fromDataFrame(
      s"all-to-all-$n", df, topo, Mapping.allToAll(n), KeyPartitioner.Hashed(n))
    df.unpersist()
    (one, all)
  }

  /** Fig. 15: 4 machines x 14 fragments of 20,000 rows. */
  def fig15(spark: SparkSession): (AllResults, AllResults) = {
    val (one, all) = colocatedScenarios(spark, 4, 20000)
    (Algorithms.runAll(one), Algorithms.runAll(all))
  }

  /** Fig. 16: scale-out 28 → 112 fragments (2–8 machines x 14 fragments of
    * 16,000 rows).
    */
  def fig16(spark: SparkSession): Seq[(Int, AllResults, AllResults)] =
    Seq(2, 4, 6, 8).map(colocatedScenarios(spark, _, 16000)).map { case (one, all) =>
      (one.nFragments, Algorithms.runAll(one), Algorithms.runAll(all))
    }

  // ------------------------------ Fig. 17 ---------------------------------

  /** TPC-H Q18 subquery + the three real-data workloads, all-to-one on
    * 8 x 14 fragments.
    */
  def fig17(spark: SparkSession): Seq[(String, AllResults)] = {
    val machines = 8
    val n = machines * PerMachine
    val topo = Topology.colocated(machines, PerMachine)
    Seq(
      "TPC-H" -> allToOne(SynthData.tpchQ18Fragments(spark, n, sf = 0.05), topo),
      "MODIS" -> Algorithms.runAll(modisScenario(spark, machines)),
      "Amazon" -> allToOne(SynthData.reviewsLike(spark, n, rowsPerFrag = 18000, nUsers = 500000L), topo),
      "Yelp" -> allToOne(SynthData.reviewsLike(spark, n, rowsPerFrag = 4500, nUsers = 130000L), topo),
    )
  }

  // ------------------------------ Table 2 ---------------------------------

  /** Tuples received by the destination fragment on the MODIS workload. */
  def table2(spark: SparkSession): AllResults =
    Algorithms.runAll(modisScenario(spark))

  // ------------------------------ Fig. 19 ---------------------------------

  /** Minhash intersection-estimation error quantiles over up to 600 sampled
    * fragment pairs of the MODIS workload (paper: |error| < 10% for 90% of
    * estimations).
    */
  def fig19(spark: SparkSession): Seq[(Int, Double)] = {
    val sc = modisScenario(spark, machines = 4)
    val n = sc.nFragments
    val rnd = new scala.util.Random(1)
    // Only pairs that actually overlap, as in the paper's plot — disjoint
    // pairs estimate an exactly-zero intersection and would flatten the CDF.
    val pairs = Seq.fill(600)((rnd.nextInt(n), rnd.nextInt(n)))
      .filter { case (s, t) => s != t }
      .map { case (s, t) =>
        (s, t, KeySet.intersectionSize(sc.data(s, 0).keys, sc.data(t, 0).keys))
      }
      .filter(_._3 > 0)
    require(pairs.nonEmpty, "no overlapping fragment pairs sampled")
    val errors = pairs.map { case (s, t, trueInter) =>
      val estUnion = sc.stats.estCard(s, t, 0)
      val estInter = sc.stats.cardinality(s, 0) + sc.stats.cardinality(t, 0) - estUnion
      math.abs(estInter - trueInter).toDouble / trueInter
    }.sorted
    Seq(50, 75, 90, 95).map(p => p -> errors(((errors.size - 1) * p) / 100))
  }

  // ------------------------------ Fig. 20 ---------------------------------

  /** EC2: 8 instances x 6 fragments, 10 Gbps network, measured aggregation
    * throughputs — the compute-bound regime.
    */
  def fig20(spark: SparkSession): AllResults =
    Algorithms.runAll(modisScenario(
      spark, machines = 8, perMachine = 6,
      nicBw = Topology.TenGbps, compute = Some(ComputeModel.Measured)))
}
