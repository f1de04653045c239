package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic OLAP data at a configurable scale factor.
  *
  * SF=1.0 is roughly TPC-H SF1. Tests use SF<=0.01; benchmarks use
  * SF~=0.1. Generators are deterministic in (sf, seed) so the DuckDB oracle
  * sees identical input.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame =
    spark.range(n(NLineitemPerSf, sf)).select(
      (rand(seed) * n(NOrdersPerSf, sf) + 1).cast(LongType) as "l_orderkey",
      (rand(seed + 3) * 50 + 1).cast(DoubleType)             as "l_quantity",
    )

  // --------------------------------------------------------------------------
  // GRASP-paper workloads (§5.1.2). Every generator returns columns
  // (fragment INT, key BIGINT, v DOUBLE): `fragment` is the plan fragment the
  // tuple starts on, `key` the GROUP BY attribute, `v` the aggregated value.
  // --------------------------------------------------------------------------

  /** Fig. 9 synthetic workload: fragment i holds `rowsPerFrag / dupFactor`
    * consecutive keys repeated `dupFactor` times, and adjacent fragments
    * overlap so that their Jaccard similarity is `jaccard` (J = o/(2d-o)).
    */
  def overlapFragments(
      spark: SparkSession,
      nFragments: Int,
      rowsPerFrag: Int,
      jaccard: Double,
      dupFactor: Int = 1,
      seed: Long = 21,
  ): DataFrame = {
    import spark.implicits._
    require(rowsPerFrag % dupFactor == 0, "rowsPerFrag must be a multiple of dupFactor")
    val d = rowsPerFrag / dupFactor
    val overlap = math.round(2.0 * d * jaccard / (1.0 + jaccard))
    val stride = d - overlap
    spark.range(nFragments.toLong * rowsPerFrag).select(
      ($"id" / rowsPerFrag).cast(IntegerType)                          as "fragment",
      (($"id" / rowsPerFrag).cast(LongType) * stride
        + ($"id" % rowsPerFrag) % d)                                   as "key",
      rand(seed)                                                       as "v",
    )
  }

  /** Uniform draws with duplicates, round-robin across fragments: duplicates
    * are rarely co-located (§5.2.3's imbalance experiment; duplication
    * factor = nFragments * rowsPerFrag / keySpace).
    */
  def uniformFragments(
      spark: SparkSession,
      nFragments: Int,
      rowsPerFrag: Int,
      keySpace: Long,
      seed: Long = 25,
  ): DataFrame = {
    import spark.implicits._
    spark.range(nFragments.toLong * rowsPerFrag).select(
      ($"id" % nFragments).cast(IntegerType)          as "fragment",
      (rand(seed) * keySpace).cast(LongType)          as "key",
      rand(seed + 1)                                  as "v",
    )
  }

  /** MODIS-like workload: timestamp-ordered satellite "files", each covering
    * a window of `cellsPerFile` grid cells, assigned to fragments
    * round-robin (as the paper downloads ~1200 files and round-robins
    * them).
    *
    * The spatial structure mimics orbital revisits: the satellite sweeps
    * `revisitLag` ground tracks per cycle, so file `f` heavily overlaps
    * files `f ± revisitLag` (the next pass over the same track, shifted by
    * a small drift) and barely overlaps its temporal neighbours. The
    * similar files therefore land on *different* fragments — and usually
    * different machines — which reproduces the two MOD09 properties the
    * paper reports (Table 2): local pre-aggregation is nearly useless, and
    * only a distribution-aware scheduler finds the high-overlap pairs.
    * Global duplication is `nFiles * cellsPerFile / gridCells` (~4.6 in
    * the paper's MOD09 slice).
    */
  def modisLike(
      spark: SparkSession,
      nFragments: Int,
      nFiles: Int,
      cellsPerFile: Int,
      gridCells: Long,
      revisitLag: Int = 8,
      seed: Long = 22,
  ): DataFrame = {
    import spark.implicits._
    require(nFiles >= nFragments, "need at least one file per fragment")
    require(nFiles % revisitLag == 0, "nFiles must be a multiple of revisitLag")
    val perTrack = nFiles / revisitLag
    val trackSpan = math.max(cellsPerFile.toLong, gridCells / revisitLag)
    val drift = math.max(1L,
      if (perTrack <= 1) 1L else (trackSpan - cellsPerFile) / (perTrack - 1))
    val fileCol = ($"id" / cellsPerFile).cast(LongType)
    spark.range(nFiles.toLong * cellsPerFile).select(
      (($"id" / cellsPerFile) % nFragments).cast(IntegerType)          as "fragment",
      ((fileCol % revisitLag) * trackSpan                              // ground track
        + (fileCol / revisitLag).cast(LongType) * drift                // revisit drift
        + $"id" % cellsPerFile).cast(LongType)                         as "key",
      rand(seed)                                                      as "v",
    )
  }

  /** Amazon/Yelp-like review workload: Zipf-distributed reviewer ids over
    * `nUsers` users (~4 reviews per user on average in both datasets), rows
    * in timestamp order split contiguously into fragments — a user's
    * reviews spread across fragments, so similarity is concentrated on the
    * heavy users and duplicates are rarely co-located.
    */
  def reviewsLike(
      spark: SparkSession,
      nFragments: Int,
      rowsPerFrag: Int,
      nUsers: Long,
      skew: Double = 2.0,
      seed: Long = 23,
  ): DataFrame = {
    import spark.implicits._
    // Bounded power-law over user ranks: P(rank <= k) = (k / nUsers)^(1/skew),
    // i.e. heavy users exist but no single user dominates — matching the
    // ~4 reviews/user average of the Amazon (82M/21M) and Yelp (5.2M/1.3M)
    // datasets while keeping duplicates spread across fragments.
    spark.range(nFragments.toLong * rowsPerFrag).select(
      ($"id" / rowsPerFrag).cast(IntegerType)                          as "fragment",
      least(lit(nUsers),
        greatest(lit(1L),
          (pow(rand(seed), lit(skew)) * nUsers).cast(LongType) + 1
        ))                                                             as "key",
      (rand(seed + 1) * 4 + 1).cast(IntegerType).cast(DoubleType)      as "v",
    )
  }

  /** TPC-H Q18 subquery workload: LINEITEM rows with a synthetic
    * `l_suppkey`, distributed to fragments with a modulo hash on SUPPKEY as
    * in the paper; the GROUP BY key is `l_orderkey` and `v` is
    * `l_quantity`.
    */
  def tpchQ18Fragments(
      spark: SparkSession,
      nFragments: Int,
      sf: Double = 0.01,
      seed: Long = 0,
  ): DataFrame = {
    import spark.implicits._
    val nSupp = math.max(1L, (10_000L * sf).toLong)
    lineitem(spark, sf, seed).select(
      (((rand(seed + 10) * nSupp).cast(LongType)) % nFragments)
        .cast(IntegerType)                                             as "fragment",
      $"l_orderkey"                                                    as "key",
      $"l_quantity"                                                    as "v",
    )
  }
}
