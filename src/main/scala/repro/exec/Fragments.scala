package repro.exec

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.functions.col

import repro.core._

/** Bridges Spark DataFrames to the planner/simulator inputs.
  *
  * The input is a DataFrame with columns `(fragment INT, key BIGINT)` (extra
  * columns are ignored): every row is one raw tuple held by `fragment`
  * before the aggregation starts. Statistics (cardinality + minhash) are
  * computed *with DataFrame aggregations*, mirroring step 2 of Fig. 5 where
  * every compute node computes its own signatures; only the tiny per-share
  * statistics and (for the ground-truth simulator) the distinct key sets
  * are collected to the driver.
  */
object Fragments {

  /** Adds the repartition-function column `__part` to the frame. */
  def withPartition(df: DataFrame, partitioner: KeyPartitioner): DataFrame = {
    val partUdf = F.udf((k: Long) => partitioner.partitionOf(k))
    df.withColumn("__part", partUdf(col("key")))
  }

  /** Exact per-(fragment, partition) key sets and raw counts — the
    * simulator's ground truth.
    */
  def collectClusterData(
      df: DataFrame,
      nFragments: Int,
      partitioner: KeyPartitioner,
      preAggregated: Boolean,
  ): ClusterData = {
    val m = partitioner.numPartitions
    val grouped = withPartition(df, partitioner)
      .groupBy(col("fragment"), col("__part"))
      .agg(
        F.count(F.lit(1)) as "__raw",
        F.array_sort(F.collect_set(col("key"))) as "__keys",
      )
      .collect()
    val shares = Array.fill(nFragments, m)(new Share(KeySet.empty, 0L, preAggregated))
    grouped.foreach { row =>
      val v = row.getInt(0)
      val l = row.getInt(1)
      val raw = row.getLong(2)
      val keys = row.getSeq[Long](3).toArray
      require(v >= 0 && v < nFragments, s"fragment $v out of range")
      shares(v)(l) = new Share(keys, raw, preAggregated)
    }
    new ClusterData(shares)
  }

  /** Planner statistics computed with DataFrame aggregations: distinct
    * cardinality + minhash signature per (fragment, partition). This is the
    * path GRASP actually plans from — estimation error against the exact
    * data is part of the reproduction (§5.3.4 / Fig. 19).
    */
  def collectStats(
      df: DataFrame,
      nFragments: Int,
      partitioner: KeyPartitioner,
      hasher: MinHasher,
  ): PlannerState = {
    val m = partitioner.numPartitions
    val grouped = withPartition(df, partitioner)
      .groupBy(col("fragment"), col("__part"))
      .agg(
        F.countDistinct(col("key")) as "__card",
        MinHashAgg.column(hasher, col("key")) as "__sig",
      )
      .collect()
    val card = Array.fill(nFragments, m)(0L)
    val sigs = Array.fill(nFragments, m)(hasher.emptySignature)
    grouped.foreach { row =>
      val v = row.getInt(0)
      val l = row.getInt(1)
      require(v >= 0 && v < nFragments, s"fragment $v out of range")
      card(v)(l) = row.getLong(2)
      sigs(v)(l) = row.getSeq[Long](3).toArray
    }
    PlannerState.fromStats(card, sigs, hasher)
  }
}
