package repro.exec

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.functions.col

import repro.core._

/** Bridges Spark DataFrames to the planner/simulator inputs.
  *
  * The input is a DataFrame with columns `(fragment INT, key BIGINT)` (extra
  * columns are ignored): every row is one raw tuple held by `fragment`
  * before the aggregation starts. One DataFrame aggregation collects the
  * exact distinct key set and raw count of every (fragment, partition)
  * share to the driver; the planner statistics (cardinality + minhash) are
  * then taken from those key sets, so they are exactly what step 2 of
  * Fig. 5 computes on each node over the same keys.
  */
object Fragments {

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
    val partUdf = F.udf((k: Long) => partitioner.partitionOf(k))
    val grouped = df
      .groupBy(col("fragment"), partUdf(col("key")) as "__part")
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

  /** Planner statistics: distinct cardinality + minhash signature per
    * (fragment, partition), from the exact key sets of
    * [[collectClusterData]]. GRASP plans from these estimates; their error
    * against the exact data is part of the reproduction (§5.3.4 / Fig. 19).
    */
  def collectStats(
      df: DataFrame,
      nFragments: Int,
      partitioner: KeyPartitioner,
      hasher: MinHasher,
  ): PlannerState = {
    val data = collectClusterData(df, nFragments, partitioner, preAggregated = true)
    PlannerState.fromKeySets(data.keySets, hasher)
  }
}
