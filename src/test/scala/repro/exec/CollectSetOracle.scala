package repro.exec

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.functions.col

import repro.core._

/** The shuffled `groupBy`/`collect_set` aggregation that
  * [[Fragments.collectClusterData]] replaced, kept as its oracle: exact
  * per-(fragment, partition) key sets and raw counts from one DataFrame
  * aggregation.
  */
object CollectSetOracle {

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
}
