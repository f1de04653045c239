package repro.exec

import scala.collection.mutable

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.LongType

import repro.core._

/** Bridges Spark DataFrames to the planner/simulator inputs.
  *
  * The input is a DataFrame with columns `(fragment INT, key BIGINT)` (extra
  * columns are ignored): every row is one raw tuple held by `fragment`
  * before the aggregation starts. One narrow pass, with no shuffle, collects
  * the exact distinct key set and raw count of every (fragment, partition)
  * share to the driver: each task sorts its own keys per share, and the
  * driver merges each share's runs once. The planner statistics
  * (cardinality + minhash) are then taken from those key sets, so they are
  * exactly what step 2 of Fig. 5 computes on each node over the same keys.
  */
object Fragments {

  /** Exact per-(fragment, partition) key sets and raw counts — the
    * simulator's ground truth. A null fragment or key is rejected.
    */
  def collectClusterData(
      df: DataFrame,
      nFragments: Int,
      partitioner: KeyPartitioner,
      preAggregated: Boolean,
  ): ClusterData = {
    // Per task: each share's (fragment, partition, raw count, sorted distinct
    // keys), or the column of the first null met.
    val runs = df.select(col("fragment"), col("key").cast(LongType)).queryExecution.toRdd
      .mapPartitions[Either[String, (Int, Int, Long, Array[Long])]] { rows =>
        val buffers = mutable.LongMap.empty[mutable.ArrayBuilder.ofLong]
        var nullColumn: String = null
        while (nullColumn == null && rows.hasNext) {
          val row = rows.next()
          if (row.isNullAt(0)) nullColumn = "fragment"
          else if (row.isNullAt(1)) nullColumn = "key"
          else {
            val k = row.getLong(1)
            val share = (row.getInt(0).toLong << 32) | partitioner.partitionOf(k)
            buffers.getOrElseUpdate(share, new mutable.ArrayBuilder.ofLong).addOne(k)
          }
        }
        if (nullColumn != null) Iterator(Left(nullColumn))
        else buffers.iterator.map { case (share, buffer) =>
          val keys = buffer.result()
          Right(((share >> 32).toInt, share.toInt, keys.length.toLong, KeySet.fromUnsorted(keys)))
        }
      }
      .collect()
    val shares = Array.fill(nFragments, partitioner.numPartitions)(new Share(KeySet.empty, 0L, preAggregated))
    runs.map {
      case Left(column) => throw new IllegalArgumentException(s"column $column holds a null")
      case Right(run) => run
    }.groupBy(run => (run._1, run._2)).foreach { case ((v, l), rs) =>
      require(v >= 0 && v < nFragments, s"fragment $v out of range")
      val keys = rs.map(_._4)
      val merged = if (keys.length == 1) keys(0) else KeySet.fromUnsorted(Array.concat(keys.toSeq: _*))
      shares(v)(l) = new Share(merged, rs.map(_._3).sum, preAggregated)
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
