package repro.exec

import java.util.Arrays

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.LongType

import repro.core._

/** Bridges Spark DataFrames to the planner/simulator inputs.
  *
  * The input is a DataFrame with columns `(fragment INT, key BIGINT)` (extra
  * columns are ignored): every row is one raw tuple held by `fragment`
  * before the aggregation starts. One narrow pass, with no shuffle, collects
  * the exact distinct key set and raw count of every (fragment, partition)
  * share to the driver. Each task returns one flat [[Fragments.Runs]]: its
  * shares' ids and raw counts, and every share's sorted distinct keys back to
  * back in one array, grouped by a counting sort over the share ids. The
  * driver indexes the runs by share and merges each share's sorted runs
  * linearly, in a balanced tree of [[KeySet.union]]s; shares merge in
  * parallel. The planner statistics (cardinality + minhash) are then taken
  * from those key sets, so they are exactly what step 2 of Fig. 5 computes on
  * each node over the same keys.
  */
object Fragments {

  /** One task's shares, in ascending share order; share `v·m + l` is
    * fragment `v`'s partition `l`. Share `ids(i)` held `counts(i)` rows, and
    * its sorted distinct keys are `keys(offsets(i) until offsets(i + 1))`.
    * `nullColumn` names the column of the first null the task met (the other
    * fields are then empty), and `badFragment` the first fragment id it met
    * outside `[0, nFragments)` (whose rows it left out).
    */
  private[exec] final case class Runs(
      nullColumn: String,
      badFragment: Option[Int],
      ids: Array[Int],
      counts: Array[Int],
      offsets: Array[Int],
      keys: Array[Long],
  )

  /** Exact per-(fragment, partition) key sets and raw counts — the
    * simulator's ground truth. A null fragment or key is rejected, and is
    * reported before a fragment id out of range.
    */
  def collectClusterData(
      df: DataFrame,
      nFragments: Int,
      partitioner: KeyPartitioner,
      preAggregated: Boolean,
  ): ClusterData = {
    val m = partitioner.numPartitions
    require(nFragments.toLong * m <= Int.MaxValue, s"$nFragments × $m shares exceed an Int share id")
    val tasks = df.select(col("fragment"), col("key").cast(LongType)).queryExecution.toRdd
      .mapPartitions(rows => Iterator.single(taskRuns(rows, nFragments, partitioner)))
      .collect()
    for (t <- tasks if t.nullColumn != null)
      throw new IllegalArgumentException(s"column ${t.nullColumn} holds a null")
    for (t <- tasks; v <- t.badFragment)
      throw new IllegalArgumentException(s"fragment $v out of range")

    // A task lists its shares in ascending order, so a share finds its run
    // in each task by binary search, and shares merge independently.
    val shares = new Array[Share](nFragments * m)
    Arrays.parallelSetAll[Share](shares, s => {
      var raw = 0L
      val runs = IndexedSeq.newBuilder[Array[Long]]
      for (t <- tasks) {
        val i = Arrays.binarySearch(t.ids, s)
        if (i >= 0) {
          raw += t.counts(i)
          runs += Arrays.copyOfRange(t.keys, t.offsets(i), t.offsets(i + 1))
        }
      }
      new Share(union(runs.result()), raw, preAggregated)
    })
    new ClusterData(Array.tabulate(nFragments, m)((v, l) => shares(v * m + l)))
  }

  /** Union of sorted distinct runs, in a balanced tree of linear merges. */
  private def union(runs: IndexedSeq[Array[Long]]): Array[Long] =
    if (runs.isEmpty) KeySet.empty
    else if (runs.length == 1) runs(0)
    else runs.splitAt(runs.length / 2) match { case (a, b) => KeySet.union(union(a), union(b)) }

  /** One task's [[Runs]]. The rows are read once into flat arrays of share
    * ids and keys, counting each share's rows; a counting sort then places
    * every share's keys together, and each share's segment is sorted and
    * deduplicated. Reading stops at the first null.
    */
  private def taskRuns(rows: Iterator[InternalRow], nFragments: Int, partitioner: KeyPartitioner): Runs = {
    val m = partitioner.numPartitions
    val sizes = new Array[Int](nFragments * m)
    var shareOf = new Array[Int](1024)
    var keyOf = new Array[Long](1024)
    var n = 0
    var badFragment = Option.empty[Int]
    while (rows.hasNext) {
      val row = rows.next()
      if (row.isNullAt(0) || row.isNullAt(1)) {
        val column = if (row.isNullAt(0)) "fragment" else "key"
        return Runs(column, None, Array.emptyIntArray, Array.emptyIntArray, Array(0), KeySet.empty)
      }
      val v = row.getInt(0)
      val k = row.getLong(1)
      if (v < 0 || v >= nFragments) { if (badFragment.isEmpty) badFragment = Some(v) }
      else {
        if (n == keyOf.length) {
          shareOf = Arrays.copyOf(shareOf, 2 * n)
          keyOf = Arrays.copyOf(keyOf, 2 * n)
        }
        val s = v * m + partitioner.partitionOf(k)
        shareOf(n) = s
        keyOf(n) = k
        sizes(s) += 1
        n += 1
      }
    }
    // next(s): where share s's next key goes, starting at the sum of the
    // sizes before s; after the placement, share s's keys end at next(s).
    val next = new Array[Int](sizes.length)
    var s = 1
    while (s < sizes.length) { next(s) = next(s - 1) + sizes(s - 1); s += 1 }
    val keys = new Array[Long](n)
    var i = 0
    while (i < n) {
      keys(next(shareOf(i))) = keyOf(i)
      next(shareOf(i)) += 1
      i += 1
    }
    val held = sizes.count(_ > 0)
    val ids = new Array[Int](held)
    val counts = new Array[Int](held)
    val offsets = new Array[Int](held + 1)
    // Each share's keys, sorted and deduplicated, move down to offsets(r),
    // which never passes a key still to be read.
    var r = 0
    s = 0
    while (s < sizes.length) {
      if (sizes(s) > 0) {
        val run = KeySet.fromUnsorted(keys, next(s) - sizes(s), next(s))
        System.arraycopy(run, 0, keys, offsets(r), run.length)
        ids(r) = s
        counts(r) = sizes(s)
        offsets(r + 1) = offsets(r) + run.length
        r += 1
      }
      s += 1
    }
    Runs(null, badFragment, ids, counts, offsets, Arrays.copyOf(keys, offsets(held)))
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
