package repro.core

import scala.util.Random

/** Driver-side workload generators mirroring the paper's §5.1.2 data
  * layouts, for fast core unit tests (the benchmarks generate the same
  * shapes with Spark through `repro.SynthData`).
  *
  * All generators return raw keys (with duplicates) per fragment; use
  * [[group]] to split them by a [[KeyPartitioner]] into simulator /
  * planner inputs.
  */
object LocalGen {

  /** Fig. 9 layout: fragment i holds `distinctPerFrag` consecutive keys and
    * adjacent fragments overlap so that their Jaccard similarity is
    * `jaccard`; each key is repeated `dupFactor` times inside its fragment
    * (Fig. 11's co-located duplicates).
    */
  def overlapFragments(
      nFragments: Int,
      distinctPerFrag: Int,
      jaccard: Double,
      dupFactor: Int = 1,
  ): Array[Array[Long]] = {
    require(jaccard >= 0 && jaccard <= 1, s"jaccard out of range: $jaccard")
    require(dupFactor >= 1, "dupFactor must be >= 1")
    val d = distinctPerFrag.toLong
    // J = o / (2d - o)  =>  o = 2 d J / (1 + J)
    val overlap = math.round(2.0 * d * jaccard / (1.0 + jaccard))
    val stride = d - overlap
    Array.tabulate(nFragments) { i =>
      val start = i * stride
      Array.tabulate(distinctPerFrag * dupFactor)(j => start + j % distinctPerFrag)
    }
  }

  /** Global uniform draws with duplicates: every fragment draws
    * `rowsPerFrag` keys uniformly from `[0, keySpace)`. Duplicates are
    * rarely co-located (local pre-aggregation is nearly useless), matching
    * the paper's observation on the real datasets.
    */
  def uniformDraws(
      nFragments: Int,
      rowsPerFrag: Int,
      keySpace: Long,
      seed: Long = 7,
  ): Array[Array[Long]] = {
    val rnd = new Random(seed)
    Array.fill(nFragments)(Array.fill(rowsPerFrag)(rnd.nextLong(keySpace)))
  }

  /** Zipf-distributed draws (heavy-tailed reviewers of the Amazon/Yelp
    * workloads): rank-weight 1/k^alpha via inverse-CDF sampling.
    */
  def zipfDraws(
      nFragments: Int,
      rowsPerFrag: Int,
      keySpace: Long,
      alpha: Double = 1.1,
      seed: Long = 11,
  ): Array[Array[Long]] = {
    val rnd = new Random(seed)
    val norm = (1L to math.min(keySpace, 10000L)).map(k => 1.0 / math.pow(k, alpha)).sum
    def draw(): Long = {
      val u = rnd.nextDouble() * norm + 1e-9
      val k = math.pow(1.0 / u, 1.0 / alpha).toLong
      math.min(keySpace, math.max(1L, k))
    }
    Array.fill(nFragments)(Array.fill(rowsPerFrag)(draw()))
  }

  /** Split raw per-fragment keys by a partitioner into the
    * `[fragment][partition][keys]` shape the planner and simulator consume.
    */
  def group(raw: Array[Array[Long]], partitioner: KeyPartitioner): Array[Array[Array[Long]]] =
    raw.map { keys =>
      val byPart = Array.fill(partitioner.numPartitions)(Array.newBuilder[Long])
      keys.foreach(k => byPart(partitioner.partitionOf(k)) += k)
      byPart.map(_.result())
    }

  /** Cluster data from per-(fragment, partition) raw key arrays (with
    * duplicates); `preAggregated = true` models the local pre-aggregation
    * step.
    */
  def clusterData(raw: Array[Array[Array[Long]]], preAggregated: Boolean): ClusterData =
    new ClusterData(raw.map(_.map { ks =>
      new Share(KeySet.fromUnsorted(ks), ks.length.toLong, preAggregated)
    }))

  /** Convenience: cluster data + planner statistics from raw keys. */
  def scenario(
      raw: Array[Array[Long]],
      partitioner: KeyPartitioner,
      preAggregated: Boolean,
      hasher: MinHasher = new MinHasher(),
  ): (ClusterData, PlannerState) = {
    val grouped = group(raw, partitioner)
    val data = clusterData(grouped, preAggregated)
    (data, PlannerState.fromKeySets(data.keySets, hasher))
  }
}
