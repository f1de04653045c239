package repro.core

import org.scalatest.funsuite.AnyFunSuite

class LocalGenSpec extends AnyFunSuite {

  test("overlapFragments hits the requested Jaccard between adjacent fragments") {
    for (j <- Seq(0.0, 0.25, 0.5, 0.75, 1.0)) {
      val raw = LocalGen.overlapFragments(4, 1000, jaccard = j)
      val a = KeySet.fromUnsorted(raw(0))
      val b = KeySet.fromUnsorted(raw(1))
      assert(math.abs(KeySet.jaccard(a, b) - j) <= 0.01, s"target J=$j")
    }
  }

  test("overlapFragments: each fragment has the requested distinct count and dup factor") {
    val raw = LocalGen.overlapFragments(3, 100, jaccard = 0.5, dupFactor = 4)
    raw.foreach { keys =>
      assert(keys.length == 400)
      assert(KeySet.fromUnsorted(keys).length == 100)
    }
  }

  test("overlapFragments at J=1 produces identical fragments") {
    val raw = LocalGen.overlapFragments(5, 64, jaccard = 1.0)
    val first = KeySet.fromUnsorted(raw(0)).toSeq
    raw.foreach(keys => assert(KeySet.fromUnsorted(keys).toSeq == first))
  }

  test("overlapFragments at J=0 produces disjoint fragments") {
    val raw = LocalGen.overlapFragments(5, 64, jaccard = 0.0)
    for (i <- 0 until 4) {
      assert(KeySet.intersectionSize(
        KeySet.fromUnsorted(raw(i)), KeySet.fromUnsorted(raw(i + 1))) == 0)
    }
  }

  test("uniformDraws produce rarely co-located duplicates") {
    val raw = LocalGen.uniformDraws(2, 5000, keySpace = 10000, seed = 1)
    // Expected distinct within one fragment ~ 10000 * (1 - e^-0.5) ≈ 3935.
    val distinct = KeySet.fromUnsorted(raw(0)).length
    assert(distinct > 3600 && distinct < 4300, s"distinct=$distinct")
  }

  test("zipfDraws are heavy-tailed: top key dominates") {
    val raw = LocalGen.zipfDraws(1, 20000, keySpace = 100000, alpha = 1.1)
    val counts = raw(0).groupBy(identity).map(_._2.length)
    assert(counts.max > 1000, s"max=${counts.max}")
    assert(raw(0).forall(k => k >= 1 && k <= 100000))
  }

  test("group splits keys by partition and preserves every key") {
    val raw = Array(Array(1L, 2L, 3L, 4L, 5L, 5L))
    val part = KeyPartitioner.Hashed(3)
    val grouped = LocalGen.group(raw, part)
    assert(grouped(0).map(_.length).sum == 6)
    for (l <- 0 until 3; k <- grouped(0)(l)) assert(part.partitionOf(k) == l)
  }

  test("scenario wires cluster data and statistics consistently") {
    val raw = LocalGen.uniformDraws(3, 200, keySpace = 300, seed = 9)
    val (data, stats) = LocalGen.scenario(raw, KeyPartitioner.Hashed(2), preAggregated = true)
    assert(data.nFragments == 3 && data.numPartitions == 2)
    for (v <- 0 until 3; l <- 0 until 2)
      assert(stats.cardinality(v, l) == data(v, l).keys.length.toLong)
  }

  test("ClusterData.globalCardinality unions across fragments") {
    val raw = Array(Array(1L, 2L), Array(2L, 3L), Array(3L, 4L))
    val (data, _) = LocalGen.scenario(raw, KeyPartitioner.Single, preAggregated = true)
    assert(data.globalCardinality(0) == 4)
    assert(data.shares.iterator.flatten.map(_.rawCount).sum == 6)
  }
}
