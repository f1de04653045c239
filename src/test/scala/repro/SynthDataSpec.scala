package repro

import org.apache.spark.sql.functions._
import repro.core.KeySet

/** The paper-workload generators added to SynthData for the GRASP
  * reproduction (§5.1.2 of the paper).
  */
class SynthDataSpec extends SparkSpec {

  private def fragKeys(df: org.apache.spark.sql.DataFrame): Map[Int, Array[Long]] =
    df.select("fragment", "key").distinct().collect()
      .groupBy(_.getInt(0)).map { case (f, rows) =>
        f -> KeySet.fromUnsorted(rows.map(_.getLong(1)))
      }

  test("overlapFragments: row count, schema, fragment range") {
    val df = SynthData.overlapFragments(spark, 4, 300, jaccard = 0.5)
    assert(df.columns.toSeq == Seq("fragment", "key", "v"))
    assert(df.count() == 1200)
    val frags = df.select("fragment").distinct().collect().map(_.getInt(0)).sorted
    assert(frags.toSeq == Seq(0, 1, 2, 3))
  }

  test("overlapFragments hits the requested Jaccard between adjacent fragments") {
    for (j <- Seq(0.0, 0.5, 1.0)) {
      val keys = fragKeys(SynthData.overlapFragments(spark, 3, 1000, j))
      val got = KeySet.jaccard(keys(0), keys(1))
      assert(math.abs(got - j) <= 0.01, s"target J=$j got $got")
    }
  }

  test("overlapFragments dupFactor controls co-located duplicates") {
    val df = SynthData.overlapFragments(spark, 2, 400, jaccard = 0.0, dupFactor = 4)
    val perKey = df.filter(col("fragment") === 0).groupBy("key").count().collect()
    assert(perKey.length == 100)
    perKey.foreach(r => assert(r.getLong(1) == 4))
  }

  test("uniformFragments spreads duplicates across fragments") {
    val df = SynthData.uniformFragments(spark, 4, 2000, keySpace = 4000)
    assert(df.count() == 8000)
    // Global duplication factor ~2; in-fragment duplication much lower.
    val globalDistinct = df.select("key").distinct().count()
    assert(globalDistinct > 3000 && globalDistinct <= 4000, s"distinct=$globalDistinct")
    val frag0 = df.filter(col("fragment") === 0)
    val ratio = frag0.count().toDouble / frag0.select("key").distinct().count()
    assert(ratio < 1.5, s"co-located duplication $ratio")
  }

  test("modisLike: revisit-lag partners are more similar than temporal neighbours") {
    val df = SynthData.modisLike(spark, 16, 48, cellsPerFile = 500, gridCells = 6000)
    val keys = fragKeys(df)
    // Fragment 0 holds files 0,16,32; fragment 8 holds files 8,24,40 (same
    // ground track, next revisit); fragment 1 holds files 1,17,33 (a
    // different track).
    val lag = KeySet.jaccard(keys(0), keys(8))
    val adjacent = KeySet.jaccard(keys(0), keys(1))
    assert(lag > adjacent + 0.2, s"revisit J=$lag adjacent J=$adjacent")
  }

  test("modisLike: duplicates rarely co-located, global duplication ~ rows/grid") {
    // 32 fragments on 4 ground tracks: a fragment's own files sit 8 revisit
    // positions apart, so they never overlap (pre-aggregation useless),
    // while the global grid is covered ~6x.
    val df = SynthData.modisLike(spark, 32, 96, cellsPerFile = 200,
      gridCells = 3100, revisitLag = 4)
    val rows = df.count()
    assert(rows == 96L * 200)
    val keys = fragKeys(df)
    // Local pre-aggregation nearly useless: per-fragment distinct ~ raw.
    val rawPerFrag = rows / 32
    keys.values.foreach(k => assert(k.length > rawPerFrag * 0.95, s"distinct=${k.length}"))
    val global = df.select("key").distinct().count()
    assert(global < rows / 2, s"expected global duplication, distinct=$global of $rows")
  }

  test("reviewsLike: ~4 reviews per user on average, duplicates spread over fragments") {
    val df = SynthData.reviewsLike(spark, 8, 2500, nUsers = 5000)
    val rows = df.count()
    val distinct = df.select("key").distinct().count()
    val dup = rows.toDouble / distinct
    assert(dup > 2.5 && dup < 8.0, s"global reviews/user = $dup")
    val frag0 = df.filter(col("fragment") === 0)
    val local = frag0.count().toDouble / frag0.select("key").distinct().count()
    assert(local < dup, s"duplicates should be cross-fragment: local=$local global=$dup")
    val mx = df.groupBy("key").count().agg(max("count")).collect().head.getLong(0)
    assert(mx > 10, s"expected heavy users, max reviews=$mx")
  }

  test("tpchQ18Fragments: fragments partition lineitem by suppkey hash") {
    val df = SynthData.tpchQ18Fragments(spark, 6, sf = 0.002)
    assert(df.columns.toSeq == Seq("fragment", "key", "v"))
    val frags = df.select("fragment").distinct().count()
    assert(frags == 6)
    // Orderkeys of one fragment are a uniform sample: every fragment's
    // distinct-orderkey share is within 2x of the mean.
    val counts = df.select("fragment", "key").distinct()
      .groupBy("fragment").count().collect().map(_.getLong(1))
    val mean = counts.sum.toDouble / counts.length
    counts.foreach(c => assert(c > mean / 2 && c < mean * 2, counts.toSeq))
  }

  test("lineitem generator still works") {
    assert(SynthData.lineitem(spark, 0.001).count() > 0)
  }
}
