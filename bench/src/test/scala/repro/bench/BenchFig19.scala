package repro.bench

import repro.SparkSpec
import repro.harness.{Experiments, Report}

/** Fig. 19: accuracy of the minhash estimate of the intersection size
  * between fragments (n = 100 hash functions), on overlapping MODIS
  * fragment pairs.
  *
  * Paper: the absolute error is below 10% for 90% of the estimations. Our
  * fragments are ~25x smaller than the paper's, which makes the relative
  * minhash error slightly larger; the assertion allows up to 20% at p90.
  */
class BenchFig19 extends SparkSpec {

  test("Fig. 19: minhash intersection estimates are accurate") {
    val quantiles = Experiments.fig19(spark)
    Exhibits.emit(suiteName, Report.fig19(quantiles))

    val p90 = quantiles.collectFirst { case (90, e) => e }.get
    assert(p90 <= 0.20, s"p90 error ${p90 * 100}%")
    val p50 = quantiles.collectFirst { case (50, e) => e }.get
    assert(p50 <= 0.10, s"p50 error ${p50 * 100}%")
  }
}
