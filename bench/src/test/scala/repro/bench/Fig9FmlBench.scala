package repro.bench

import repro.SparkSpec

/** Reproduces the paper's Figure 9 (as a table): the correlation between
  * end-to-end query time and the fraction of masks loaded (FML). The paper
  * reports Pearson r = 0.99 (WILDS) and 0.96 (ImageNet) over 1500 Filter
  * queries; this scaled run uses 40 per dataset.
  */
class Fig9FmlBench extends SparkSpec {

  test("Figure 9: query time is driven by the fraction of masks loaded") {
    BenchData.all.foreach { bd =>
      val loaded = BenchData.load(spark, bd)
      val (pts, r) = Harness.runFig9(loaded, nQueries = 40, seed = 9)
      Harness.printFig9(bd.name, pts, r)
      // At lite scale per-query dataflow overhead adds noise (most queries
      // sit at FML ≈ 0 where scheduling jitter dominates), so the correlation
      // is weaker than the paper's 0.96–0.99 but must be clearly positive;
      // typical measured values are 0.6+.
      assert(r > 0.35, f"$bd: Pearson r=$r%.3f not positive enough")
    }
  }
}
