package repro.bench

import repro.SparkSpec

/** Reproduces the paper's Table 2 (number of masks loaded during query
  * execution, MaskSearch vs the load-everything baselines) and Figure 7
  * (end-to-end individual query time) on WILDS-lite and ImageNet-lite.
  * Prints both tables; rows are also written to target/bench-results/.
  */
class Table2Fig7Bench extends SparkSpec {

  test("Table 2 + Figure 7: individual query performance, both datasets") {
    val runs = BenchData.all.flatMap { bd =>
      val loaded = BenchData.load(spark, bd)
      println(s"-- ${bd.name}: ${bd.ds.nMasks} masks ${bd.ds.w}x${bd.ds.h}, " +
        f"index ratio ${bd.indexRatio * 100}%.1f%% (CHI build ${loaded.buildMs} ms)")
      Queries.forDataset(bd, Queries.paperSideFor(bd)).foreach(q =>
        println(s"   ${q.id}: ${q.description}"))
      Harness.runTable2Fig7(loaded)
    }
    val buildMs = BenchData.all.map(bd => bd.name -> BenchData.load(spark, bd).buildMs).toMap
    Harness.printTable2Fig7(runs, buildMs)

    // Shape assertions mirroring the paper's findings.
    for (ds <- runs.map(_.dataset).distinct; q <- Seq("Q1", "Q2", "Q3", "Q4", "Q5")) {
      val ms = runs.find(r => r.dataset == ds && r.query == q && r.system == "MaskSearch").get
      val base = runs.find(r => r.dataset == ds && r.query == q && r.system != "MaskSearch").get
      assert(base.masksLoaded == base.nTargeted, s"$ds/$q: baseline must load every targeted mask")
      assert(ms.masksLoaded < base.masksLoaded / 5,
        s"$ds/$q: MaskSearch should load ≪ baseline (${ms.masksLoaded} vs ${base.masksLoaded})")
      assert(ms.resultSize == base.resultSize)
    }
  }
}
