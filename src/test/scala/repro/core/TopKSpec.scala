package repro.core

import repro.{SparkSpec, TestData}
import repro.baseline.ScanBaseline

/** Integration tests for bound-pruned top-k (§3.5) against the baseline. */
class TopKSpec extends SparkSpec {
  import TestData._

  private def check(expr: CpExpr, k: Int, descending: Boolean): TopKResult = {
    val ms = TopK.masks(catalogM1, expr, k, descending, store, chiBc)
    val base = ScanBaseline.topKMasks(catalogM1, expr, k, descending, store)
    assert(ms.maskIds.toSeq == base.maskIds.toSeq, s"top-$k desc=$descending mismatch")
    assert(ms.rows.map(_._2).toSeq == base.rows.map(_._2).toSeq, "values mismatch")
    assert(ms.stats.masksLoaded <= base.stats.masksLoaded)
    ms
  }

  test("top-25 by constant-ROI CP descending (paper Q3 shape)") {
    val ms = check(CpExpr.term(ConstRoi(Roi(8, 8, 28, 28)), 0.8, 1.0), 25, descending = true)
    assert(ms.stats.masksLoaded < ds.nImages, "pruning must load fewer than all masks")
  }

  test("top-25 ascending (ORDER BY ... ASC)") {
    check(CpExpr.term(ConstRoi(Roi(8, 8, 28, 28)), 0.8, 1.0), 25, descending = false)
  }

  test("top-5 by object-ROI CP") {
    check(CpExpr.term(ObjectRoi, 0.7, 1.0), 5, descending = true)
  }

  test("top-k with k = 1") {
    check(CpExpr.term(ObjectRoi, 0.5, 1.0), 1, descending = true)
  }

  test("k larger than the dataset returns everything, ordered") {
    val ms = check(CpExpr.term(FullRoi, 0.6, 1.0), ds.nImages + 50, descending = true)
    assert(ms.rows.length == ds.nImages)
  }

  test("results are sorted by value with mask_id tie-break") {
    val ms = TopK.masks(catalogM1, CpExpr.term(FullRoi, 0.5, 1.0), 20, descending = true, store, chiBc)
    val vals = ms.rows.map(_._2)
    assert(vals.zip(vals.tail).forall { case (a, b) => a >= b })
  }

  test("ratio-style expression top-k (Example 1's ORDER BY r ASC)") {
    // CP(obj, hi) − CP(full, hi) ranks "how concentrated" saliency is; the
    // monotone-combination bound machinery must stay sound for it.
    val e = CpSub(CpExpr.term(ObjectRoi, 0.7, 1.0), CpExpr.term(FullRoi, 0.7, 1.0))
    check(e, 10, descending = false)
  }

  for (seed <- 0 until 5) {
    test(s"randomized top-k matches baseline (seed=$seed)") {
      val r = new scala.util.Random(100 + seed)
      val x1 = 1 + r.nextInt(16); val y1 = 1 + r.nextInt(16)
      val roi = Roi(x1, y1, x1 + 8 + r.nextInt(ds.w - x1 - 8), y1 + 8 + r.nextInt(ds.h - y1 - 8))
      val lv = 0.1 * (1 + r.nextInt(8))
      val expr = CpExpr.term(ConstRoi(roi), lv, math.min(1.0, lv + 0.1 * (1 + r.nextInt(5))))
      check(expr, 25, r.nextBoolean())
    }
  }

  /** Runs [[TopK.boundPruned]] over `(id, lower, upper)` bounds with exact
    * values `value(id)`; returns the top k, the resolved count and the id
    * sets passed to each verify call.
    */
  private def pruned(bounds: Array[(Long, Double, Double)], k: Int, desc: Boolean)(value: Long => Double) = {
    val calls = scala.collection.mutable.ArrayBuffer.empty[Set[Long]]
    val (top, n) = TopK.boundPruned(bounds, k, desc, identity[Long]) { ids =>
      calls += ids.toSet
      ids.map(i => (i, value(i)))
    }
    (top.toSeq, n, calls.toSeq)
  }

  test("bound-pruned top-k seeds by (bound, id) when many bounds tie at the k-th place") {
    // ids 30..32 have the best bound; ids 0..29 tie just behind them.
    val value = (i: Long) => if (i >= 30) 50.0 - i else 10.0 - i % 4
    val shuffled = new scala.util.Random(3).shuffle((0L until 33L).toVector).toArray
    val byUpper = shuffled.map(i => (i, 0.0, if (i >= 30) 20.0 else 10.0))
    val (top, n, calls) = pruned(byUpper, 5, desc = true)(value)
    assert(calls.head == Set(30L, 31L, 32L, 0L, 1L))
    // τ = 9 (id 1): every tied id can still reach it and is verified.
    assert(calls(1) == (2L until 30L).toSet && n == 33)
    assert(top == Seq((30L, 20.0), (31L, 19.0), (32L, 18.0), (0L, 10.0), (4L, 10.0)))

    val byLower = shuffled.map(i => (i, if (i >= 30) 1.0 else 5.0, 100.0))
    val (topAsc, _, callsAsc) = pruned(byLower, 5, desc = false)(i => 100.0 - value(i))
    assert(callsAsc.head == Set(30L, 31L, 32L, 0L, 1L))
    assert(topAsc.map(_._1) == Seq(30L, 31L, 32L, 0L, 4L))
  }

  test("bound-pruned top-k matches a full sort of the bounds on random tied bounds") {
    for (seed <- 0 until 50) {
      val r = new scala.util.Random(seed)
      val n = 1 + r.nextInt(60)
      val k = 1 + r.nextInt(n + 2)
      val desc = r.nextBoolean()
      val value = (0 until n).map(_ => r.nextInt(6).toDouble).toArray
      val bounds = r.shuffle((0 until n).toVector).map { i =>
        val lo = value(i) - (if (r.nextInt(4) == 0) 0 else r.nextInt(3))
        val hi = value(i) + (if (r.nextInt(4) == 0) 0 else r.nextInt(3))
        (i.toLong, lo, hi)
      }.toArray
      val (top, _, calls) = pruned(bounds, k, desc)(i => value(i.toInt))
      val ranked = bounds.sortBy { case (i, lo, hi) => (if (desc) -hi else lo, i) }
      val seeds = ranked.take(k).filter(t => t._2 != t._3).map(_._1).toSet
      if (n > k && seeds.nonEmpty) assert(calls.head == seeds, s"seed=$seed")
      val exact = bounds.map(t => (t._1, value(t._1.toInt)))
      val want = exact.sortBy { case (i, v) => (if (desc) -v else v, i) }.take(k).toSeq
      assert(top == want, s"seed=$seed")
    }
  }
}
