package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Tests for the CHI-derived CP bounds (§3.2.1, Eqs. 3–5 and their lower
  * mirrors), including the paper's Figure 6 worked example and randomized
  * soundness / tightness properties.
  */
class ChiBoundsSpec extends AnyFunSuite {
  import Fixtures._

  private lazy val fig4 = ChiIndex.build(fig4Mask, fig4Cfg)

  test("paper Figure 6: upper bound approaches give 8 and 7; θ̄ = 7") {
    val roi = Roi(3, 3, 5, 5)
    val range = ValueRange(0.5, 1.0)
    // Approach 1 on the outer region ((3,3),(6,6)).
    val cOuter = fig4.cHist(Roi(3, 3, 6, 6))
    assert(cOuter(1) - cOuter(2) == 8)
    // Approach 2 on the inner region ((3,3),(4,4)): 2 − 0 + 9 − 4 = 7.
    val cInner = fig4.cHist(Roi(3, 3, 4, 4))
    assert(cInner(1) - cInner(2) + roi.area - 4 == 7)
    assert(fig4.bounds(roi, range).upper == 7)
  }

  test("paper Figure 6 case: lower bound is sound and nontrivial") {
    val b = fig4.bounds(Roi(3, 3, 5, 5), ValueRange(0.5, 1.0))
    val exact = fig4Mask.cp(Roi(3, 3, 5, 5), ValueRange(0.5, 1.0))
    assert(exact == 6)
    assert(b.lower <= exact && exact <= b.upper)
    assert(b.lower > 0, "inner-region pixels ≥ 0.5 should give a positive lower bound")
  }

  test("bounds are exact for an available region and bin-aligned range") {
    val r = Roi(3, 3, 4, 6)
    val b = fig4.bounds(r, ValueRange(0.5, 1.0))
    assert(b.exact && b.lower == 5)
    val b2 = fig4.bounds(r, ValueRange(0.0, 1.0))
    assert(b2.exact && b2.lower == 8)
  }

  test("bounds never exceed the ROI area") {
    val b = fig4.bounds(Roi(2, 2, 3, 3), ValueRange(0.0, 1.0))
    assert(b.upper <= 4)
  }

  test("bounds for the full mask with full range are exact") {
    val b = fig4.bounds(Roi.full(6, 6), ValueRange(0.0, 1.0))
    assert(b.exact && b.lower == 36)
  }

  test("empty value range gives bounds [0, something small]") {
    val b = fig4.bounds(Roi(1, 1, 6, 6), ValueRange(0.3, 0.3))
    assert(b.lower == 0)
  }

  test("CpBounds interval arithmetic") {
    val a = CpBounds(2, 5); val b = CpBounds(1, 3)
    assert(a + b == CpBounds(3, 8))
    assert(a - b == CpBounds(-1, 4))
    assert(CpBounds.point(7).exact)
    intercept[IllegalArgumentException](CpBounds(3, 2))
  }

  // Soundness: lower ≤ exact ≤ upper for randomized masks/configs/queries.
  for ((w, h, cw, ch, bins) <- Seq(
      (16, 16, 4, 4, 8), (20, 20, 8, 8, 4), (15, 17, 4, 5, 16),
      (32, 32, 8, 8, 16), (10, 10, 2, 2, 2), (24, 18, 6, 6, 10),
      (9, 9, 4, 4, 3), (30, 30, 10, 10, 5))) {
    test(s"bounds contain exact CP: mask ${w}x$h cell ${cw}x$ch b=$bins") {
      val r = new java.util.Random(w * 1000L + h * 10 + bins)
      val m = randomMask(1, w, h, w * 31L + h)
      val idx = ChiIndex.build(m, ChiConfig(cw, ch, bins))
      for (i <- 0 until 60) {
        val roi = randomRoi(r, w, h)
        val range = randomRange(r)
        val exact = m.cp(roi, range)
        val b = idx.bounds(roi, range)
        assert(b.lower <= exact && exact <= b.upper,
          s"iter $i roi=$roi range=$range exact=$exact bounds=$b")
      }
    }
  }

  // Exactness when everything aligns with cells and bins.
  // b = 10 and 20 are the benchmark datasets' bin counts; their edges 0.3,
  // 0.6 and 0.7 are not exact multiples of Δ = 1/b in double.
  for ((w, cw, bins) <- Seq((16, 4, 4), (24, 8, 8), (32, 8, 16), (12, 4, 2), (20, 4, 10), (40, 8, 20))) {
    test(s"aligned queries are exact: mask ${w}x$w cell $cw b=$bins") {
      val r = new java.util.Random(w + bins)
      val m = randomMask(2, w, w, w * 7L)
      val idx = ChiIndex.build(m, ChiConfig(cw, cw, bins))
      for (_ <- 0 until 30) {
        val nc = w / cw
        val i1 = r.nextInt(nc); val i2 = i1 + 1 + r.nextInt(nc - i1)
        val j1 = r.nextInt(nc); val j2 = j1 + 1 + r.nextInt(nc - j1)
        val roi = Roi(i1 * cw + 1, j1 * cw + 1, i2 * cw, j2 * cw)
        val b1 = r.nextInt(bins); val b2 = b1 + 1 + r.nextInt(bins - b1)
        val range = ValueRange(b1.toDouble / bins, b2.toDouble / bins)
        val bnd = idx.bounds(roi, range)
        assert(bnd.exact && bnd.lower == m.cp(roi, range), s"roi=$roi range=$range")
      }
    }
  }

  /** Pixels on every value edge `k/b < 1` of `b` bins and their float neighbours
    * in [0, 1). At b = 10 this includes 0.7f, which lies below the edge 0.7.
    */
  private def edgePixels(b: Int): Array[Float] =
    (0 until b).flatMap { k =>
      val p = (k.toDouble / b).toFloat
      Seq(Math.nextDown(p), p, Math.nextUp(p))
    }.filter(p => p >= 0f && p < 1f).distinct.toArray

  test("bounds contain exact CP for float pixels on and next to every value edge, b = 1..64; exact on edges") {
    for (b <- 1 to 64) {
      val px = edgePixels(b)
      // One pixel per row and one cell per pixel: every ROI is available.
      val m = Mask(b, px.length, 1, px)
      val idx = ChiIndex.build(m, ChiConfig(1, 1, b))
      val edges = (0 to b).map(_.toDouble / b).toSet
      val cuts = (edges ++ px.map(_.toDouble)).toSeq.sorted
      for (i <- cuts.indices; j <- i until cuts.length) {
        val range = ValueRange(cuts(i), cuts(j))
        val exact = m.cpFull(range)
        val bnd = idx.bounds(Roi.full(m.w, 1), range)
        assert(bnd.lower <= exact && exact <= bnd.upper, s"b=$b range=$range exact=$exact bounds=$bnd")
        if (edges(range.lv) && edges(range.uv)) assert(bnd.exact, s"b=$b aligned range=$range bounds=$bnd")
      }
    }
  }

  test("the build bins each edge pixel where the edge lookup does, b = 1..64") {
    for (b <- 1 to 64) {
      val px = edgePixels(b)
      val cfg = ChiConfig(1, 1, b)
      val idx = ChiIndex.build(Mask(b, px.length, 1, px), cfg)
      for ((p, x) <- px.zipWithIndex) {
        val built = idx.cHist(Roi(x + 1, 1, x + 1, 1)).count(_ == 1) - 1
        assert(built == math.min(cfg.edgeAtOrBelow(p.toDouble), b - 1), s"b=$b pixel=$p")
        assert(built == cfg.bin(p), s"b=$b pixel=$p")
      }
    }
  }

  test("edge lookups pick the largest edge <= v and the smallest edge >= v, clamped") {
    val cfg = ChiConfig(1, 1, 10)
    assert(cfg.edgeAtOrBelow(0.6) == 6 && cfg.edgeAtOrAbove(0.6) == 6)
    assert(cfg.edgeAtOrBelow(0.3) == 3 && cfg.edgeAtOrAbove(0.7) == 7)
    assert(cfg.edgeAtOrBelow(Math.nextDown(0.6)) == 5 && cfg.edgeAtOrAbove(Math.nextUp(0.6)) == 7)
    assert(cfg.edgeAtOrBelow(-0.5) == 0 && cfg.edgeAtOrAbove(-0.5) == 0)
    assert(cfg.edgeAtOrBelow(1.5) == 10 && cfg.edgeAtOrAbove(1.5) == 10)
  }

  test("bounds reject an ROI outside the mask") {
    intercept[IllegalArgumentException](fig4.bounds(Roi(1, 1, 7, 6), ValueRange(0.0, 1.0)))
    intercept[IllegalArgumentException](fig4.bounds(Roi(5, 5, 6, 7), ValueRange(0.0, 1.0)))
  }

  test("finer index gives bounds at least as tight (paper §4.4)") {
    val m = randomMask(3, 32, 32, seed = 99)
    val coarse = ChiIndex.build(m, ChiConfig(16, 16, 4))
    val fine = ChiIndex.build(m, ChiConfig(4, 4, 16))
    val r = new java.util.Random(5)
    var coarseWidth = 0L; var fineWidth = 0L
    for (_ <- 0 until 100) {
      val roi = randomRoi(r, 32, 32)
      val range = randomRange(r)
      val bc = coarse.bounds(roi, range)
      val bf = fine.bounds(roi, range)
      coarseWidth += bc.upper - bc.lower
      fineWidth += bf.upper - bf.lower
    }
    assert(fineWidth < coarseWidth)
  }

  test("bounds on a mask-sized sub-cell ROI fall back to [0, area]") {
    val m = randomMask(4, 20, 20, seed = 6)
    val idx = ChiIndex.build(m, ChiConfig(10, 10, 4))
    val b = idx.bounds(Roi(2, 2, 5, 5), ValueRange(0.31, 0.47))
    assert(b.lower >= 0 && b.upper <= 16)
  }
}
