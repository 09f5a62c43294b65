package repro.core

/** Configuration of the Cumulative Histogram Index (§3.1).
  *
  * @param cellW spatial cell width `w_c` (pixels along the x/row axis)
  * @param cellH spatial cell height `h_c` (pixels along the y/column axis)
  * @param bins  number of equi-width pixel-value buckets `b` over [0, 1)
  */
final case class ChiConfig(cellW: Int, cellH: Int, bins: Int) {
  require(cellW >= 1 && cellH >= 1 && bins >= 1, s"bad CHI config $this")

  /** Value edge `i` (0 ≤ i ≤ bins): bin `i` holds the values in
    * `[edge(i), edge(i + 1))`, compared in double as [[Mask.cp]] compares.
    */
  def edge(i: Int): Double = i.toDouble / bins

  /** Index of the largest edge ≤ `v`, clamped to `[0, bins]`. The rounded
    * `⌊v·b⌋` is at most one off it, either way.
    */
  def edgeAtOrBelow(v: Double): Int = {
    val i = math.min(bins, math.max(0, math.floor(v * bins).toInt))
    if (i > 0 && edge(i) > v) i - 1 else if (i < bins && edge(i + 1) <= v) i + 1 else i
  }

  /** Index of the smallest edge ≥ `v`, clamped to `[0, bins]`. */
  def edgeAtOrAbove(v: Double): Int = { val i = edgeAtOrBelow(v); if (i < bins && edge(i) < v) i + 1 else i }

  /** The bin of pixel value `v`: `⌊v·b⌋`, clamped to `[0, bins - 1]` (so
    * values outside [0, 1) and NaN land in bin 0 or bin b − 1). The double
    * product of a float and `b` is exact, so this is [[edgeAtOrBelow]]'s
    * edge, clamped to b − 1, at one multiply per pixel.
    */
  def bin(v: Float): Int = math.min(bins - 1, math.max(0, (v.toDouble * bins).toInt))

  /** Uncompressed index size in bytes for one `w × h` mask (4 bytes/count,
    * interior corner cells only — the zero border row/column is implicit).
    */
  def sizeBytes(w: Int, h: Int): Long =
    4L * bins * ChiIndex.nCells(w, cellW) * ChiIndex.nCells(h, cellH)
}

/** The Cumulative Histogram Index of a single mask (§3.1).
  *
  * `H(cx, cy)(bin)` — stored flat in [[counts]] — is the number of pixels in
  * the top-left rectangle `((1,1), (X(cx), Y(cy)))` whose value is at least
  * `cfg.edge(bin)` (the paper's reverse cumulative sum, Eq. 1). Grid
  * boundary `i` along an axis sits at `min(i · cell, dim)`, so the last cell
  * is partial when the mask dimension is not a multiple of the cell size.
  * Index `cx = 0` / `cy = 0` denotes the empty rectangle, so 2-D
  * inclusion–exclusion (Eq. 2) needs no special cases.
  *
  * The flat-array layout with `(cx, cy, bin)` acting as offsets mirrors the
  * paper's optimized index structure: no keys are stored and lookups are O(1)
  * with no pointer chasing.
  */
final class ChiIndex(
    val maskId: Long,
    val w: Int,
    val h: Int,
    val cfg: ChiConfig,
    val counts: Array[Int],
) extends Serializable {
  import ChiIndex.{boundary, boundaryAtOrAfter, boundaryAtOrBefore}

  private def nCy: Int = ChiIndex.nCells(h, cfg.cellH)

  /** Raw index lookup `H(cx, cy)(bin)`; `cx`/`cy` are grid boundary indices
    * (0 = empty rectangle).
    */
  def hLookup(cx: Int, cy: Int, bin: Int): Int =
    if (cx == 0 || cy == 0) 0
    else counts(((cx - 1) * nCy + (cy - 1)) * cfg.bins + bin)

  // Grid boundary indices at or around an x (row) / y (column) coordinate.
  private def xBefore(v: Int): Int = boundaryAtOrBefore(v, w, cfg.cellW)
  private def xAfter(v: Int): Int = boundaryAtOrAfter(v, w, cfg.cellW)
  private def yBefore(v: Int): Int = boundaryAtOrBefore(v, h, cfg.cellH)
  private def yAfter(v: Int): Int = boundaryAtOrAfter(v, h, cfg.cellH)

  /** The region between grid boundary indices `(cx1, cy1)` and `(cx2, cy2)`. */
  private def region(cx1: Int, cy1: Int, cx2: Int, cy2: Int): Roi =
    Roi(boundary(cx1, w, cfg.cellW) + 1, boundary(cy1, h, cfg.cellH) + 1,
      boundary(cx2, w, cfg.cellW), boundary(cy2, h, cfg.cellH))

  /** Its pixel count. */
  private def area(cx1: Int, cy1: Int, cx2: Int, cy2: Int): Long =
    (boundary(cx2, w, cfg.cellW) - boundary(cx1, w, cfg.cellW)).toLong *
      (boundary(cy2, h, cfg.cellH) - boundary(cy1, h, cfg.cellH))

  /** `C(bin)` (Eq. 2) of that region: its pixels with value ≥ `edge(bin)`. */
  private def c(cx1: Int, cy1: Int, cx2: Int, cy2: Int, bin: Int): Long =
    if (bin >= cfg.bins) 0L
    else (hLookup(cx2, cy2, bin) - hLookup(cx1, cy2, bin) - hLookup(cx2, cy1, bin) + hLookup(cx1, cy1, bin)).toLong

  /** Its pixels with values in `[edge(lo), edge(hi))`. */
  private def count(cx1: Int, cy1: Int, cx2: Int, cy2: Int, lo: Int, hi: Int): Long =
    if (lo >= hi) 0L else c(cx1, cy1, cx2, cy2, lo) - c(cx1, cy1, cx2, cy2, hi)

  /** True iff `r` is an *available region* (Definition 3.1): both corners sit
    * on the grid.
    */
  def isAvailable(r: Roi): Boolean =
    xBefore(r.x1 - 1) == xAfter(r.x1 - 1) && xBefore(r.x2) == xAfter(r.x2) &&
      yBefore(r.y1 - 1) == yAfter(r.y1 - 1) && yBefore(r.y2) == yAfter(r.y2)

  /** `C(mask, r)` (Eq. 2): the reverse-cumulative histogram of the available
    * region `r`, computed by 2-D inclusion–exclusion over four index entries.
    * The returned array has `bins + 1` entries with `C(bins) == 0` so that the
    * count of pixels with values in `[edge(i), edge(j))` is `C(i) - C(j)`.
    */
  def cHist(r: Roi): Array[Int] = {
    require(isAvailable(r), s"region $r not available in CHI of mask $maskId")
    val (cx1, cy1, cx2, cy2) = (xBefore(r.x1 - 1), yBefore(r.y1 - 1), xBefore(r.x2), yBefore(r.y2))
    Array.tabulate(cfg.bins + 1)(b => c(cx1, cy1, cx2, cy2, b).toInt)
  }

  /** The smallest available region covering `roi` (the paper's `roi̅`).
    * Always exists because the full mask is available.
    */
  def outerRegion(roi: Roi): Roi = {
    require(roi.within(w, h), s"roi $roi outside ${w}x$h mask")
    region(xBefore(roi.x1 - 1), yBefore(roi.y1 - 1), xAfter(roi.x2), yAfter(roi.y2))
  }

  /** The largest available region covered by `roi` (the paper's `roi̲`), or
    * None when `roi` contains no grid-aligned rectangle.
    */
  def innerRegion(roi: Roi): Option[Roi] = {
    require(roi.within(w, h), s"roi $roi outside ${w}x$h mask")
    val (cx1, cy1, cx2, cy2) = (xAfter(roi.x1 - 1), yAfter(roi.y1 - 1), xBefore(roi.x2), yBefore(roi.y2))
    if (cx1 < cx2 && cy1 < cy2) Some(region(cx1, cy1, cx2, cy2)) else None
  }

  /** Lower and upper bounds on `CP(mask, roi, range)` (§3.2.1, Eqs. 3–4 for
    * the upper bound and their mirror images for the lower bound). The exact
    * CP value is guaranteed to lie in `[lower, upper]`; when `roi` sits on
    * the grid and `lv`/`uv` on value edges the bounds are exact. Reads
    * only the bins of `C(roi̅)` and `C(roi̲)` it uses.
    */
  def bounds(roi: Roi, range: ValueRange): CpBounds = {
    require(roi.within(w, h), s"roi $roi outside ${w}x$h mask")
    // Grid boundary indices of roi̅ (o*) and roi̲ (i*, empty unless i1 < i2).
    val ox1 = xBefore(roi.x1 - 1); val oy1 = yBefore(roi.y1 - 1); val ox2 = xAfter(roi.x2); val oy2 = yAfter(roi.y2)
    val ix1 = xAfter(roi.x1 - 1); val iy1 = yAfter(roi.y1 - 1); val ix2 = xBefore(roi.x2); val iy2 = yBefore(roi.y2)
    val hasInner = ix1 < ix2 && iy1 < iy2
    // Outer value range [edge(loO), edge(hiO)) ⊇ [lv, uv); inner ⊆ [lv, uv).
    val loO = cfg.edgeAtOrBelow(range.lv); val hiO = cfg.edgeAtOrAbove(range.uv)
    val loI = cfg.edgeAtOrAbove(range.lv); val hiI = cfg.edgeAtOrBelow(range.uv)

    // Upper bounds: Approach 1 (Eq. 3) on roi̅; Approach 2 (Eq. 4) on roi̲.
    val upper1 = count(ox1, oy1, ox2, oy2, loO, hiO)
    val upper2 =
      if (hasInner) count(ix1, iy1, ix2, iy2, loO, hiO) + roi.area - area(ix1, iy1, ix2, iy2) else roi.area
    // Lower bounds, mirrored: certain pixels inside roi̲ with values certainly
    // in range; or certain pixels in roi̅ minus the pixels possibly outside roi.
    val lower1 = if (hasInner) count(ix1, iy1, ix2, iy2, loI, hiI) else 0L
    val lower2 = count(ox1, oy1, ox2, oy2, loI, hiI) - (area(ox1, oy1, ox2, oy2) - roi.area)

    val upper = math.min(math.min(upper1, upper2), roi.area)
    val lower = math.max(math.max(lower1, lower2), 0L)
    CpBounds(lower, upper)
  }

  /** Uncompressed size of this index in bytes. */
  def sizeBytes: Long = 4L * counts.length
}

/** A `[lower, upper]` interval that is guaranteed to contain the exact CP
  * value. Supports the interval arithmetic used for generic monotone
  * predicates (§3.3) and scalar aggregation (§3.4).
  */
final case class CpBounds(lower: Long, upper: Long) {
  require(lower <= upper, s"inverted bounds [$lower, $upper]")
  def +(o: CpBounds): CpBounds = CpBounds(lower + o.lower, upper + o.upper)
  def -(o: CpBounds): CpBounds = CpBounds(lower - o.upper, upper - o.lower)
  def exact: Boolean = lower == upper
}

object CpBounds {
  def point(v: Long): CpBounds = CpBounds(v, v)

  /** Bounds on `CP(mask, roi, range)` from the mask's CHI; a mask with no
    * index gets the trivial bounds `[0, |roi|]`.
    */
  def of(idx: Option[ChiIndex], roi: Roi, range: ValueRange): CpBounds = idx match {
    case Some(i) => i.bounds(roi, range)
    case None    => CpBounds(0L, roi.area)
  }
}

object ChiIndex {

  /** Number of grid cells along a dimension of `dim` pixels (last may be partial). */
  def nCells(dim: Int, cell: Int): Int = (dim + cell - 1) / cell

  /** Grid boundary `i` along an axis of `dim` pixels: `min(i · cell, dim)`. */
  def boundary(i: Int, dim: Int, cell: Int): Int = math.min(i * cell, dim)

  /** Index of the last grid boundary at or before coordinate `v` (0 ≤ v ≤ dim). */
  def boundaryAtOrBefore(v: Int, dim: Int, cell: Int): Int =
    if (v >= dim) nCells(dim, cell) else v / cell

  /** Index of the first grid boundary at or after coordinate `v` (0 ≤ v ≤ dim). */
  def boundaryAtOrAfter(v: Int, dim: Int, cell: Int): Int = (v + cell - 1) / cell

  /** Build the CHI of `mask` in one pass over its pixels (per-cell
    * histograms) and one over its cells (a suffix sum along the bin axis —
    * reverse cumulative — and a 2-D prefix sum along the spatial axes).
    * O(w·h + cells·bins).
    */
  def build(mask: Mask, cfg: ChiConfig): ChiIndex = {
    val nCx = nCells(mask.w, cfg.cellW)
    val nCy = nCells(mask.h, cfg.cellH)
    val bins = cfg.bins
    val counts = new Array[Int](nCx * nCy * bins)

    def off(cx: Int, cy: Int): Int = (cx * nCy + cy) * bins

    // 1. Per-cell plain histograms.
    var x = 0
    while (x < mask.w) {
      val cx = x / cfg.cellW
      val rowBase = x * mask.h
      var y = 0
      while (y < mask.h) {
        counts(off(cx, y / cfg.cellH) + cfg.bin(mask.data(rowBase + y))) += 1
        y += 1
      }
      x += 1
    }

    // 2. Per cell, in grid order: a suffix sum over bins (entry b becomes
    // "count of pixels with value ≥ edge(b)"), then the 2-D prefix sum over
    // the cells before it, which are already final.
    var cx = 0
    while (cx < nCx) {
      var cy = 0
      while (cy < nCy) {
        val base = off(cx, cy)
        var b = bins - 2
        while (b >= 0) { counts(base + b) += counts(base + b + 1); b -= 1 }
        b = 0
        while (b < bins) {
          var v = counts(base + b)
          if (cx > 0) v += counts(off(cx - 1, cy) + b)
          if (cy > 0) v += counts(off(cx, cy - 1) + b)
          if (cx > 0 && cy > 0) v -= counts(off(cx - 1, cy - 1) + b)
          counts(base + b) = v
          b += 1
        }
        cy += 1
      }
      cx += 1
    }

    new ChiIndex(mask.id, mask.w, mask.h, cfg, counts)
  }
}
