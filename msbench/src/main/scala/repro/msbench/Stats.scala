package repro.msbench

/** Order statistics used for every reported timing. */
object Stats {

  /** Candidate tail percentiles, highest last. A fixed ladder keeps the
    * reported percentile the same from run to run when the sample count
    * only moves a little.
    */
  val TailLadder: Seq[Int] = Seq(50, 75, 90, 95, 99)

  /** Samples a tail percentile must leave above it. */
  val TailBeyond = 10

  /** 1-based nearest rank of percentile `p` among `n` samples. */
  def rank(p: Double, n: Int): Int = math.max(1, math.ceil(p / 100.0 * n - 1e-9).toInt)

  /** Nearest-rank percentile of unsorted samples. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    s(rank(p, s.size) - 1)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** A tail percentile: which one, its value and the sample count. */
  final case class Tail(percentile: Int, value: Double, n: Int)

  /** The highest ladder percentile with at least [[TailBeyond]] samples
    * strictly beyond its rank. With fewer than 20 samples no ladder entry
    * qualifies, and the tail is the maximum (percentile 100).
    */
  def tail(xs: Seq[Double]): Tail = {
    val n = xs.size
    val p = TailLadder.filter(p => n - rank(p, n) >= TailBeyond).lastOption.getOrElse(100)
    Tail(p, percentile(xs, p), n)
  }

  /** Failed share of attempted queries (0 when nothing was attempted). */
  def failedRatio(attempted: Int, failed: Int): Double =
    if (attempted == 0) 0.0 else failed.toDouble / attempted
}
