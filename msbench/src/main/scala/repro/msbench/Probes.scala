package repro.msbench

import java.io.{ObjectOutputStream, OutputStream}

import org.apache.spark.sql.SparkSession

import repro.bench.{BenchData, BenchDataset}
import repro.core.{ChiIndex, ChiRegistry, CpTerm, Mask, Roi, ValueRange}
import repro.store.{DiskThrottle, MaskGen, MaskStore}

/** Single-thread micro loops around the layers' public functions, with the
  * disk throttle off. Each loop warms up, then reports the median per-call
  * time over several batches.
  */
object Probes {

  private val WarmNs = 300_000_000L
  private val BatchNs = 60_000_000L
  private val Batches = 7
  private val SampleMasks = 256

  @volatile private var sink = 0L

  /** Median nanoseconds per call of `op(i)` for i in [0, n). */
  def nsPerOp(n: Int)(op: Int => Long): Double = {
    var acc = 0L
    val tw = System.nanoTime()
    while (System.nanoTime() - tw < WarmNs) { var i = 0; while (i < n) { acc += op(i); i += 1 } }
    val per = (1 to Batches).map { _ =>
      var ops = 0L
      val t0 = System.nanoTime()
      while (System.nanoTime() - t0 < BatchNs) { var i = 0; while (i < n) { acc += op(i); i += 1 }; ops += n }
      (System.nanoTime() - t0).toDouble / ops
    }
    sink += acc
    Stats.median(per)
  }

  /** A spread sample of one dataset's masks with their catalog rows. */
  final case class MaskSample(bd: BenchDataset, store: MaskStore, rows: IndexedSeq[repro.store.CatalogRow], masks: IndexedSeq[Mask])

  def sample(spark: SparkSession, bd: BenchDataset): MaskSample = {
    val store = MaskStore(spark, BenchPaths.data(bd))
    val all = MaskGen.catalog(bd.ds, store).toIndexedSeq
    val step = math.max(1, all.size / SampleMasks)
    val rows = all.indices.by(step).take(SampleMasks).map(all)
    MaskSample(bd, store, rows, rows.map(r => store.loadPath(r.path)))
  }

  /** Layer micro-metrics. `terms` is the workload's ROI/range mix per
    * dataset; bounds and exact-CP loops run over it on the sampled masks.
    */
  def micro(spark: SparkSession, terms: Seq[(String, CpTerm)]): Map[String, Double] = {
    val prev = DiskThrottle.isEnabled
    DiskThrottle.setBandwidthMiBps(0)
    try {
      val wilds = sample(spark, BenchData.wilds)
      val imagenet = sample(spark, BenchData.imagenet)
      val byName = Seq(wilds, imagenet).map(s => s.bd.name -> s).toMap

      def buildUs(s: MaskSample): Double =
        nsPerOp(s.masks.size)(i => ChiIndex.build(s.masks(i), s.bd.cfg).counts.length.toLong) / 1000.0

      // (index, mask, roi, range) over the workload's terms on each dataset.
      val cases: IndexedSeq[(ChiIndex, Mask, Roi, ValueRange)] =
        terms.groupBy(_._1).toIndexedSeq.flatMap { case (ds, ts) =>
          val s = byName(ds)
          val idx = s.masks.map(m => ChiIndex.build(m, s.bd.cfg))
          val distinct = ts.map(_._2).distinct
          s.rows.indices.flatMap(i => distinct.map(t => (idx(i), s.masks(i), t.roi.resolve(s.rows(i)), t.range)))
        }
      val paths = imagenet.rows.map(_.path)

      Map(
        "chi.build_us.56" -> buildUs(imagenet),
        "chi.build_us.112" -> buildUs(wilds),
        "chi.bounds_ns" -> nsPerOp(cases.size) { i => val c = cases(i); val b = c._1.bounds(c._3, c._4); b.lower + b.upper },
        "mask.cp_us" -> nsPerOp(cases.size) { i => val c = cases(i); c._2.cp(c._3, c._4) } / 1000.0,
        "store.load_us" -> nsPerOp(paths.size)(i => imagenet.store.loadPath(paths(i)).w.toLong) / 1000.0,
      )
    } finally DiskThrottle.setBandwidthMiBps(if (prev) BenchData.DiskMiBps else 0)
  }

  /** Java-serialised size of a registry: what a broadcast ships. */
  def serializedBytes(r: ChiRegistry): Long = {
    var n = 0L
    val counting = new OutputStream {
      override def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val out = new ObjectOutputStream(counting)
    out.writeObject(r)
    out.close()
    n
  }
}
