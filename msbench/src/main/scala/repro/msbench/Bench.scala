package repro.msbench

import java.nio.file.{Files, Path, Paths}

import scala.util.control.NonFatal

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.bench.BenchDataset
import repro.core.{ChiRegistry, QueryStats}
import repro.store.MaskStore

/** Where a run keeps its files: everything lives under `.bench_build/msbench`
  * of the directory the benchmark is started from.
  */
object BenchPaths {
  val root: Path = Paths.get(".bench_build", "msbench")
  def data(bd: BenchDataset): String = root.resolve("data").resolve(bd.name).toString
  def expected(key: String): Path = root.resolve("expected").resolve(s"$key.tsv")
  def results: Path = root.resolve("results")
  def sparkLocal: String = root.resolve("spark-local").toString
  def warehouse: String = root.resolve("spark-warehouse").toString
}

/** One lite dataset opened for a run: its store, catalog (all masks and the
  * model-1 masks the single-model queries target) and, once built, its CHI
  * registry and broadcast.
  */
final case class Opened(
    bd: BenchDataset,
    store: MaskStore,
    catalog: DataFrame,
    m1: DataFrame,
    registry: Option[ChiRegistry] = None,
    chiBc: Option[Broadcast[ChiRegistry]] = None,
) {
  def name: String = bd.name
  def bc: Broadcast[ChiRegistry] = chiBc.getOrElse(sys.error(s"${bd.name}: no CHI registry built"))
  /** Bytes of one mask file (16-byte header + float32 pixels). */
  def maskFileBytes: Long = 16L + 4L * bd.ds.w * bd.ds.h

  /** Drop cached catalogs and the broadcast (between set-up repetitions). */
  def release(): Unit = {
    chiBc.foreach(_.destroy())
    m1.unpersist()
    catalog.unpersist()
  }
}

object Opened {

  /** Open an already generated dataset: catalog cached and counted. Mask
    * generation stands in for the external saliency pipeline and is done
    * once by `--prepare`, never inside a measured run.
    */
  def apply(spark: SparkSession, bd: BenchDataset): Opened = {
    val base = BenchPaths.data(bd)
    val marker = Paths.get(base, s"_complete_${bd.ds.name}_${bd.ds.seed}")
    require(Files.exists(marker), s"${bd.name} is not generated under $base; run with --prepare first")
    val (store, cat0) = MaskStore.materialize(spark, bd.ds, base)
    val catalog = cat0.cache()
    catalog.count()
    val m1 = catalog.filter("model_id = 1").cache()
    m1.count()
    Opened(bd, store, catalog, m1)
  }
}

sealed abstract class Kind(val name: String)
object Kind {
  case object Filter extends Kind("filter")
  case object TopK extends Kind("topk")
  case object Agg extends Kind("agg")
}

/** A query answer: mask or image ids, plus the exact values of a top-k (in
  * result order; empty for a filter).
  */
final case class Answer(ids: Seq[Long], values: Seq[Double])

object Answer {

  /** A filter answer is compared as a set of ids; a top-k answer by ids,
    * values and order.
    */
  def matches(kind: Kind, expected: Answer, got: Answer): Boolean = kind match {
    case Kind.Filter => expected.ids.sorted == got.ids.sorted
    case _           => expected.ids == got.ids && expected.values == got.values
  }
}

/** What one engine call returned. `indexed` is the number of masks an
  * incremental session indexed during the call; `optimizeMs` the Catalyst
  * optimisation time of a SQL query.
  */
final case class Outcome(
    answer: Answer,
    stats: Option[QueryStats],
    optimizeMs: Option[Double] = None,
    indexed: Option[Int] = None,
)

/** A benchmark query: the engine call under test and its expected answer
  * from the load-everything scan baseline. `engine` names the span around
  * the call.
  */
final case class BenchQuery(
    label: String,
    kind: Kind,
    dataset: String,
    engine: String,
    run: () => Outcome,
    expected: () => Answer,
)

/** One executed query. `engineSpan` is the id of its engine span (0 when
  * untraced).
  */
final case class Sample(
    id: Long,
    engineSpan: Long,
    label: String,
    kind: Kind,
    dataset: String,
    ms: Double,
    loads: Long,
    bytes: Long,
    ok: Boolean,
    error: Option[String],
    outcome: Option[Outcome],
)

/** Runs queries one at a time (a closed loop with one client) and checks
  * each answer against the expected one outside the timed call.
  */
final class Runner(spark: SparkSession, val tracer: Tracer, data: Map[String, Opened]) {

  /** Run one query; `expected = None` runs it unchecked (warm-up, probes). */
  def run(q: BenchQuery, expected: Option[Answer]): Sample = {
    val sc = spark.sparkContext
    val qid = tracer.newId()
    val eid = if (tracer.enabled) tracer.newId() else 0L
    val o = data(q.dataset)
    val before = o.store.loads.value
    sc.setJobGroup(SparkTrace.group(qid), q.label, interruptOnCancel = false)
    val t0 = System.nanoTime()
    val res =
      try Right(tracer.span("query", 0L, qid, qid)(tracer.span(q.engine, qid, qid, eid)(q.run())))
      catch { case NonFatal(e) => Left(e) }
    val ms = (System.nanoTime() - t0) / 1e6
    sc.clearJobGroup()
    val loads = o.store.loads.value - before
    val (ok, err) = res match {
      case Right(out) =>
        expected match {
          case Some(e) if !Answer.matches(q.kind, e, out.answer) =>
            (false, Some(s"wrong answer: expected ${e.ids.take(5).mkString(",")}…, got ${out.answer.ids.take(5).mkString(",")}…"))
          case _ => (true, None)
        }
      case Left(e) => (false, Some(e.toString))
    }
    err.foreach(m => Console.err.println(s"[msbench] ${q.label} failed: $m"))
    Sample(qid, eid, q.label, q.kind, q.dataset, ms, loads, loads * o.maskFileBytes, ok, err, res.toOption)
  }
}

/** Expected answers, computed once per workload input (dataset and seed)
  * with the scan baseline and kept under `.bench_build` for later runs of
  * the same input.
  */
object Expected {

  def load(key: String, queries: Seq[BenchQuery]): Map[String, Answer] = {
    val p = BenchPaths.expected(key)
    val cached: Map[String, Answer] =
      if (!Files.exists(p)) Map.empty
      else
        Files.readAllLines(p).toArray(Array.empty[String]).toSeq.map { line =>
          val parts = line.split("\t", -1)
          def nums[A](s: String, f: String => A): Seq[A] = if (s.isEmpty) Nil else s.split(",").toSeq.map(f)
          parts(0) -> Answer(nums(parts(1), _.toLong), nums(parts(2), _.toDouble))
        }.toMap
    val missing = queries.filterNot(q => cached.contains(q.label))
    if (missing.isEmpty) return cached
    val fresh = missing.map(q => q.label -> q.expected())
    val all = cached ++ fresh
    Files.createDirectories(p.getParent)
    val lines = all.toSeq.sortBy(_._1).map { case (l, a) => s"$l\t${a.ids.mkString(",")}\t${a.values.mkString(",")}" }
    Files.write(p, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
    all
  }
}
