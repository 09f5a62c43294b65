package repro.msbench

import scala.util.Random

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.expr

import repro.baseline.ScanBaseline
import repro.bench.{BenchData, BenchDataset, Queries}
import repro.catalyst.MaskSearchSession
import repro.core._
import repro.store.{CatalogRow, MaskStore}
import repro.workload.{Workloads => PaperWorkloads}

/** What a workload runs once set up: every distinct query (for expected
  * answers and the warm-up round) and the queries of timed round `r`.
  * `beforeRound` runs at the start of each round.
  */
final case class Plan(
    expectedKey: String,
    queries: Seq[BenchQuery],
    round: Int => Seq[BenchQuery],
    beforeRound: () => Unit = () => (),
    terms: Seq[(String, CpTerm)] = Nil,
)

/** A benchmark workload. One instance serves one run. */
trait Workload {
  def name: String
  def datasets: Seq[BenchDataset]
  /** Nominal length of one round on a 4-core reference box. A run times
    * round(seconds ÷ roundSeconds) whole rounds (at least one), so every run
    * of a workload does the same work.
    */
  def roundSeconds: Double
  /** Simulated disk bandwidth while queries run (0 = throttle off). */
  def queryMiBps: Double
  /** Whether set-up builds the full CHI registry ahead of the queries. */
  def buildsRegistry: Boolean = true
  /** Extra untimed set-up work a repetition includes (after the registry). */
  def afterOpen(spark: SparkSession, data: Map[String, Opened]): Unit = ()
  def plan(spark: SparkSession, data: Map[String, Opened], seed: Long): Plan
}

object Workload {
  val all: Seq[String] = Seq("paper-q1q5", "adhoc-cpu", "msii-ingest")

  def apply(name: String): Workload = name match {
    case "paper-q1q5"  => new PaperQ1Q5
    case "adhoc-cpu"   => new AdhocCpu
    case "msii-ingest" => new MsiiIngest
    case other         => throw new IllegalArgumentException(s"unknown workload '$other' (one of ${all.mkString(", ")})")
  }

  def filterQuery(label: String, o: Opened, pred: Predicate): BenchQuery =
    BenchQuery(label, Kind.Filter, o.name, "engine.FilterVerify.execute",
      () => { val r = FilterVerify.execute(o.m1, pred, o.store, o.bc); Outcome(Answer(r.maskIds.toSeq, Nil), Some(r.stats)) },
      () => Answer(ScanBaseline.filterMasks(o.m1, pred, o.store).maskIds.toSeq, Nil))

  def topKQuery(label: String, o: Opened, e: CpExpr, k: Int, desc: Boolean): BenchQuery =
    BenchQuery(label, Kind.TopK, o.name, "engine.TopK.masks",
      () => {
        val r = TopK.masks(o.m1, e, k, desc, o.store, o.bc)
        Outcome(Answer(r.maskIds.toSeq, r.rows.map(_._2).toSeq), Some(r.stats))
      },
      () => { val r = ScanBaseline.topKMasks(o.m1, e, k, desc, o.store); Answer(r.maskIds.toSeq, r.rows.map(_._2).toSeq) })

  def aggQuery(label: String, o: Opened, v: GroupValue, k: Int, desc: Boolean): BenchQuery =
    BenchQuery(label, Kind.Agg, o.name, "engine.Aggregation.topKGroups",
      () => {
        val r = Aggregation.topKGroups(o.catalog, v, k, desc, o.store, o.bc)
        Outcome(Answer(r.groupIds.toSeq, r.groups.map(_._2).toSeq), Some(r.stats))
      },
      () => { val r = ScanBaseline.topKGroups(o.catalog, v, k, desc, o.store); Answer(r.groupIds.toSeq, r.groups.map(_._2).toSeq) })

  /** `CP(...) > T` of a one-term predicate as a `cp_mask` SQL condition. */
  def sqlCondition(pred: Predicate): String = (pred.expr, pred.op) match {
    case (CpTermExpr(CpTerm(roi, ValueRange(lv, uv))), Gt) =>
      val box = roi match {
        case ConstRoi(Roi(x1, y1, x2, y2)) => s"$x1, $y1, $x2, $y2"
        case ObjectRoi                     => "ox1, oy1, ox2, oy2"
        case FullRoi                       => "1, 1, w, h"
      }
      s"cp_mask(mask_id, path, $box, $lv, $uv) > ${pred.threshold.toLong}"
    case other => throw new IllegalArgumentException(s"no SQL form for $other")
  }

  /** The same filter as SQL over the model-1 catalog, with the CHI pushdown
    * rule on. The expected answer is the engine query's.
    */
  def sqlQuery(label: String, o: Opened, pred: Predicate, expected: () => Answer): BenchQuery = {
    val cond = sqlCondition(pred)
    BenchQuery(label, Kind.Filter, o.name, "engine.catalyst.sql",
      () => {
        val spark = o.m1.sparkSession
        MaskSearchSession.registerFunctions(spark, o.store)
        MaskSearchSession.enableRule(spark, o.bc)
        try {
          val df = o.m1.filter(expr(cond)).select("mask_id")
          val t0 = System.nanoTime()
          df.queryExecution.optimizedPlan
          val optMs = (System.nanoTime() - t0) / 1e6
          val ids = df.collect().map(_.getLong(0)).toSeq.sorted
          Outcome(Answer(ids, Nil), None, optimizeMs = Some(optMs))
        } finally MaskSearchSession.disableRule(spark)
      },
      expected)
  }

  /** Table 1's Q1–Q5 on one lite dataset through the engines, plus Q1/Q2 as
    * `cp_mask` SQL.
    */
  def paperQueries(o: Opened): Seq[BenchQuery] = {
    val ds = o.name
    Queries.forDataset(o.bd, Queries.paperSideFor(o.bd)).flatMap {
      case Queries.FilterQuery(id, _, pred) =>
        val q = filterQuery(s"$ds.$id", o, pred)
        lazy val exp = q.expected()
        Seq(q.copy(expected = () => exp), sqlQuery(s"$ds.$id.sql", o, pred, () => exp))
      case Queries.TopKQuery(id, _, e, k, desc)          => Seq(topKQuery(s"$ds.$id", o, e, k, desc))
      case Queries.GroupTopKQuery(id, _, v, k, desc)     => Seq(aggQuery(s"$ds.$id", o, v, k, desc))
    }
  }

  def termsOf(q: Queries.Query): Seq[CpTerm] = q match {
    case Queries.FilterQuery(_, _, p)               => p.expr.terms
    case Queries.TopKQuery(_, _, e, _, _)           => e.terms
    case Queries.GroupTopKQuery(_, _, v, _, _)      => groupTerms(v)
  }

  def groupTerms(v: GroupValue): Seq[CpTerm] = v match {
    case ScalarAggValue(_, e)     => e.terms
    case IntersectCpValue(r, rng) => Seq(CpTerm(r, rng))
  }
}

/** Table 1's Q1–Q5 on both lite datasets, and Q1/Q2 through SQL, with the
  * simulated 125 MiB/s disk on: the paper's own regime. The queries are
  * fixed; the seed only orders each round.
  */
final class PaperQ1Q5 extends Workload {
  val name = "paper-q1q5"
  val datasets: Seq[BenchDataset] = Seq(BenchData.wilds, BenchData.imagenet)
  val queryMiBps: Double = BenchData.DiskMiBps
  val roundSeconds = 4.3

  def plan(spark: SparkSession, data: Map[String, Opened], seed: Long): Plan = {
    val qs = datasets.flatMap(bd => Workload.paperQueries(data(bd.name)))
    Plan(
      expectedKey = name,
      queries = qs,
      round = r => new Random(seed * 1_000_003L + r).shuffle(qs),
      terms = datasets.flatMap(bd =>
        Queries.forDataset(bd, Queries.paperSideFor(bd)).flatMap(Workload.termsOf).map(bd.name -> _)),
    )
  }
}

/** §4.3 / Fig 8 random Filter, Top-K and Aggregation queries, interleaved in
  * equal thirds on ImageNet-lite with the disk throttle off, so the filter
  * stage, driver collects and Spark scheduling carry the cost.
  *
  * The query set is one stratified draw of §4.3's generator with a fixed
  * design seed; the run's seed orders each round. A random Top-K or
  * Aggregation query loads anywhere from 0 to 40k masks, so a fresh draw of
  * six per type moved a run's mean loads by about ±40% between seeds and
  * would bury any change in timing noise.
  */
final class AdhocCpu extends Workload {
  val name = "adhoc-cpu"
  val datasets: Seq[BenchDataset] = Seq(BenchData.imagenet)
  val queryMiBps: Double = 0.0
  val roundSeconds = 5.5

  def plan(spark: SparkSession, data: Map[String, Opened], seed: Long): Plan = {
    val o = data(BenchData.imagenet.name)
    val qs = AdhocCpu.queries(o, AdhocCpu.DesignSeed, AdhocCpu.PerType, "adhoc")
    val byKind = qs.map(_._1).groupBy(_.kind)
    Plan(
      expectedKey = s"$name-design${AdhocCpu.DesignSeed}",
      queries = qs.map(_._1),
      // Interleaved thirds; each type's queries in a seed-shuffled order.
      round = r => {
        val rnd = new Random(seed * 1_000_003L + r)
        val cols = Seq(Kind.Filter, Kind.TopK, Kind.Agg).map(k => rnd.shuffle(byKind(k)))
        cols.transpose.flatten
      },
      terms = qs.flatMap(_._2).map(o.name -> _),
    )
  }
}

object AdhocCpu {
  val PerType = 4
  /** The design seed of the query set (Fig8Job's seed). */
  val DesignSeed = 8L
  val K = 25

  /** `n` stratified uniforms in [0,1): one per 1/n slice, shuffled. */
  private def strata(r: Random, n: Int): IndexedSeq[Double] =
    r.shuffle((0 until n).map(i => (i + r.nextDouble()) / n))

  /** Interleaved Filter, Top-K and Aggregation queries with their CP terms. */
  def queries(o: Opened, seed: Long, n: Int, prefix: String): Seq[(BenchQuery, Seq[CpTerm])] = {
    val r = new Random(seed)
    val side = o.bd.ds.w
    val pixels = side.toLong * o.bd.ds.h
    val minSide = 2 * o.bd.cfg.cellW // ROIs span at least two index cells (EXPERIMENTS.md, Fig 8)

    // lv ∈ {0.1 … 0.8}, uv ∈ (lv, 0.9], as in §4.3.
    def range(u: Double): (Double, Double) = {
      val lv10 = 1 + math.min(7, (u * 8).toInt)
      (lv10 / 10.0, (lv10 + 1 + r.nextInt(9 - lv10)) / 10.0)
    }
    def roi(uw: Double, uh: Double): Roi = {
      val x1 = 1 + r.nextInt(side - minSide); val y1 = 1 + r.nextInt(side - minSide)
      Roi(x1, y1,
        x1 + minSide - 1 + (uw * (side - x1 - minSide + 2)).toInt,
        y1 + minSide - 1 + (uh * (side - y1 - minSide + 2)).toInt)
    }
    def dirs(): IndexedSeq[Boolean] = r.shuffle((0 until n).map(_ % 2 == 0))

    val fLv = strata(r, n); val fT = strata(r, n)
    val filters = (0 until n).map { i =>
      val (lv, uv) = range(fLv(i))
      val pred = Predicate(CpExpr.term(ObjectRoi, lv, uv), Gt, math.min(pixels, (fT(i) * (pixels + 1)).toLong).toDouble)
      (Workload.filterQuery(s"$prefix.filter.$i", o, pred), pred.expr.terms)
    }
    val tLv = strata(r, n); val tW = strata(r, n); val tH = strata(r, n); val tD = dirs()
    val topks = (0 until n).map { i =>
      val (lv, uv) = range(tLv(i))
      val e = CpExpr.term(ConstRoi(roi(tW(i), tH(i))), lv, uv)
      (Workload.topKQuery(s"$prefix.topk.$i", o, e, K, tD(i)), e.terms)
    }
    val aLv = strata(r, n); val aW = strata(r, n); val aH = strata(r, n); val aD = dirs()
    val aggs = (0 until n).map { i =>
      val (lv, uv) = range(aLv(i))
      val v = ScalarAggValue(AvgAgg, CpExpr.term(ConstRoi(roi(aW(i), aH(i))), lv, uv))
      (Workload.aggQuery(s"$prefix.agg.$i", o, v, K, aD(i)), Workload.groupTerms(v))
    }
    (0 until n).flatMap(i => Seq(filters(i), topks(i), aggs(i)))
  }
}

/** §4.5 / Fig 11 incremental indexing: an [[IncrementalSession]] that starts
  * from an empty registry runs one session of 20 Filter queries at
  * p_seen = 0.8 on ImageNet-lite, throttle off. Each timed round replays the
  * session in a fresh session, so index building happens inside the queries
  * rather than in set-up.
  *
  * The session's shape (target sizes, seen/unseen split, predicates) is
  * §4.5's generator at a fixed design seed; the run's seed relabels which
  * masks fill it. With the seed driving the generator itself, a session
  * indexed 34k–47k masks and loads per query spread ±20% between seeds.
  */
final class MsiiIngest extends Workload {
  val name = "msii-ingest"
  val datasets: Seq[BenchDataset] = Seq(BenchData.imagenet)
  val queryMiBps: Double = 0.0
  val roundSeconds = 3.2
  override val buildsRegistry = false
  val nQueries = 20
  val pSeen = 0.8

  private var rows: IndexedSeq[CatalogRow] = IndexedSeq.empty
  private var session: IncrementalSession = _

  override def afterOpen(spark: SparkSession, data: Map[String, Opened]): Unit =
    rows = MaskStore.asRows(data(BenchData.imagenet.name).catalog).collect().toIndexedSeq.sortBy(_.mask_id)

  def plan(spark: SparkSession, data: Map[String, Opened], seed: Long): Plan = {
    val o = data(BenchData.imagenet.name)
    val wq = PaperWorkloads.generate(new Random(seed).shuffle(rows), nQueries, pSeen, MsiiIngest.DesignSeed)
    val qs = wq.zipWithIndex.map { case (q, i) =>
      BenchQuery(s"msii.$i", Kind.Filter, o.name, "engine.IncrementalSession.runFilter",
        () => {
          val before = session.indexedCount
          val r = session.runFilter(q.target, q.pred)
          Outcome(Answer(r.maskIds.toSeq, Nil), Some(r.stats), indexed = Some(session.indexedCount - before))
        },
        () => Answer(ScanBaseline.filterMasks(spark.createDataFrame(q.target), q.pred, o.store).maskIds.toSeq, Nil))
    }
    val fresh = () => { session = new IncrementalSession(spark, o.store, o.bd.cfg) }
    fresh()
    Plan(
      expectedKey = s"$name-$seed",
      queries = qs,
      round = _ => qs,
      beforeRound = fresh,
      terms = wq.flatMap(_.pred.expr.terms).map(o.name -> _),
    )
  }

  /** The registry the current session has built so far. */
  def registry: ChiRegistry = session.snapshot
}

object MsiiIngest {
  /** The design seed of the session's shape (Fig11WorkloadBench's ImageNet-lite seed). */
  val DesignSeed = 12L
}
