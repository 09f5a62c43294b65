package repro.msbench

import java.lang.management.ManagementFactory

import org.apache.spark.MsbenchAccess
import org.apache.spark.sql.SparkSession

import repro.bench.BenchData
import repro.core.ChiRegistry
import repro.store.{DiskThrottle, MaskStore}

/** Benchmark entry point.
  *
  * {{{
  *   Main --prepare
  *   Main --workload <paper-q1q5|adhoc-cpu|msii-ingest> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * `--prepare` generates the two lite datasets once. A run sets up the
  * workload twice (fresh CHI build each time), computes expected answers with
  * the scan baseline, warms up with one round, then runs whole rounds of the
  * workload in a closed loop with one client, as many as fit `--seconds` on
  * the reference box. With `--trace 0` it prints the end-to-end metrics; with
  * `--trace 1` it runs half the rounds untraced and as many traced and prints
  * the per-layer metrics.
  * The last stdout line is the JSON result; the exit code is non-zero if any
  * query failed.
  */
object Main {

  final case class Args(workload: String = "", seed: Long = 1L, seconds: Double = 10, trace: Boolean = false, prepare: Boolean = false)

  def parse(args: List[String], a: Args = Args()): Args = args match {
    case Nil                       => a
    case "--prepare" :: rest       => parse(rest, a.copy(prepare = true))
    case "--workload" :: v :: rest => parse(rest, a.copy(workload = v))
    case "--seed" :: v :: rest     => parse(rest, a.copy(seed = v.toLong))
    case "--seconds" :: v :: rest  => parse(rest, a.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest    => parse(rest, a.copy(trace = v == "1"))
    case other :: _                => throw new IllegalArgumentException(s"unknown argument $other")
  }

  def session(name: String): SparkSession = {
    val cores = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors()))
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"msbench-$name")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", BenchPaths.sparkLocal)
      .config("spark.sql.warehouse.dir", BenchPaths.warehouse)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv.toList)
    val code = if (a.prepare) prepare() else run(a)
    sys.exit(code)
  }

  def prepare(): Int = {
    val spark = session("prepare")
    try BenchData.all.foreach(bd => MaskStore.materialize(spark, bd.ds, BenchPaths.data(bd)))
    finally spark.stop()
    println("# prepared " + BenchData.all.map(_.name).mkString(", "))
    0
  }

  /** Set-up repetitions per run; `setup_s` adds the median repetition to the
    * SparkSession start.
    */
  val SetupReps = 2

  /** Set-up times: process start → SparkSession ready, then catalogs, CHI
    * build and broadcast (`datasetsS` includes `buildS` and `broadcastS`).
    */
  final case class Setup(sparkS: Double, datasetsS: Double, buildS: Double, broadcastS: Double) {
    def totalS: Double = sparkS + datasetsS
  }

  def run(a: Args): Int = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val w = Workload(a.workload)
    val spark = session(w.name)
    val sparkReadyS = (System.currentTimeMillis() - jvmStartMs) / 1000.0

    // Set-up reads masks the generator just wrote: throttle off.
    DiskThrottle.setBandwidthMiBps(0)
    var data = Map.empty[String, Opened]
    val reps = (1 to SetupReps).map { _ =>
      data.values.foreach(_.release())
      var buildS = 0.0
      var bcS = 0.0
      val t0 = System.nanoTime()
      data = w.datasets.map { bd =>
        val o = Opened(spark, bd)
        if (!w.buildsRegistry) o
        else {
          val tb = System.nanoTime()
          val reg = ChiRegistry.buildWithAggregates(spark, o.catalog, o.store, bd.cfg)
          val tc = System.nanoTime()
          val bc = ChiRegistry.broadcast(spark, reg)
          buildS += (tc - tb) / 1e9
          bcS += (System.nanoTime() - tc) / 1e9
          o.copy(registry = Some(reg), chiBc = Some(bc))
        }
      }.map(o => o.name -> o).toMap
      w.afterOpen(spark, data)
      Setup(sparkReadyS, (System.nanoTime() - t0) / 1e9, buildS, bcS)
    }
    val setup = Setup(sparkReadyS, Stats.median(reps.map(_.datasetsS)),
      Stats.median(reps.map(_.buildS)), Stats.median(reps.map(_.broadcastS)))
    data.values.foreach(_.store.resetLoads())

    val plan = w.plan(spark, data, a.seed)
    val expected = Expected.load(plan.expectedKey, plan.queries)
    val quiet = new Runner(spark, new Tracer(false), data)
    // The first round ran up to 30% slower than later ones (JIT).
    plan.beforeRound()
    plan.queries.foreach(q => quiet.run(q, None))

    DiskThrottle.setBandwidthMiBps(w.queryMiBps)
    val report = new Report(w, a, spark, setup)

    def rounds(r: Runner, n: Int): (Seq[Sample], Double) = {
      val t0 = System.nanoTime()
      val s = (0 until n).flatMap { i =>
        plan.beforeRound()
        plan.round(i).map(q => r.run(q, Some(expected(q.label))))
      }
      (s, (System.nanoTime() - t0) / 1e9)
    }
    val nRounds = math.max(1, math.round(a.seconds / w.roundSeconds).toInt)

    val samples =
      if (!a.trace) {
        val (s, wall) = rounds(quiet, nRounds)
        report.endToEnd(s, wall, data)
        s
      } else {
        val half = math.max(1, nRounds / 2)
        val (su, wallU) = rounds(quiet, half)
        val listener = new SparkTrace
        spark.sparkContext.addSparkListener(listener)
        val traced = new Runner(spark, new Tracer(true), data)
        val (st, wallT) = rounds(traced, half)
        MsbenchAccess.drainListeners(spark.sparkContext)
        spark.sparkContext.removeSparkListener(listener)
        report.perLayer(st, traced.tracer, listener, wallT / wallU, plan, data)
        su ++ st
      }
    spark.stop()
    report.print(samples)
  }
}
