package repro.msbench

import java.lang.management.ManagementFactory
import java.nio.file.Files

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.bench.BenchData
import repro.core.ChiRegistry
import repro.store.DiskThrottle

/** Turns a run's samples into named metrics, prints them and writes the
  * run's report (and, when traced, its spans) under `.bench_build`.
  */
final class Report(
    w: Workload,
    a: Main.Args,
    spark: SparkSession,
    setup: Main.Setup,
) {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val notes = mutable.ArrayBuffer.empty[String]
  private val extra = mutable.LinkedHashMap.empty[String, Any]
  private val env = Report.env(w, a, spark)

  private def put(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)
  private def note(s: String): Unit = notes += s

  private def latency(prefix: String, xs: Seq[Double], asMetric: Boolean): Unit = if (xs.nonEmpty) {
    val t = Stats.tail(xs)
    val p50 = Stats.median(xs)
    if (asMetric) { put(s"${prefix}_ms_p50", p50, "ms"); put(s"${prefix}_ms_tail", t.value, "ms") }
    note(f"$prefix%-6s latency: p50 $p50%.1f ms, tail p${t.percentile} ${t.value}%.1f ms, n=${t.n}")
    extra(s"${prefix}_tail") = Map("percentile" -> t.percentile, "value_ms" -> t.value, "n" -> t.n, "p50_ms" -> p50)
  }

  /** End-to-end metrics of an untraced run. */
  def endToEnd(samples: Seq[Sample], wallS: Double, data: Map[String, Opened]): Unit = {
    val ok = samples.filter(_.ok)
    latency("query", ok.map(_.ms), asMetric = true)
    latency("filter", ok.filter(_.kind == Kind.Filter).map(_.ms), asMetric = true)
    latency("topk", ok.filter(_.kind == Kind.TopK).map(_.ms), asMetric = false)
    latency("agg", ok.filter(_.kind == Kind.Agg).map(_.ms), asMetric = false)
    put("queries_per_s", ok.size / wallS, "1/s")
    put("masks_loaded_per_query", Stats.mean(samples.map(_.loads.toDouble)), "masks")
    put("mask_mib_read_per_query", Stats.mean(samples.map(_.bytes.toDouble)) / Units.MiB, "MiB")
    put("setup_s", setup.totalS, "s")
    put("index_bytes_per_mask_byte", Report.indexBytes(w, data).toDouble / w.datasets.map(_.rawBytes).sum, "ratio")
    put("driver_heap_mib", Report.heapAfterGcMiB(), "MiB")
    table2(samples)
  }

  /** Table 2 cross-check: engine loads per paper query, and SQL loads
    * against engine loads.
    */
  private def table2(samples: Seq[Sample]): Map[String, Long] = {
    val loads = samples.filter(s => Report.Table2.contains(s.label) || s.label.endsWith(".sql"))
      .groupBy(_.label).map { case (l, ss) => l -> ss.head.loads }
    if (loads.nonEmpty) {
      val diffs = Report.Table2.collect { case (l, v) if loads.get(l).exists(_ != v) => s"$l ${loads(l)} (Table 2: $v)" }
      val sqlDiffs = loads.collect { case (l, v) if l.endsWith(".sql") && loads.get(l.stripSuffix(".sql")).exists(_ != v) =>
        s"$l $v vs engine ${loads(l.stripSuffix(".sql"))}" }
      note("table2 loads: " + Report.Table2.keys.toSeq.sorted.map(l => s"$l=${loads.getOrElse(l, -1L)}").mkString(" "))
      note(if (diffs.isEmpty) "table2 check: all equal to EXPERIMENTS.md Table 2" else "table2 check: DIFFERS " + diffs.mkString("; "))
      note(if (sqlDiffs.isEmpty) "sql check: SQL Q1/Q2 loads equal engine loads" else "sql check: DIFFERS " + sqlDiffs.mkString("; "))
    }
    loads
  }

  /** Per-layer metrics of a traced run. */
  def perLayer(
      st: Seq[Sample],
      tracer: Tracer,
      listener: SparkTrace,
      overhead: Double,
      plan: Plan,
      data: Map[String, Opened],
  ): Unit = {
    val jobs = SparkTrace.jobsByGroup(listener.jobs)
    val owners = SparkTrace.stageOwners(listener.jobs)
    val tasks = listener.taskRecs
    val spans = tracer.spans.map(s => s.id -> s).toMap
    val n = st.size.toDouble

    // Listener events become spark.job → spark.stage → spark.task spans under
    // each query's engine span.
    val stagesById = listener.stageRecs.map(s => s.stageId -> s).toMap
    val tasksByStage = tasks.groupBy(_.stageId)
    var accounted = 0.0
    var querySum = 0.0
    val perQuery = st.map { s =>
      val js = jobs.getOrElse(SparkTrace.group(s.id), Nil)
      val jobSpans = js.map { j =>
        val sp = Span(tracer.newId(), s.engineSpan, s.id, "spark.job", j.startMs * 1000, j.endMs * 1000)
        tracer.add(sp)
        j.stageIds.filter(owners.get(_).contains(j.jobId)).flatMap(stagesById.get).foreach { stg =>
          val ss = Span(tracer.newId(), sp.id, s.id, "spark.stage", stg.submitMs * 1000, stg.endMs * 1000)
          tracer.add(ss)
          tasksByStage.getOrElse(stg.stageId, Nil).foreach(t =>
            tracer.add(Span(tracer.newId(), ss.id, s.id, "spark.task", t.launchMs * 1000, t.finishMs * 1000)))
        }
        sp
      }
      // Engine self time plus its jobs' union is the engine span; the query
      // span adds only the benchmark's own bookkeeping.
      val eng = spans(s.engineSpan)
      val selfUs = Trace.selfUs(eng, jobSpans)
      accounted += eng.durUs
      querySum += spans(s.id).durUs
      (SparkTrace.cost(js, owners, tasks), selfUs / 1000.0)
    }
    def avg(f: SparkCost => Double): Double = perQuery.map(p => f(p._1)).sum / n
    put("spark.jobs", avg(_.jobs), "count")
    put("spark.tasks", avg(_.tasks), "count")
    put("spark.job_ms", avg(_.jobMs), "ms")
    put("spark.task_ms", avg(_.taskMs), "ms")
    put("spark.result_mib", avg(_.resultMiB), "MiB")
    put("spark.shuffle_mib", avg(_.shuffleMiB), "MiB")
    put("driver.self_ms", perQuery.map(_._2).sum / n, "ms")
    put("store.loads", st.map(_.loads).sum / n, "masks")
    put("store.mib_read", st.map(_.bytes).sum / n / Units.MiB, "MiB")

    val filterStats = st.filter(_.kind == Kind.Filter).flatMap(_.outcome).flatMap(_.stats)
    val targeted = math.max(1L, filterStats.map(_.nTargeted).sum).toDouble
    put("engine.pruned_ratio", filterStats.map(_.nPruned).sum / targeted, "ratio")
    put("engine.passed_on_bounds_ratio", filterStats.map(_.nDirect).sum / targeted, "ratio")
    put("engine.verified_ratio", filterStats.map(_.nUncertain).sum / targeted, "ratio")
    val topk = st.filter(_.kind == Kind.TopK).flatMap(_.outcome).filter(_.stats.nonEmpty)
    put("topk.verified_per_k", Stats.mean(topk.map(o => o.stats.get.nUncertain.toDouble / math.max(1, o.answer.ids.size))), "ratio")
    val agg = st.filter(_.kind == Kind.Agg).flatMap(_.outcome).flatMap(_.stats)
    put("agg.groups_verified_ratio", agg.map(_.nUncertain).sum.toDouble / math.max(1L, agg.map(_.nTargeted).sum), "ratio")
    val indexed = st.flatMap(_.outcome).flatMap(_.indexed)
    put("msii.indexed_per_query", Stats.mean(indexed.map(_.toDouble)), "masks")
    put("msii.index_only_query_ratio", if (indexed.isEmpty) 0.0 else indexed.count(_ == 0).toDouble / indexed.size, "ratio")

    // Catalyst and Table 2 loads come from the workload's own queries when it
    // runs them (paper-q1q5), else from one unchecked pass of the paper
    // queries with the throttle off.
    val probe = if (st.exists(_.label.endsWith(".sql"))) None else Some(Report.paperProbe(spark, data))
    val paperSamples = probe.fold(st)(_.samples)
    val sql = paperSamples.filter(_.label.endsWith(".sql"))
    put("catalyst.optimize_ms", Stats.mean(sql.flatMap(_.outcome).flatMap(_.optimizeMs)), "ms")
    put("catalyst.sql_filter_ms", Stats.mean(sql.map(_.ms)), "ms")
    put("catalyst.loads", Stats.mean(sql.map(_.loads.toDouble)), "masks")
    val t2 = table2(paperSamples)
    Report.Table2.keys.toSeq.sorted.foreach(l => put(s"store.loads.$l", t2.getOrElse(l, -1L).toDouble, "masks"))

    Probes.micro(spark, plan.terms).foreach { case (k, v) => put(k, v, if (k.endsWith("_ns")) "ns" else "us") }

    val regs = w match {
      case m: MsiiIngest => Seq(m.registry)
      case _             => data.values.flatMap(_.registry).toSeq
    }
    put("chi.bytes_per_mask", regs.map(_.totalBytes).sum.toDouble / math.max(1, regs.map(_.size).sum), "bytes")
    val (buildS, bcS, serReg) = probe match {
      case Some(p) if !w.buildsRegistry => (p.buildS, p.broadcastS, p.built)
      case _ => (setup.buildS, setup.broadcastS, data.values.flatMap(_.registry).toSeq)
    }
    put("registry.build_s", buildS, "s")
    put("registry.serialized_mib", serReg.map(Probes.serializedBytes).sum / Units.MiB, "MiB")
    put("registry.broadcast_s", bcS, "s")
    put("trace.overhead_ratio", overhead, "ratio")
    put("trace.accounted_ratio", accounted / math.max(1.0, querySum), "ratio")

    val spanFile = BenchPaths.results.resolve(s"${w.name}-seed${a.seed}-spans.json")
    Files.createDirectories(spanFile.getParent)
    Files.write(spanFile, Json.encode(tracer.spans.map(s => Map(
      "id" -> s.id, "parent" -> s.parent, "query" -> s.query, "name" -> s.name,
      "start_us" -> s.startUs, "end_us" -> s.endUs))).getBytes("UTF-8"))
    note(s"spans: ${tracer.spans.size} written to $spanFile")
  }

  /** Print notes, the machine record and the JSON result line; returns the
    * exit code.
    */
  def print(samples: Seq[Sample]): Int = {
    val failed = samples.count(!_.ok)
    val ratio = Stats.failedRatio(samples.size, failed)
    note(f"failed_query_ratio: $ratio%.4f ($failed of ${samples.size})")
    note(f"setup: spark ${setup.sparkS}%.2f s + median of ${Main.SetupReps} repetitions ${setup.datasetsS}%.2f s (CHI build ${setup.buildS}%.2f s, broadcast ${setup.broadcastS}%.2f s)")
    val correct = failed == 0 && metrics.values.forall(v => !v._1.isNaN && !v._1.isInfinite)
    notes.foreach(n => println(s"# $n"))
    metrics.foreach { case (k, (v, u)) => println(f"# $k%-32s $v%14.4f $u") }
    println("# env " + Json.encode(env))
    val report = Map(
      "workload" -> w.name, "seed" -> a.seed, "trace" -> a.trace, "env" -> env,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) },
      "tails" -> extra, "notes" -> notes.toSeq,
      "setup" -> Map("spark_s" -> setup.sparkS, "datasets_s" -> setup.datasetsS, "build_s" -> setup.buildS, "broadcast_s" -> setup.broadcastS),
      "samples" -> samples.map(s => Map("label" -> s.label, "kind" -> s.kind.name, "ms" -> s.ms, "loads" -> s.loads, "ok" -> s.ok, "error" -> s.error)),
    )
    val f = BenchPaths.results.resolve(s"${w.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json")
    Files.createDirectories(f.getParent)
    Files.write(f, Json.encode(report).getBytes("UTF-8"))
    println(Json.encode(Map(
      "correct" -> correct,
      "attempted" -> samples.size,
      "failed" -> failed,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) },
    )))
    if (correct) 0 else 1
  }
}

object Report {

  /** EXPERIMENTS.md Table 2: MaskSearch masks loaded per query. */
  val Table2: Map[String, Long] = Map(
    "wilds-lite.Q1" -> 230L, "wilds-lite.Q2" -> 62L, "wilds-lite.Q3" -> 71L, "wilds-lite.Q4" -> 138L, "wilds-lite.Q5" -> 8L,
    "imagenet-lite.Q1" -> 1474L, "imagenet-lite.Q2" -> 727L, "imagenet-lite.Q3" -> 248L, "imagenet-lite.Q4" -> 546L,
    "imagenet-lite.Q5" -> 18L,
  )

  def heapAfterGcMiB(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / Units.MiB
  }

  def indexBytes(w: Workload, data: Map[String, Opened]): Long = w match {
    case m: MsiiIngest => m.registry.totalBytes
    case _             => data.values.flatMap(_.registry).map(_.totalBytes).sum
  }

  /** A paper-query probe: its samples, and the registries it had to build
    * for datasets the workload holds none of, with their build and broadcast
    * times.
    */
  final case class Probe(samples: Seq[Sample], built: Seq[ChiRegistry], buildS: Double, broadcastS: Double)

  /** One unchecked pass of Table 1's queries (engine and SQL) on both lite
    * datasets with the throttle off. Registries the run lacks are built for
    * the pass (the time of the ImageNet-lite one is kept: the registry probe
    * of a workload that builds none in set-up).
    */
  def paperProbe(spark: SparkSession, data: Map[String, Opened]): Probe = {
    val prev = DiskThrottle.isEnabled
    DiskThrottle.setBandwidthMiBps(0)
    try {
      var times = (0.0, 0.0)
      var built = Seq.empty[ChiRegistry]
      val opened = BenchData.all.map { bd =>
        val o = data.getOrElse(bd.name, Opened(spark, bd))
        if (o.registry.nonEmpty) o
        else {
          val tb = System.nanoTime()
          val reg = ChiRegistry.buildWithAggregates(spark, o.catalog, o.store, bd.cfg)
          val tc = System.nanoTime()
          val bc = ChiRegistry.broadcast(spark, reg)
          if (bd == BenchData.imagenet) { times = ((tc - tb) / 1e9, (System.nanoTime() - tc) / 1e9); built = Seq(reg) }
          o.copy(registry = Some(reg), chiBc = Some(bc))
        }
      }.map(o => o.name -> o).toMap
      val runner = new Runner(spark, new Tracer(false), opened)
      val samples = BenchData.all.flatMap(bd => Workload.paperQueries(opened(bd.name))).map(q => runner.run(q, None))
      Probe(samples, built, times._1, times._2)
    } finally DiskThrottle.setBandwidthMiBps(if (prev) BenchData.DiskMiBps else 0)
  }

  def env(w: Workload, a: Main.Args, spark: SparkSession): Map[String, Any] = Map(
    "workload" -> w.name,
    "seed" -> a.seed,
    "seconds" -> a.seconds,
    "nproc" -> Runtime.getRuntime.availableProcessors(),
    "heap_max_mib" -> Runtime.getRuntime.maxMemory() / Units.MiB,
    "jdk" -> s"${System.getProperty("java.version")} ${System.getProperty("java.vm.name")}",
    "spark" -> spark.version,
    "master" -> spark.sparkContext.master,
    "throttle_setup_mibps" -> 0.0,
    "throttle_query_mibps" -> w.queryMiBps,
    "setup_reps" -> Main.SetupReps,
    "datasets" -> w.datasets.map(bd => Map(
      "name" -> bd.name, "masks" -> bd.ds.nMasks, "w" -> bd.ds.w, "h" -> bd.ds.h,
      "raw_mib" -> bd.rawBytes / Units.MiB,
      "chi" -> Map("cell_w" -> bd.cfg.cellW, "cell_h" -> bd.cfg.cellH, "bins" -> bd.cfg.bins))),
  )
}
