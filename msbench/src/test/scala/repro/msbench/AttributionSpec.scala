package repro.msbench

import org.apache.spark.MsbenchAccess
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import repro.bench.BenchData
import repro.store.MaskStore

class AttributionSpec extends AnyFunSuite with BeforeAndAfterAll {

  test("jobs are attributed to queries by job group") {
    val jobs = Seq(
      JobRec(0, "msbench-q1", 0, 10, Seq(0)),
      JobRec(1, "", 10, 12, Seq(1)),
      JobRec(3, "msbench-q2", 20, 30, Seq(3, 4)),
      JobRec(2, "msbench-q2", 12, 18, Seq(2)),
    )
    val g = SparkTrace.jobsByGroup(jobs)
    assert(g.keySet == Set("msbench-q1", "msbench-q2"))
    assert(g("msbench-q2").map(_.jobId) == Seq(2, 3))
  }

  test("a stage listed by several jobs is owned by the first, and costs add up per query") {
    val jobs = Seq(JobRec(5, "a", 0, 10, Seq(7)), JobRec(6, "a", 10, 30, Seq(7, 8)))
    val owners = SparkTrace.stageOwners(jobs)
    assert(owners == Map(7 -> 5, 8 -> 6))
    val tasks = Seq(
      TaskRec(7, 0, 5, 4, 1024 * 1024, 0),
      TaskRec(8, 12, 20, 6, 0, 2 * 1024 * 1024),
      TaskRec(9, 0, 1, 100, 0, 0),
    )
    val c = SparkTrace.cost(jobs, owners, tasks)
    assert(c == SparkCost(jobs = 2, tasks = 2, jobMs = 30, taskMs = 10, resultMiB = 1.0, shuffleMiB = 2.0))
  }

  private lazy val spark = SparkSession.builder.master("local[2]").appName("attribution")
    .config("spark.ui.enabled", "false").getOrCreate()

  override def afterAll(): Unit = spark.stop()

  test("the listener ties each query's jobs to it through the job group") {
    val sc = spark.sparkContext
    val listener = new SparkTrace
    sc.addSparkListener(listener)
    sc.setJobGroup(SparkTrace.group(1), "one", interruptOnCancel = false)
    sc.parallelize(1 to 10, 2).count()
    sc.setJobGroup(SparkTrace.group(2), "two", interruptOnCancel = false)
    sc.parallelize(1 to 10, 3).map(_ % 2).distinct().count()
    sc.clearJobGroup()
    sc.parallelize(1 to 10, 1).count()
    MsbenchAccess.drainListeners(sc)
    sc.removeSparkListener(listener)
    val g = SparkTrace.jobsByGroup(listener.jobs)
    assert(g(SparkTrace.group(1)).size == 1)
    assert(g(SparkTrace.group(2)).size == 1)
    assert(listener.jobs.size == 3)
    val owners = SparkTrace.stageOwners(listener.jobs)
    assert(SparkTrace.cost(g(SparkTrace.group(1)), owners, listener.taskRecs).tasks == 2)
    assert(SparkTrace.cost(g(SparkTrace.group(2)), owners, listener.taskRecs).tasks > 3)
  }

  test("the runner counts wrong answers and exceptions as failed queries") {
    val empty = spark.emptyDataFrame
    val o = Opened(BenchData.imagenet, MaskStore(spark, "unused"), empty, empty)
    val runner = new Runner(spark, new Tracer(false), Map(o.name -> o))
    val right = Answer(Seq(1L, 2L), Nil)
    def q(f: () => Outcome) = BenchQuery("q", Kind.Filter, o.name, "engine.test", f, () => right)
    val samples = Seq(
      runner.run(q(() => Outcome(Answer(Seq(2L, 1L), Nil), None)), Some(right)),
      runner.run(q(() => Outcome(Answer(Seq(1L), Nil), None)), Some(right)),
      runner.run(q(() => throw new IllegalStateException("boom")), Some(right)),
      runner.run(q(() => Outcome(Answer(Seq(1L), Nil), None)), None),
    )
    assert(samples.map(_.ok) == Seq(true, false, false, true))
    assert(samples(2).error.exists(_.contains("boom")))
    assert(Stats.failedRatio(samples.size, samples.count(!_.ok)) == 0.5)
  }
}

class AnswerSpec extends AnyFunSuite {

  test("filter answers compare as id sets") {
    assert(Answer.matches(Kind.Filter, Answer(Seq(3, 1, 2), Nil), Answer(Seq(1, 2, 3), Nil)))
    assert(!Answer.matches(Kind.Filter, Answer(Seq(1, 2), Nil), Answer(Seq(1, 2, 3), Nil)))
  }

  test("top-k answers compare ids, exact values and order") {
    val e = Answer(Seq(4, 9), Seq(10.0, 7.0))
    assert(Answer.matches(Kind.TopK, e, Answer(Seq(4, 9), Seq(10.0, 7.0))))
    assert(!Answer.matches(Kind.TopK, e, Answer(Seq(9, 4), Seq(7.0, 10.0))))
    assert(!Answer.matches(Kind.Agg, e, Answer(Seq(4, 9), Seq(10.0, 7.5))))
  }
}
