package repro.msbench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.scheduler._

/** A Spark job as seen by the listener; `group` is the job group the
  * benchmark set around the query that launched it.
  */
final case class JobRec(jobId: Int, group: String, startMs: Long, endMs: Long, stageIds: Seq[Int])
final case class StageRec(stageId: Int, submitMs: Long, endMs: Long)
final case class TaskRec(stageId: Int, launchMs: Long, finishMs: Long, runMs: Long, resultBytes: Long, shuffleBytes: Long)

/** Spark-layer totals of one query. */
final case class SparkCost(jobs: Int, tasks: Int, jobMs: Double, taskMs: Double, resultMiB: Double, shuffleMiB: Double)

/** Listener that records job, stage and task events. It is registered only
  * for traced runs; the benchmark tags each query's jobs with a job group
  * named [[SparkTrace.group]].
  */
final class SparkTrace extends SparkListener {
  private val jobStarts = ArrayBuffer.empty[(Int, String, Long, Seq[Int])]
  private val jobEnds = scala.collection.mutable.Map.empty[Int, Long]
  private val stages = ArrayBuffer.empty[StageRec]
  private val tasks = ArrayBuffer.empty[TaskRec]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    jobStarts += ((e.jobId, group, e.time, e.stageIds))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobEnds(e.jobId) = e.time }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val i = e.stageInfo
    for (s <- i.submissionTime; c <- i.completionTime) stages += StageRec(i.stageId, s, c)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = Option(e.taskMetrics)
    tasks += TaskRec(
      e.stageId,
      e.taskInfo.launchTime,
      e.taskInfo.finishTime,
      m.map(_.executorRunTime).getOrElse(0L),
      m.map(_.resultSize).getOrElse(0L),
      m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L),
    )
  }

  def jobs: Seq[JobRec] = synchronized {
    jobStarts.toSeq.map { case (id, g, s, st) => JobRec(id, g, s, jobEnds.getOrElse(id, s), st) }
  }
  def stageRecs: Seq[StageRec] = synchronized(stages.toSeq)
  def taskRecs: Seq[TaskRec] = synchronized(tasks.toSeq)
}

object SparkTrace {

  def group(queryId: Long): String = s"msbench-q$queryId"

  /** Jobs per job group. Jobs launched outside any benchmark query (empty
    * group) are dropped.
    */
  def jobsByGroup(jobs: Seq[JobRec]): Map[String, Seq[JobRec]] =
    jobs.filter(_.group.nonEmpty).groupBy(_.group).map { case (g, js) => g -> js.sortBy(_.jobId) }

  /** Owning job of each executed stage: the lowest-numbered job that lists
    * it (a shuffle stage reused by a later job runs once, in the first).
    */
  def stageOwners(jobs: Seq[JobRec]): Map[Int, Int] =
    jobs.sortBy(_.jobId).reverse.flatMap(j => j.stageIds.map(_ -> j.jobId)).toMap

  /** Spark-layer totals of a set of jobs (one query's). */
  def cost(jobs: Seq[JobRec], owners: Map[Int, Int], tasks: Seq[TaskRec]): SparkCost = {
    val ids = jobs.map(_.jobId).toSet
    val ts = tasks.filter(t => owners.get(t.stageId).exists(ids))
    SparkCost(
      jobs = jobs.size,
      tasks = ts.size,
      jobMs = jobs.map(j => (j.endMs - j.startMs).toDouble).sum,
      taskMs = ts.map(_.runMs.toDouble).sum,
      resultMiB = ts.map(_.resultBytes).sum / Units.MiB,
      shuffleMiB = ts.map(_.shuffleBytes).sum / Units.MiB,
    )
  }
}

object Units {
  val MiB: Double = 1024.0 * 1024.0
}
