package repro.msbench

import scala.collection.mutable.ArrayBuffer

/** One recorded interval. Times are microseconds on the wall clock, so spans
  * recorded around benchmark calls line up with the millisecond timestamps
  * of Spark listener events. `parent` is 0 for a root; `query` ties every
  * span of one query together (0 outside queries).
  */
final case class Span(id: Long, parent: Long, query: Long, name: String, startUs: Long, endUs: Long) {
  def durUs: Long = endUs - startUs
}

object Trace {

  /** Total length covered by a set of possibly overlapping intervals. */
  def unionUs(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    intervals.filter(i => i._2 > i._1).sortBy(_._1).foreach { case (s, e) =>
      if (s > curE) {
        if (curE > curS) total += curE - curS
        curS = s; curE = e
      } else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total
  }

  /** Self time: the span's duration minus the part of its interval covered
    * by the union of its children (children are clipped to the parent).
    */
  def selfUs(span: Span, children: Seq[Span]): Long =
    span.durUs - unionUs(children.map(c => (math.max(c.startUs, span.startUs), math.min(c.endUs, span.endUs))))
}

/** In-memory span recorder. Spans are kept until the run ends and written
  * out then; nothing is recorded while `enabled` is false.
  */
final class Tracer(val enabled: Boolean) {
  private val baseUs = System.currentTimeMillis() * 1000L
  private val baseNs = System.nanoTime()
  private var nextId = 1L
  private val buf = ArrayBuffer.empty[Span]

  def nowUs: Long = baseUs + (System.nanoTime() - baseNs) / 1000L

  def spans: Seq[Span] = buf.toSeq

  def newId(): Long = synchronized { val id = nextId; nextId += 1; id }

  /** Add a span built elsewhere (e.g. from listener events). */
  def add(s: Span): Unit = if (enabled) synchronized { buf += s }

  /** Time `f` as span `name`; returns its result and the span id (0 when
    * tracing is off).
    */
  def span[A](name: String, parent: Long = 0L, query: Long = 0L, id: Long = 0L)(f: => A): A = {
    if (!enabled) return f
    val sid = if (id == 0L) newId() else id
    val s = nowUs
    try f
    finally add(Span(sid, parent, query, name, s, nowUs))
  }
}
