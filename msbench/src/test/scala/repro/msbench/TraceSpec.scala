package repro.msbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  private def span(id: Long, s: Long, e: Long) = Span(id, 0, 1, "x", s, e)

  test("union of overlapping, nested and disjoint intervals") {
    assert(Trace.unionUs(Nil) == 0)
    assert(Trace.unionUs(Seq((0L, 10L), (5L, 15L))) == 15)
    assert(Trace.unionUs(Seq((0L, 10L), (2L, 3L))) == 10)
    assert(Trace.unionUs(Seq((20L, 30L), (0L, 10L))) == 20)
    assert(Trace.unionUs(Seq((0L, 10L), (10L, 20L))) == 20)
    assert(Trace.unionUs(Seq((5L, 5L), (7L, 3L))) == 0)
  }

  test("self time subtracts the union of overlapping children once") {
    val parent = span(1, 0, 100)
    val kids = Seq(span(2, 10, 40), span(3, 30, 60), span(4, 35, 45))
    assert(Trace.selfUs(parent, kids) == 100 - 50)
  }

  test("children are clipped to the parent's interval") {
    val parent = span(1, 100, 200)
    assert(Trace.selfUs(parent, Seq(span(2, 50, 150), span(3, 190, 260))) == 100 - 50 - 10)
    assert(Trace.selfUs(parent, Seq(span(2, 0, 50))) == 100)
  }

  test("a tracer records nested spans only when enabled") {
    val on = new Tracer(true)
    val q = on.newId()
    val v = on.span("query", 0, q, q)(on.span("engine.x", q, q)(42))
    assert(v == 42)
    val byName = on.spans.map(s => s.name -> s).toMap
    assert(byName("engine.x").parent == q)
    assert(byName("query").startUs <= byName("engine.x").startUs)
    assert(byName("query").endUs >= byName("engine.x").endUs)
    val off = new Tracer(false)
    off.span("query")(1)
    assert(off.spans.isEmpty)
  }
}
