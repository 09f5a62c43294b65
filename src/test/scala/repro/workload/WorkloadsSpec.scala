package repro.workload

import repro.{SparkSpec, TestData}
import repro.core.{Gt, ObjectRoi, CpTermExpr}

/** Tests for the §4.5 multi-query workload generator. */
class WorkloadsSpec extends SparkSpec {
  import TestData._

  private lazy val rows =
    repro.store.MaskStore.asRows(catalog).collect().toIndexedSeq.sortBy(_.mask_id)

  test("workload has the requested number of queries") {
    assert(Workloads.generate(rows, 20, 0.5, seed = 1).size == 20)
  }

  test("generation is deterministic in the seed") {
    val a = Workloads.generate(rows, 10, 0.5, seed = 42)
    val b = Workloads.generate(rows, 10, 0.5, seed = 42)
    assert(a.map(_.target.map(_.mask_id)) == b.map(_.target.map(_.mask_id)))
    assert(a.map(_.pred.toString) == b.map(_.pred.toString))
  }

  test("each query targets 10–30% of the dataset") {
    val w = Workloads.generate(rows, 30, 0.5, seed = 2)
    w.foreach { q =>
      val frac = q.target.size.toDouble / rows.size
      assert(frac >= 0.08 && frac <= 0.32, s"target fraction $frac")
    }
  }

  test("targets contain no duplicates") {
    Workloads.generate(rows, 20, 0.8, seed = 3).foreach { q =>
      assert(q.target.map(_.mask_id).distinct.size == q.target.size)
    }
  }

  test("p_seen = 1.0 never grows the seen set after warm-up (paper Workload 4)") {
    val w = Workloads.generate(rows, 40, 1.0, seed = 4)
    val seen = scala.collection.mutable.Set.empty[Long]
    seen ++= w.head.target.map(_.mask_id)
    val sizeAfterFirst = seen.size
    w.tail.foreach(q => seen ++= q.target.map(_.mask_id))
    // With p_seen = 1.0, only the first query introduces unseen masks.
    assert(seen.size == sizeAfterFirst)
    // And the full dataset is never exhausted: at most 30% ever targeted.
    assert(seen.size <= (rows.size * 0.31).toInt)
  }

  test("p_seen = 0.2 explores the dataset fast; eventually all masks are seen") {
    val w = Workloads.generate(rows, 40, 0.2, seed = 5)
    val seen = scala.collection.mutable.Set.empty[Long]
    w.foreach(q => seen ++= q.target.map(_.mask_id))
    assert(seen.size == rows.size, s"only ${seen.size}/${rows.size} masks explored")
  }

  test("lower p_seen explores faster than higher p_seen") {
    def seenAfter(pSeen: Double, n: Int): Int = {
      val w = Workloads.generate(rows, n, pSeen, seed = 6)
      val s = scala.collection.mutable.Set.empty[Long]
      w.foreach(q => s ++= q.target.map(_.mask_id))
      s.size
    }
    assert(seenAfter(0.2, 8) > seenAfter(0.8, 8))
  }

  test("random predicates follow the §4.3 distribution") {
    val r = new scala.util.Random(7)
    for (_ <- 0 until 50) {
      val p = Workloads.randomFilterPredicate(r, 1024)
      assert(p.op == Gt)
      val t = p.expr.asInstanceOf[CpTermExpr].t
      assert(t.roi == ObjectRoi)
      assert(t.range.lv >= 0.1 - 1e-9 && t.range.lv <= 0.8 + 1e-9)
      assert(t.range.uv > t.range.lv && t.range.uv <= 0.9 + 1e-9)
      assert(p.threshold >= 0 && p.threshold <= 1024)
    }
  }

  test("randomRange draws 0.1 <= lv < uv <= 0.9 on the 0.1 grid") {
    val r = new scala.util.Random(8)
    for (_ <- 0 until 200) {
      val (lv, uv) = Workloads.randomRange(r)
      assert(0.1 <= lv && lv < uv && uv <= 0.9, s"($lv, $uv)")
      for (v <- Seq(lv, uv)) assert(v == math.round(v * 10) / 10.0, s"$v is off the 0.1 grid")
    }
  }
}
