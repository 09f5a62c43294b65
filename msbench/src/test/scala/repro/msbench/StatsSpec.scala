package repro.msbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  private def xs(n: Int): Seq[Double] = (1 to n).map(_.toDouble).reverse

  test("nearest-rank percentile and median") {
    assert(Stats.percentile(xs(10), 50) == 5.0)
    assert(Stats.percentile(xs(10), 90) == 9.0)
    assert(Stats.percentile(xs(10), 100) == 10.0)
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
  }

  test("tail is the highest ladder percentile with ten samples beyond it") {
    assert(Stats.tail(xs(20)) == Stats.Tail(50, 10.0, 20))
    assert(Stats.tail(xs(39)) == Stats.Tail(50, 20.0, 39))
    assert(Stats.tail(xs(40)) == Stats.Tail(75, 30.0, 40))
    assert(Stats.tail(xs(100)) == Stats.Tail(90, 90.0, 100))
    assert(Stats.tail(xs(200)) == Stats.Tail(95, 190.0, 200))
    assert(Stats.tail(xs(1000)) == Stats.Tail(99, 990.0, 1000))
  }

  test("tail leaves at least ten samples strictly above its value") {
    for (n <- 20 to 400) {
      val t = Stats.tail(xs(n))
      assert(xs(n).count(_ > t.value) >= Stats.TailBeyond, s"n=$n")
      assert(t.n == n)
    }
  }

  test("with fewer than twenty samples the tail is the maximum") {
    assert(Stats.tail(xs(19)) == Stats.Tail(100, 19.0, 19))
    assert(Stats.tail(Seq(4.0)) == Stats.Tail(100, 4.0, 1))
  }

  test("failed ratio counts failures against attempts") {
    assert(Stats.failedRatio(0, 0) == 0.0)
    assert(Stats.failedRatio(40, 0) == 0.0)
    assert(Stats.failedRatio(40, 10) == 0.25)
  }
}
