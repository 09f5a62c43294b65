package repro.core

import scala.reflect.ClassTag

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame

import repro.store.{CatalogRow, MaskStore}

/** Result of a top-k query over masks: (row, exact CP-expression value). */
final case class TopKResult(rows: Array[(CatalogRow, Double)], stats: QueryStats) {
  def maskIds: Array[Long] = rows.map(_._1.mask_id)
}

/** Bound-pruned top-k execution (§3.5).
  *
  * The paper processes masks sequentially: the running top-k set R holds
  * *exact* CP values of loaded masks, and a mask is pruned when its upper
  * bound cannot beat min(R). The dataflow-friendly two-phase equivalent used
  * here: (1) compute index-only bounds for every mask, seed R with the k
  * masks ranked best by upper bound and compute their exact values — giving
  * the same exact threshold τ = k-th best value the sequential pass would
  * converge to; (2) prune every remaining mask whose upper bound is strictly
  * worse than τ and verify the survivors. Identical guarantees: a pruned
  * mask is strictly worse than k masks with exact value ≥ τ.
  *
  * Ties are broken by ascending `mask_id` (mirrored in the baseline so result
  * sets are comparable).
  */
object TopK {

  /** The two phases above for any keyed items — masks here, groups in
    * [[Aggregation.topKGroups]]. `bounds` holds `(item, lower, upper)`;
    * `verify` computes the exact values of the items it is given (loading
    * them) and is called only with a non-empty set. Returns the top k as
    * `(item, exact value)`, best first with ties broken by ascending `id`,
    * and the number of items whose exact value was resolved.
    */
  private[core] def boundPruned[K: ClassTag](
      bounds: Array[(K, Double, Double)],
      k: Int,
      descending: Boolean,
      id: K => Long,
  )(verify: Array[K] => Array[(K, Double)]): (Array[(K, Double)], Int) = {
    require(k > 0, s"top-k needs k > 0, got k = $k")

    // Point bounds (lower == upper) pin the exact value from the index alone
    // — the top-k analogue of the filter stage's Case 1/2: no load needed.
    def resolve(items: Array[(K, Double, Double)]): Array[(K, Double)] = {
      val (known, unknown) = items.partition(t => t._2 == t._3)
      known.map(t => (t._1, t._2)) ++ (if (unknown.isEmpty) Array.empty[(K, Double)] else verify(unknown.map(_._1)))
    }

    val exact: Array[(K, Double)] =
      if (bounds.length <= k) resolve(bounds)
      else {
        // Phase 1: seed with the k most promising items (by upper bound for
        // descending order, lower bound for ascending; ties by ascending id)
        // and get exact values. The seeds are the items ranked at or before
        // the k-th, which a partial selection finds without sorting all N.
        val key = bounds.map { case (_, lo, hi) => if (descending) -hi else lo }
        val ids = bounds.map(t => id(t._1))
        def cmp(i: Int, j: Int): Int = {
          val c = java.lang.Double.compare(key(i), key(j))
          if (c != 0) c else java.lang.Long.compare(ids(i), ids(j))
        }
        val kth = kthSmallest(bounds.length, k)(cmp)
        val (seedIdx, restIdx) = Array.range(0, bounds.length).partition(i => cmp(i, kth) <= 0)
        val seed = resolve(seedIdx.map(bounds))
        val tau =
          if (descending) seed.map(_._2).sorted(Ordering[Double].reverse).apply(k - 1)
          else seed.map(_._2).sorted.apply(k - 1)
        // Phase 2: a remaining item survives only if its bound can meet τ.
        val rest = restIdx.map(bounds)
        val candidates =
          if (descending) rest.filter { case (_, _, hi) => hi >= tau }
          else rest.filter { case (_, lo, _) => lo <= tau }
        seed ++ resolve(candidates)
      }

    val ordered =
      if (descending) exact.sortBy { case (x, v) => (-v, id(x)) }
      else exact.sortBy { case (x, v) => (v, id(x)) }
    (ordered.take(k), exact.length)
  }

  /** The index of the k-th smallest of items `0 until n` under the total
    * order `cmp` (1 ≤ k ≤ n): a max-heap of the k best seen so far, O(n log k).
    */
  private def kthSmallest(n: Int, k: Int)(cmp: (Int, Int) => Int): Int = {
    val heap = new java.util.PriorityQueue[Integer](k, (a: Integer, b: Integer) => cmp(b, a))
    for (i <- 0 until n)
      if (heap.size < k) heap.add(i)
      else if (cmp(i, heap.peek) < 0) { heap.poll(); heap.add(i) }
    heap.peek
  }

  def masks(
      catalog: DataFrame,
      expr: CpExpr,
      k: Int,
      descending: Boolean,
      store: MaskStore,
      chi: Broadcast[ChiRegistry],
  ): TopKResult = QueryStats.measure(store) { stats =>
    val spark = catalog.sparkSession
    import spark.implicits._
    val bounds = FilterVerify.boundsPerMask(catalog, expr, chi)
    val (top, nResolved) = boundPruned(bounds, k, descending, (r: CatalogRow) => r.mask_id) { rows =>
      spark
        .createDataset(rows.toIndexedSeq)
        .mapPartitions(rs => rs.map(r => (r, expr.exact(r, store.loadPath(r.path)))))
        .collect()
    }
    // Every resolved mask counts as uncertain, point-bound ones included.
    TopKResult(top, stats(bounds.length, bounds.length - nResolved, 0, nResolved))
  }
}
