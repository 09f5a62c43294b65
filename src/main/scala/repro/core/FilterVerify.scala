package repro.core

import scala.reflect.ClassTag

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame

import repro.store.{CatalogRow, MaskStore}

/** Per-query execution statistics — the quantities the paper reports: the
  * number of masks loaded from disk (Table 2) and the fraction of masks
  * loaded, FML (§4.4), plus the Case 1/2/3 split of the filter stage.
  */
final case class QueryStats(
    nTargeted: Long,
    nPruned: Long,
    nDirect: Long,
    nUncertain: Long,
    masksLoaded: Long,
    elapsedMs: Long,
) {
  def fml: Double = if (nTargeted == 0) 0.0 else masksLoaded.toDouble / nTargeted
}

object QueryStats {

  /** Stamps a query's Case split `(nTargeted, nPruned, nDirect, nUncertain)`
    * with the masks loaded and the time elapsed since the query started.
    */
  type Stamp = (Long, Long, Long, Long) => QueryStats

  /** Runs one query against `store`. The query calls the [[Stamp]] it is
    * given once its Case split is known; the stamp measures the loads the
    * store counted and the wall time since `measure` was entered.
    */
  def measure[R](store: MaskStore)(query: Stamp => R): R = {
    val loadsBefore = store.loads.value
    val t0 = System.nanoTime()
    query((nTargeted, nPruned, nDirect, nUncertain) =>
      QueryStats(nTargeted, nPruned, nDirect, nUncertain, store.loads.value - loadsBefore,
        (System.nanoTime() - t0) / 1_000_000))
  }
}

/** Result of a mask-selection query: the catalog rows of the masks that
  * satisfy the predicate, plus execution statistics.
  */
final case class FilterVerifyResult(rows: Array[CatalogRow], stats: QueryStats) {
  def maskIds: Array[Long] = rows.map(_.mask_id).sorted
}

/** The paper's filter–verification query execution framework (§3.2).
  *
  * Filter stage: every targeted item (a mask, or a group of masks) is
  * classified from index-only bounds into guaranteed-fail / guaranteed-pass /
  * uncertain ([[CmpOp.classify]]). Verification stage: only the uncertain
  * items are loaded from disk (counted by the store) and tested exactly.
  * Results are exact by construction. [[execute]] runs it for masks;
  * [[Aggregation.filterGroups]] and [[IncrementalSession.runFilter]] run the
  * same two stages through [[decide]] and [[tally]].
  */
object FilterVerify {

  /** One item through both stages: its filter-stage outcome and whether it
    * qualifies. `verify` — the exact test, which loads — runs in Case 3 only.
    */
  private[core] def decide[K](item: K, outcome: Int)(verify: => Boolean): (K, Int, Boolean) =
    (item, outcome, outcome match {
      case FilterOutcome.Pass => true
      case FilterOutcome.Fail => false
      case _                  => verify
    })

  /** The qualifying items of a filter–verification pass and its stats. */
  private[core] def tally[K: ClassTag](decided: Array[(K, Int, Boolean)], stats: QueryStats.Stamp): (Array[K], QueryStats) = {
    val nDirect = decided.count(_._2 == FilterOutcome.Pass)
    val nUncertain = decided.count(_._2 == FilterOutcome.Uncertain)
    val n = decided.length.toLong
    (decided.collect { case (x, _, true) => x }, stats(n, n - nDirect - nUncertain, nDirect, nUncertain))
  }

  def execute(
      catalog: DataFrame,
      pred: Predicate,
      store: MaskStore,
      chi: Broadcast[ChiRegistry],
  ): FilterVerifyResult = QueryStats.measure(store) { stats =>
    val spark = catalog.sparkSession
    import spark.implicits._
    // Both stages fused in one distributed pass: every task classifies its
    // masks from the broadcast CHI (no disk) and immediately verifies the
    // uncertain ones by loading them — the mask-level parallelism of §3.2.1
    // with a single job's scheduling overhead.
    val decided = catalog
      .as[CatalogRow]
      .mapPartitions { rows =>
        rows.map { r =>
          decide(r, pred.classifyRow(r, chi.value.get(r.mask_id)))(pred.evalExact(r, store.loadPath(r.path)))
        }
      }
      .collect() // catalog metadata only — small relative to mask bytes
    val (rows, st) = tally(decided, stats)
    FilterVerifyResult(rows.sortBy(_.mask_id), st)
  }

  /** Index-only bounds `(row, lower, upper)` of `expr` for every targeted
    * mask: the filter stage of [[TopK.masks]] and the data of the paper's
    * Figure 10 bound-distribution analysis.
    */
  def boundsPerMask(
      catalog: DataFrame,
      expr: CpExpr,
      chi: Broadcast[ChiRegistry],
  ): Array[(CatalogRow, Double, Double)] = {
    val spark = catalog.sparkSession
    import spark.implicits._
    catalog
      .as[CatalogRow]
      .map { r =>
        val (lo, hi) = Predicate.rowBounds(expr, r, chi.value.get(r.mask_id))
        (r, lo, hi)
      }
      .collect()
  }
}
