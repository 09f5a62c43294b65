package repro.core

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.store.{CatalogRow, MaskStore}

/** A MaskSearch session with incremental indexing (§3.6) — the paper's MS-II.
  *
  * The session starts with an empty (or previously persisted) registry. Each
  * query splits its targeted masks into indexed and unindexed:
  *
  *  - indexed masks go through the normal filter–verification path (bounds on
  *    the driver-held registry, uncertain ones loaded and verified);
  *  - unindexed masks are answered the baseline way — loaded from disk and
  *    evaluated exactly — and their CHI is built as a side effect of the load
  *    and merged into the registry for future queries.
  *
  * So the cost of indexing a mask is paid at most once, and only if some
  * query actually touches the mask. `persist` saves the registry for future
  * sessions.
  */
final class IncrementalSession(
    spark: SparkSession,
    store: MaskStore,
    val cfg: ChiConfig,
) {

  private val registry = mutable.Map.empty[Long, ChiIndex]

  def indexedCount: Int = registry.size

  def preload(r: ChiRegistry): Unit = registry ++= r.indexes

  /** A snapshot of the current registry. */
  def snapshot: ChiRegistry = new ChiRegistry(cfg, registry.toMap)

  /** Execute a Filter query over the given targeted catalog rows.
    *
    * The filter stage runs on the driver against the session's registry,
    * which is never broadcast: it changes with every query. An unindexed
    * mask is Case 3 by definition — it is loaded anyway, to index it. One
    * Spark job then loads every Case 3 mask, verifies it, and builds the CHI
    * of the unindexed ones, which are merged into the registry.
    */
  def runFilter(target: Seq[CatalogRow], pred: Predicate): FilterVerifyResult = QueryStats.measure(store) { stats =>
    import spark.implicits._
    val outcomes = target.map { r =>
      (r, if (registry.contains(r.mask_id)) pred.classifyRow(r, registry.get(r.mask_id)) else FilterOutcome.Uncertain)
    }
    val toLoad = outcomes.collect { case (r, FilterOutcome.Uncertain) => (r, !registry.contains(r.mask_id)) }

    // Local copies so task closures don't capture `this` (holds SparkSession).
    val cfgLocal = cfg
    val storeLocal = store
    val loaded: Array[(CatalogRow, Boolean, Option[Array[Int]])] =
      if (toLoad.isEmpty) Array.empty
      else
        spark
          .createDataset(toLoad)
          .mapPartitions { rows =>
            rows.map { case (r, unindexed) =>
              val m = storeLocal.loadPath(r.path)
              (r, pred.evalExact(r, m), if (unindexed) Some(ChiIndex.build(m, cfgLocal).counts) else None)
            }
          }
          .collect()

    loaded.foreach { case (r, _, counts) =>
      counts.foreach(c => registry.update(r.mask_id, new ChiIndex(r.mask_id, r.w, r.h, cfg, c)))
    }
    val verified = loaded.map { case (r, ok, _) => r.mask_id -> ok }.toMap
    val (rows, st) = FilterVerify.tally(
      outcomes.map { case (r, o) => FilterVerify.decide(r, o)(verified(r.mask_id)) }.toArray, stats)
    FilterVerifyResult(rows.sortBy(_.mask_id), st)
  }

  /** Persist the registry built so far (end-of-session step of §3.6). */
  def persist(path: String): Unit = ChiRegistry.save(spark, snapshot, path)
}
