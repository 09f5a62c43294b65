package repro.baseline

import org.apache.spark.sql.DataFrame

import repro.core._
import repro.store.{CatalogRow, MaskStore}

/** The baseline all three systems in the paper's evaluation reduce to
  * (NumPy, PostgreSQL + C UDF, TileDB — §4.1/§4.2): load *every* targeted
  * mask from disk and evaluate the CP function exactly. The paper shows all
  * of them are bottlenecked on mask loading and load the full targeted set
  * (Table 2); this engine reproduces exactly that behaviour as a distributed
  * scan, with loads counted by the store.
  */
object ScanBaseline {

  /** The first k of `vals` by value, ties broken by ascending `id`. */
  private def topK[K](vals: Array[(K, Double)], k: Int, descending: Boolean, id: K => Long): Array[(K, Double)] = {
    val ordered =
      if (descending) vals.sortBy { case (x, v) => (-v, id(x)) }
      else vals.sortBy { case (x, v) => (v, id(x)) }
    ordered.take(k)
  }

  /** Mask selection: `WHERE pred`. */
  def filterMasks(catalog: DataFrame, pred: Predicate, store: MaskStore): FilterVerifyResult =
    QueryStats.measure(store) { stats =>
      val spark = catalog.sparkSession
      import spark.implicits._
      val rows = catalog
        .as[CatalogRow]
        .mapPartitions(rs => rs.filter(r => pred.evalExact(r, store.loadPath(r.path))))
        .collect()
      val n = catalog.count()
      FilterVerifyResult(rows.sortBy(_.mask_id), stats(n, 0, 0, n))
    }

  /** Top-k masks by `expr` (same tie-break as [[repro.core.TopK]]). */
  def topKMasks(
      catalog: DataFrame,
      expr: CpExpr,
      k: Int,
      descending: Boolean,
      store: MaskStore,
  ): TopKResult = QueryStats.measure(store) { stats =>
    val spark = catalog.sparkSession
    import spark.implicits._
    val vals = catalog
      .as[CatalogRow]
      .mapPartitions(rows => rows.map(r => (r, expr.exact(r, store.loadPath(r.path)))))
      .collect()
    TopKResult(topK(vals, k, descending, (r: CatalogRow) => r.mask_id), stats(vals.length, 0, 0, vals.length))
  }

  private def exactGroupValues(
      catalog: DataFrame,
      value: GroupValue,
      store: MaskStore,
  ): Array[(Long, Double)] = {
    val spark = catalog.sparkSession
    import spark.implicits._
    catalog
      .as[CatalogRow]
      .groupByKey(_.image_id)
      .mapGroups { (img, it) =>
        val rows = it.toSeq.sortBy(_.mask_id)
        (img, value.exact(rows, r => store.loadPath(r.path)))
      }
      .collect()
  }

  /** Group filter: `GROUP BY image_id HAVING value op T`. */
  def filterGroups(
      catalog: DataFrame,
      value: GroupValue,
      op: CmpOp,
      threshold: Double,
      store: MaskStore,
  ): GroupFilterResult = QueryStats.measure(store) { stats =>
    val vals = exactGroupValues(catalog, value, store)
    val pass = vals.collect { case (g, v) if op.holds(v, threshold) => g }
    GroupFilterResult(pass.sorted, stats(vals.length, 0, 0, vals.length))
  }

  /** Top-k groups by `value`. */
  def topKGroups(
      catalog: DataFrame,
      value: GroupValue,
      k: Int,
      descending: Boolean,
      store: MaskStore,
  ): GroupTopKResult = QueryStats.measure(store) { stats =>
    val vals = exactGroupValues(catalog, value, store)
    GroupTopKResult(topK(vals, k, descending, identity[Long]), stats(vals.length, 0, 0, vals.length))
  }
}
