package repro.catalyst

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.expressions.{Cast, Expression}
import org.apache.spark.sql.types.{DoubleType, IntegerType, LongType}

import repro.core.ChiRegistry
import repro.store.MaskStore

/** Wires MaskSearch into a SparkSession:
  *
  *  - registers the SQL function `cp_mask(mask_id, path, x1, y1, x2, y2, lv,
  *    uv)` in the session's function registry, so queries are plain Spark SQL
  *    / `expr(...)` strings over the catalog DataFrame;
  *  - injects [[ChiPushdownRule]] via `spark.experimental.extraOptimizations`.
  *
  * Without the rule, a `cp_mask(...) > T` filter degenerates to the baseline:
  * every row evaluates `cp_mask` and every mask is loaded. With the rule, the
  * same query runs as filter–verification. Tests toggle [[enableRule]] /
  * [[disableRule]] to compare both modes on identical queries.
  */
object MaskSearchSession {

  /** Register `cp_mask` bound to `store`. Safe to call repeatedly. SQL
    * literals arrive as INT, BIGINT, DECIMAL or DOUBLE depending on how the
    * query spells them, so each argument but `path` is cast to the type
    * [[CpMaskExpr]] reads.
    */
  def registerFunctions(spark: SparkSession, store: MaskStore): Unit = {
    spark.sessionState.functionRegistry.createOrReplaceTempFunction(
      "cp_mask",
      (exprs: Seq[Expression]) => {
        require(exprs.length == 8, s"cp_mask expects 8 arguments, got ${exprs.length}")
        val args = Seq(Cast(exprs(0), LongType), exprs(1)) ++
          exprs.slice(2, 6).map(Cast(_, IntegerType)) ++ exprs.drop(6).map(Cast(_, DoubleType))
        CpMaskExpr(args, store, verifyOnly = false)
      },
      "scala_udf",
    )
  }

  /** Inject the CHI pushdown rule (replacing any prior instance). */
  def enableRule(spark: SparkSession, registry: Broadcast[ChiRegistry]): Unit = {
    disableRule(spark)
    spark.experimental.extraOptimizations =
      spark.experimental.extraOptimizations :+ ChiPushdownRule(registry)
  }

  /** Remove all CHI pushdown rules from the session. */
  def disableRule(spark: SparkSession): Unit = {
    spark.experimental.extraOptimizations =
      spark.experimental.extraOptimizations.filterNot(_.isInstanceOf[ChiPushdownRule])
  }
}
