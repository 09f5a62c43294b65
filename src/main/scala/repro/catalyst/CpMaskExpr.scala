package repro.catalyst

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String

import repro.core.{ChiRegistry, CpBounds, Roi, ValueRange}
import repro.store.MaskStore

/** Catalyst expression computing the exact CP function over a mask stored on
  * disk: `cp_mask(mask_id, path, x1, y1, x2, y2, lv, uv) → BIGINT`. Its
  * arguments are typed BIGINT, STRING, INT ×4 and DOUBLE ×2; the function
  * registered by [[MaskSearchSession.registerFunctions]] casts them so.
  *
  * Evaluating it loads the mask file (counted by the store) — which is
  * precisely why [[ChiPushdownRule]] rewrites comparisons against it so that
  * it only runs for masks in the uncertain band. `verifyOnly = true` marks
  * instances the rule has already wrapped, making the rewrite idempotent.
  */
final case class CpMaskExpr(
    children: Seq[Expression],
    store: MaskStore,
    verifyOnly: Boolean,
) extends Expression
    with CodegenFallback {

  override def dataType: DataType = LongType
  override def nullable: Boolean = false
  override def prettyName: String = if (verifyOnly) "cp_mask_verify" else "cp_mask"

  override def eval(input: InternalRow): Any = {
    def arg(i: Int): Any = children(i).eval(input)
    val mask = store.loadPath(arg(1).asInstanceOf[UTF8String].toString)
    mask.cp(
      Roi(arg(2).asInstanceOf[Int], arg(3).asInstanceOf[Int], arg(4).asInstanceOf[Int], arg(5).asInstanceOf[Int]),
      ValueRange(arg(6).asInstanceOf[Double], arg(7).asInstanceOf[Double]),
    )
  }

  override protected def withNewChildrenInternal(newChildren: IndexedSeq[Expression]): Expression =
    copy(children = newChildren)
}

/** Catalyst expression returning the CHI lower or upper bound of a CP call:
  * `chi_bound(mask_id, x1, y1, x2, y2, lv, uv) → BIGINT`. Index lookups only
  * — never touches mask files; masks absent from the registry fall back to
  * the trivial bounds `[0, |roi|]` so the rewrite stays correct.
  */
final case class ChiBoundExpr(
    children: Seq[Expression],
    registry: Broadcast[ChiRegistry],
    upper: Boolean,
) extends Expression
    with CodegenFallback {

  require(children.length == 7, s"chi_bound expects 7 arguments, got ${children.length}")

  override def dataType: DataType = LongType
  override def nullable: Boolean = false
  override def prettyName: String = if (upper) "chi_upper" else "chi_lower"

  override def eval(input: InternalRow): Any = {
    def arg(i: Int): Any = children(i).eval(input)
    val b = CpBounds.of(
      registry.value.get(arg(0).asInstanceOf[Long]),
      Roi(arg(1).asInstanceOf[Int], arg(2).asInstanceOf[Int], arg(3).asInstanceOf[Int], arg(4).asInstanceOf[Int]),
      ValueRange(arg(5).asInstanceOf[Double], arg(6).asInstanceOf[Double]),
    )
    if (upper) b.upper else b.lower
  }

  override protected def withNewChildrenInternal(newChildren: IndexedSeq[Expression]): Expression =
    copy(children = newChildren)
}
