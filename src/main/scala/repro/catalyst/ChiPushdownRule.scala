package repro.catalyst

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.plans.logical.{Filter, LogicalPlan}
import org.apache.spark.sql.catalyst.rules.Rule

import repro.core.{ChiRegistry, CmpOp, Gt, Lt}

/** The filter–verification framework (§3.2) expressed as Catalyst predicate
  * pushdown: a logical-plan rule that rewrites
  *
  * {{{
  *   Filter(cp_mask(id, path, roi…, lv, uv) > T, child)
  * }}}
  *
  * into
  *
  * {{{
  *   Filter(chi_lower(…) > T  OR  (chi_upper(…) > T  AND  cp_mask_verify(…) > T), child)
  * }}}
  *
  * Catalyst's `Or`/`And` short-circuit, so per row: a lower bound above T
  * accepts the mask with no disk access (Case 2); an upper bound at or below
  * T rejects it with no disk access (Case 1, via the failed `And` guard); only
  * the uncertain band (Case 3) evaluates `cp_mask_verify`, which loads the
  * mask. `cp < T` is rewritten with the bound roles mirrored (§3.3), and
  * `cp >= T` / `cp <= T` as the negation of the rewritten `cp < T` /
  * `cp > T`, which decides the same rows with the same loads (CP and its
  * bounds are never null). `BETWEEN` is not rewritten: it repeats the
  * `cp_mask` call, and each copy would verify on its own. The rule leaves
  * `verifyOnly` expressions alone, so it is idempotent under the optimizer's
  * fixed-point execution.
  */
final case class ChiPushdownRule(registry: Broadcast[ChiRegistry]) extends Rule[LogicalPlan] {

  /** cp_mask children: (mask_id, path, x1, y1, x2, y2, lv, uv) — the bound
    * expressions take all but `path`.
    */
  private def boundChildren(cp: CpMaskExpr): Seq[Expression] =
    cp.children.head +: cp.children.drop(2)

  private def rewritable(cp: CpMaskExpr): Boolean = !cp.verifyOnly

  /** `cp op t` with the bound roles of `op`: the bound least favourable to
    * the predicate decides Case 2, the most favourable one guards the verify.
    */
  private def rewrite(cp: CpMaskExpr, op: CmpOp, t: Expression): Expression = {
    val lower = ChiBoundExpr(boundChildren(cp), registry, upper = false)
    val upper = ChiBoundExpr(boundChildren(cp), registry, upper = true)
    val (cmp, worst, best): ((Expression, Expression) => Expression, Expression, Expression) = op match {
      case Gt => (GreaterThan(_, _), lower, upper)
      case Lt => (LessThan(_, _), upper, lower)
    }
    Or(cmp(worst, t), And(cmp(best, t), cmp(cp.copy(verifyOnly = true), t)))
  }

  override def apply(plan: LogicalPlan): LogicalPlan = plan.transform {
    case f @ Filter(cond, _) =>
      val rewritten = cond.transformUp {
        // cp > T  /  T < cp
        case GreaterThan(cp: CpMaskExpr, t) if rewritable(cp) && t.deterministic => rewrite(cp, Gt, t)
        case LessThan(t, cp: CpMaskExpr) if rewritable(cp) && t.deterministic   => rewrite(cp, Gt, t)
        // cp < T  /  T > cp
        case LessThan(cp: CpMaskExpr, t) if rewritable(cp) && t.deterministic   => rewrite(cp, Lt, t)
        case GreaterThan(t, cp: CpMaskExpr) if rewritable(cp) && t.deterministic => rewrite(cp, Lt, t)
        // cp >= T  /  T <= cp  is  NOT (cp < T)
        case GreaterThanOrEqual(cp: CpMaskExpr, t) if rewritable(cp) && t.deterministic => Not(rewrite(cp, Lt, t))
        case LessThanOrEqual(t, cp: CpMaskExpr) if rewritable(cp) && t.deterministic    => Not(rewrite(cp, Lt, t))
        // cp <= T  /  T >= cp  is  NOT (cp > T)
        case LessThanOrEqual(cp: CpMaskExpr, t) if rewritable(cp) && t.deterministic    => Not(rewrite(cp, Gt, t))
        case GreaterThanOrEqual(t, cp: CpMaskExpr) if rewritable(cp) && t.deterministic => Not(rewrite(cp, Gt, t))
      }
      if (rewritten fastEquals cond) f else f.copy(condition = rewritten)
  }
}
