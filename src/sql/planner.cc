#include "sql/planner.h"

#include <algorithm>
#include <set>

#include "common/types.h"

namespace odh::sql {
namespace {

struct JoinEdge {
  int table_a, column_a;
  int table_b, column_b;
};

/// Collects WHERE conjuncts (flattening AND).
void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr->kind() == ExprKind::kBinary) {
    const auto* bin = static_cast<const BinaryExpr*>(expr);
    if (bin->op == BinaryOp::kAnd) {
      SplitConjuncts(bin->left.get(), out);
      SplitConjuncts(bin->right.get(), out);
      return;
    }
  }
  out->push_back(expr);
}

const ColumnRefExpr* AsColumnRef(const Expr* expr) {
  return expr->kind() == ExprKind::kColumnRef
             ? static_cast<const ColumnRefExpr*>(expr)
             : nullptr;
}

/// Resolves `expr` to an execution-time constant — a literal, or a `?`
/// parameter whose value the evaluator holds — coerced toward the
/// comparison column's type so `ts > ?` prunes partitions exactly like a
/// literal bound. False means "not a usable constant" and the conjunct
/// stays residual (which also gives NULL params their SQL semantics: the
/// row filter evaluates `col = NULL` to NULL, i.e. no rows).
bool ResolveComparand(const ExprEvaluator* eval, const Expr* expr,
                      const ColumnRefExpr* ref, Datum* out) {
  const Datum* v = eval == nullptr ? nullptr : eval->ResolveConstant(expr);
  if (v == nullptr || v->is_null()) return false;
  if (ref->type == DataType::kTimestamp && !v->is_timestamp()) {
    if (v->is_int64()) {
      *out = Datum::Time(v->int64_value());
      return true;
    }
    if (v->is_string()) {
      Timestamp ts;
      if (!ParseTimestamp(v->string_value(), &ts)) return false;
      *out = Datum::Time(ts);
      return true;
    }
    return false;  // e.g. double vs timestamp: keep it residual.
  }
  *out = *v;
  return true;
}

/// Tries to turn a conjunct into a pushable single-table constraint.
bool ExtractConstraint(const Expr* expr, const ExprEvaluator* eval,
                       int* table_no, ColumnConstraint* constraint) {
  if (expr->kind() == ExprKind::kBetween) {
    const auto* between = static_cast<const BetweenExpr*>(expr);
    const ColumnRefExpr* ref = AsColumnRef(between->value.get());
    if (ref == nullptr) return false;
    Datum lo, hi;
    if (!ResolveComparand(eval, between->lower.get(), ref, &lo) ||
        !ResolveComparand(eval, between->upper.get(), ref, &hi)) {
      return false;
    }
    *table_no = ref->table_no;
    constraint->column = ref->column_no;
    constraint->lower = Bound{std::move(lo), true};
    constraint->upper = Bound{std::move(hi), true};
    return true;
  }
  if (expr->kind() != ExprKind::kBinary) return false;
  const auto* bin = static_cast<const BinaryExpr*>(expr);
  const ColumnRefExpr* ref = AsColumnRef(bin->left.get());
  const Expr* other = bin->right.get();
  BinaryOp op = bin->op;
  if (ref == nullptr) {
    // Try the mirrored orientation (constant OP column).
    ref = AsColumnRef(bin->right.get());
    other = bin->left.get();
    if (ref == nullptr) return false;
    switch (op) {  // Mirror the operator.
      case BinaryOp::kLt:
        op = BinaryOp::kGt;
        break;
      case BinaryOp::kLe:
        op = BinaryOp::kGe;
        break;
      case BinaryOp::kGt:
        op = BinaryOp::kLt;
        break;
      case BinaryOp::kGe:
        op = BinaryOp::kLe;
        break;
      default:
        break;
    }
  }
  Datum value;
  if (!ResolveComparand(eval, other, ref, &value)) return false;
  *table_no = ref->table_no;
  constraint->column = ref->column_no;
  switch (op) {
    case BinaryOp::kEq:
      constraint->equals = std::move(value);
      return true;
    case BinaryOp::kLt:
      constraint->upper = Bound{std::move(value), false};
      return true;
    case BinaryOp::kLe:
      constraint->upper = Bound{std::move(value), true};
      return true;
    case BinaryOp::kGt:
      constraint->lower = Bound{std::move(value), false};
      return true;
    case BinaryOp::kGe:
      constraint->lower = Bound{std::move(value), true};
      return true;
    default:
      return false;
  }
}

/// Narrows `existing` (a constraint on the same column) to its intersection
/// with `incoming`. Returns false and leaves `existing` as it was when the
/// merge is not a range intersection: `=` on either side (an equality wins
/// over the bounds in every provider, so merging it would lose one side),
/// or a bound that does not compare with the one it would replace.
bool IntersectRange(const ColumnConstraint& incoming,
                    ColumnConstraint* existing) {
  if (incoming.equals.has_value() || existing->equals.has_value()) {
    return false;
  }
  // `tighter` is the sign of incoming vs existing that narrows the range.
  auto narrows = [](const std::optional<Bound>& in,
                    const std::optional<Bound>& have, int tighter,
                    bool* take) {
    *take = false;
    if (!in.has_value()) return true;
    if (!have.has_value()) return *take = true;
    int cmp;
    bool null_cmp;
    if (!in->value.Compare(have->value, &cmp, &null_cmp) || null_cmp) {
      return false;
    }
    // On equal values an exclusive bound is strictly tighter than an
    // inclusive one, so it must win the merge in either order.
    *take = cmp == tighter || (cmp == 0 && !in->inclusive);
    return true;
  };
  bool take_lower, take_upper;
  if (!narrows(incoming.lower, existing->lower, 1, &take_lower) ||
      !narrows(incoming.upper, existing->upper, -1, &take_upper)) {
    return false;
  }
  if (take_lower) existing->lower = incoming.lower;
  if (take_upper) existing->upper = incoming.upper;
  return true;
}

bool ExtractJoinEdge(const Expr* expr, JoinEdge* edge) {
  if (expr->kind() != ExprKind::kBinary) return false;
  const auto* bin = static_cast<const BinaryExpr*>(expr);
  if (bin->op != BinaryOp::kEq) return false;
  const ColumnRefExpr* a = AsColumnRef(bin->left.get());
  const ColumnRefExpr* b = AsColumnRef(bin->right.get());
  if (a == nullptr || b == nullptr || a->table_no == b->table_no) {
    return false;
  }
  edge->table_a = a->table_no;
  edge->column_a = a->column_no;
  edge->table_b = b->table_no;
  edge->column_b = b->column_no;
  return true;
}

/// Collects which columns of each table the query touches (projection
/// pushdown — the lever behind ODH's tag-oriented decode savings).
void CollectColumns(const Expr* expr, std::vector<std::set<int>>* cols) {
  switch (expr->kind()) {
    case ExprKind::kColumnRef: {
      const auto* ref = static_cast<const ColumnRefExpr*>(expr);
      (*cols)[ref->table_no].insert(ref->column_no);
      return;
    }
    case ExprKind::kBinary: {
      const auto* bin = static_cast<const BinaryExpr*>(expr);
      CollectColumns(bin->left.get(), cols);
      CollectColumns(bin->right.get(), cols);
      return;
    }
    case ExprKind::kBetween: {
      const auto* between = static_cast<const BetweenExpr*>(expr);
      CollectColumns(between->value.get(), cols);
      CollectColumns(between->lower.get(), cols);
      CollectColumns(between->upper.get(), cols);
      return;
    }
    case ExprKind::kNot:
      CollectColumns(static_cast<const NotExpr*>(expr)->operand.get(), cols);
      return;
    case ExprKind::kIsNull:
      CollectColumns(static_cast<const IsNullExpr*>(expr)->operand.get(),
                     cols);
      return;
    case ExprKind::kAggregate: {
      const auto* agg = static_cast<const AggregateExpr*>(expr);
      if (agg->arg != nullptr) CollectColumns(agg->arg.get(), cols);
      return;
    }
    case ExprKind::kLiteral:
    case ExprKind::kParameter:
      return;
  }
}

/// True when `expr` touches columns only through aggregate functions —
/// the condition under which an ungrouped aggregate query's outputs can
/// be finalized without a representative row (aggregate pushdown).
bool ColumnsOnlyInsideAggregates(const Expr* expr) {
  switch (expr->kind()) {
    case ExprKind::kColumnRef:
      return false;
    case ExprKind::kAggregate:
    case ExprKind::kLiteral:
    case ExprKind::kParameter:
      return true;
    case ExprKind::kBinary: {
      const auto* bin = static_cast<const BinaryExpr*>(expr);
      return ColumnsOnlyInsideAggregates(bin->left.get()) &&
             ColumnsOnlyInsideAggregates(bin->right.get());
    }
    case ExprKind::kBetween: {
      const auto* between = static_cast<const BetweenExpr*>(expr);
      return ColumnsOnlyInsideAggregates(between->value.get()) &&
             ColumnsOnlyInsideAggregates(between->lower.get()) &&
             ColumnsOnlyInsideAggregates(between->upper.get());
    }
    case ExprKind::kNot:
      return ColumnsOnlyInsideAggregates(
          static_cast<const NotExpr*>(expr)->operand.get());
    case ExprKind::kIsNull:
      return ColumnsOnlyInsideAggregates(
          static_cast<const IsNullExpr*>(expr)->operand.get());
  }
  return false;
}

void CollectAggregates(const Expr* expr,
                       std::vector<const AggregateExpr*>* out) {
  switch (expr->kind()) {
    case ExprKind::kAggregate:
      out->push_back(static_cast<const AggregateExpr*>(expr));
      return;
    case ExprKind::kBinary: {
      const auto* bin = static_cast<const BinaryExpr*>(expr);
      CollectAggregates(bin->left.get(), out);
      CollectAggregates(bin->right.get(), out);
      return;
    }
    case ExprKind::kNot:
      CollectAggregates(static_cast<const NotExpr*>(expr)->operand.get(),
                        out);
      return;
    default:
      return;
  }
}

/// Maps one AggregateExpr to a provider request. Only plain column (or *)
/// arguments are pushable; computed arguments like SUM(a+b) are not.
bool MapAggregate(const AggregateExpr* agg, AggregateRequest* req) {
  if (agg->star) {
    req->op = AggregateOp::kCountStar;
    return true;
  }
  const ColumnRefExpr* ref = AsColumnRef(agg->arg.get());
  if (ref == nullptr) return false;
  req->column = ref->column_no;
  switch (agg->func) {
    case AggregateFunc::kCount:
      req->op = AggregateOp::kCount;
      return true;
    case AggregateFunc::kSum:
      req->op = AggregateOp::kSum;
      return true;
    case AggregateFunc::kAvg:
      req->op = AggregateOp::kAvg;
      return true;
    case AggregateFunc::kMin:
      req->op = AggregateOp::kMin;
      return true;
    case AggregateFunc::kMax:
      req->op = AggregateOp::kMax;
      return true;
  }
  return false;
}

}  // namespace

Result<PhysicalPlan> PlanSelect(const BoundSelect& bound,
                                const ExprEvaluator* eval,
                                common::ScanCounters* counters) {
  const int num_tables = static_cast<int>(bound.tables.size());

  // 1. Classify WHERE conjuncts.
  std::vector<const Expr*> conjuncts;
  if (bound.where != nullptr) SplitConjuncts(bound.where.get(), &conjuncts);

  std::vector<ScanSpec> specs(num_tables);
  for (ScanSpec& spec : specs) spec.counters = counters;
  std::vector<JoinEdge> edges;
  std::vector<const Expr*> residual;
  for (const Expr* conjunct : conjuncts) {
    int table_no;
    ColumnConstraint constraint;
    JoinEdge edge;
    if (ExtractConstraint(conjunct, eval, &table_no, &constraint)) {
      // Merge with an existing constraint on the same column so
      // `lat > a AND lat < b` becomes one range (tighter selectivity and a
      // single index range for the provider).
      ColumnConstraint* existing = nullptr;
      for (ColumnConstraint& c : specs[table_no].constraints) {
        if (c.column == constraint.column) {
          existing = &c;
          break;
        }
      }
      if (existing == nullptr) {
        specs[table_no].constraints.push_back(std::move(constraint));
      } else if (!IntersectRange(constraint, existing)) {
        // Not a plain range intersection: FilterNode re-checks the
        // conjunct instead of the merge overwriting or dropping it.
        residual.push_back(conjunct);
      }
    } else if (ExtractJoinEdge(conjunct, &edge)) {
      edges.push_back(edge);
    } else {
      residual.push_back(conjunct);
    }
  }

  // 2. Projection pushdown: a table only needs the columns the query
  // references (anywhere).
  std::vector<std::set<int>> used(num_tables);
  for (const ExprPtr& e : bound.output) CollectColumns(e.get(), &used);
  if (bound.where != nullptr) CollectColumns(bound.where.get(), &used);
  for (const ExprPtr& e : bound.group_by) CollectColumns(e.get(), &used);
  for (const auto& item : bound.order_by) {
    if (item.expr != nullptr) CollectColumns(item.expr.get(), &used);
  }
  for (int t = 0; t < num_tables; ++t) {
    specs[t].projection.assign(used[t].begin(), used[t].end());
  }

  std::string explain;

  // 2b. Order-limit hint: a single-table, non-aggregate scan with nothing
  // left over for a residual filter feeds the top-k sorter directly, so
  // a provider that knows the leading sort column's physical layout may
  // stop reading once the top k is settled (see OrderLimitHint).
  if (num_tables == 1 && residual.empty() && !bound.has_aggregates &&
      bound.group_by.empty() && !bound.order_by.empty() && bound.limit >= 0) {
    const BoundSelect::BoundOrderBy& lead = bound.order_by[0];
    const Expr* key = lead.output_ordinal >= 0
                          ? bound.output[lead.output_ordinal].get()
                          : lead.expr.get();
    const ColumnRefExpr* ref = AsColumnRef(key);
    if (ref != nullptr) {
      specs[0].order_limit =
          OrderLimitHint{ref->column_no, !lead.ascending, bound.limit};
      const TableProvider* provider = bound.tables[0].provider;
      if (provider->HonoursOrderLimit(ref->column_no)) {
        explain += "order-limit pushdown: " +
                   provider->schema().column(
                       static_cast<size_t>(ref->column_no)).name +
                   (lead.ascending ? " ASC" : " DESC") + " LIMIT " +
                   std::to_string(bound.limit) + "\n";
      }
    }
  }

  // 3. Join order: greedy smallest-estimate first, preferring connected
  // tables.
  std::vector<ScanEstimate> local_est(num_tables);
  for (int t = 0; t < num_tables; ++t) {
    local_est[t] = bound.tables[t].provider->Estimate(specs[t]);
  }
  std::vector<bool> placed(num_tables, false);
  auto connected = [&](int t) {
    for (const JoinEdge& e : edges) {
      if ((e.table_a == t && placed[e.table_b]) ||
          (e.table_b == t && placed[e.table_a])) {
        return true;
      }
    }
    return false;
  };

  int first = 0;
  for (int t = 1; t < num_tables; ++t) {
    if (local_est[t].rows < local_est[first].rows) first = t;
  }
  placed[first] = true;
  PlanNodePtr root = std::make_unique<ScanNode>(
      bound.tables[first].provider, bound.tables[first].alias, specs[first],
      bound.tables[first].slot_offset, bound.total_slots);
  double running_rows = std::max(local_est[first].rows, 1.0);

  for (int step = 1; step < num_tables; ++step) {
    // Pick the next table: smallest estimate among connected ones, falling
    // back to smallest overall (cross join).
    int next = -1;
    bool next_connected = false;
    for (int t = 0; t < num_tables; ++t) {
      if (placed[t]) continue;
      bool conn = connected(t);
      if (next < 0 || (conn && !next_connected) ||
          (conn == next_connected &&
           local_est[t].rows < local_est[next].rows)) {
        next = t;
        next_connected = conn;
      }
    }

    // Join keys between `next` and placed tables.
    std::vector<JoinKey> keys;
    for (const JoinEdge& e : edges) {
      int other = -1, other_col = -1, next_col = -1;
      if (e.table_a == next && placed[e.table_b]) {
        other = e.table_b;
        other_col = e.column_b;
        next_col = e.column_a;
      } else if (e.table_b == next && placed[e.table_a]) {
        other = e.table_a;
        other_col = e.column_a;
        next_col = e.column_b;
      } else {
        continue;
      }
      JoinKey key;
      key.outer_slot = bound.tables[other].slot_offset + other_col;
      key.inner_column = next_col;
      keys.push_back(key);
    }

    TableProvider* inner = bound.tables[next].provider;
    // Cost: index-nested-loop = outer_rows * per-probe bytes; hash join =
    // one full (constrained) scan of the inner side.
    double inlj_cost = -1;
    if (!keys.empty() && inner->SupportsPointLookup(keys[0].inner_column)) {
      ScanSpec probe_spec = specs[next];
      for (const JoinKey& k : keys) {
        ColumnConstraint c;
        c.column = k.inner_column;
        c.equals = Datum::Int64(0);  // Placeholder; estimate ignores value.
        probe_spec.constraints.push_back(std::move(c));
      }
      ScanEstimate probe = inner->Estimate(probe_spec);
      inlj_cost = running_rows * std::max(probe.bytes, 1.0);
    }
    double hash_cost = std::max(local_est[next].bytes, 1.0) +
                       running_rows * 8.0;

    char cost_line[160];
    if (inlj_cost >= 0 && inlj_cost <= hash_cost) {
      snprintf(cost_line, sizeof(cost_line),
               "join %s: INDEX-NESTED-LOOP (inlj=%.0fB <= hash=%.0fB)\n",
               bound.tables[next].alias.c_str(), inlj_cost, hash_cost);
      explain += cost_line;
      root = std::make_unique<IndexJoinNode>(
          std::move(root), inner, bound.tables[next].alias, specs[next],
          bound.tables[next].slot_offset, keys);
      // Each probe yields roughly probe-estimate rows.
      ScanSpec probe_spec = specs[next];
      for (const JoinKey& k : keys) {
        ColumnConstraint c;
        c.column = k.inner_column;
        c.equals = Datum::Int64(0);
        probe_spec.constraints.push_back(std::move(c));
      }
      running_rows *= std::max(inner->Estimate(probe_spec).rows, 1.0);
    } else {
      snprintf(cost_line, sizeof(cost_line),
               "join %s: HASH-JOIN (hash=%.0fB < inlj=%s)\n",
               bound.tables[next].alias.c_str(), hash_cost,
               inlj_cost < 0 ? "n/a" : std::to_string(inlj_cost).c_str());
      explain += cost_line;
      root = std::make_unique<HashJoinNode>(
          std::move(root), inner, bound.tables[next].alias, specs[next],
          bound.tables[next].slot_offset, keys, /*left_outer=*/false);
      double fanout =
          keys.empty() ? std::max(local_est[next].rows, 1.0) : 1.0;
      running_rows *= fanout;
    }
    placed[next] = true;
  }

  if (!residual.empty()) {
    root = std::make_unique<FilterNode>(std::move(root), residual, eval);
  }

  PhysicalPlan plan;

  // 4. Aggregate pushdown candidate: a single-table, ungrouped aggregate
  // whose WHERE went entirely into the scan spec and whose outputs touch
  // columns only through aggregates can skip row materialization — the
  // provider may answer from per-blob summaries. The row plan under
  // `root` stays the fallback.
  if (num_tables == 1 && residual.empty() && bound.has_aggregates &&
      bound.group_by.empty()) {
    bool eligible = true;
    for (const ExprPtr& e : bound.output) {
      if (!ColumnsOnlyInsideAggregates(e.get())) eligible = false;
    }
    for (const auto& item : bound.order_by) {
      if (item.expr != nullptr &&
          !ColumnsOnlyInsideAggregates(item.expr.get())) {
        eligible = false;
      }
    }
    // Mirror the engine's collection order so requests align with states.
    std::vector<const AggregateExpr*> agg_exprs;
    for (const ExprPtr& e : bound.output) {
      CollectAggregates(e.get(), &agg_exprs);
    }
    for (const auto& item : bound.order_by) {
      if (item.expr != nullptr) CollectAggregates(item.expr.get(), &agg_exprs);
    }
    std::vector<AggregateRequest> requests(agg_exprs.size());
    for (size_t i = 0; i < agg_exprs.size() && eligible; ++i) {
      if (!MapAggregate(agg_exprs[i], &requests[i])) eligible = false;
    }
    if (eligible && !agg_exprs.empty()) {
      plan.agg_provider = bound.tables[0].provider;
      plan.agg_spec = specs[0];
      plan.agg_requests = std::move(requests);
      plan.agg_exprs = std::move(agg_exprs);
      explain += "aggregate pushdown: candidate (" +
                 std::to_string(plan.agg_requests.size()) + " aggregates)\n";
    }
  }

  std::string tree;
  root->Describe(0, &tree);
  plan.explain = explain + tree;
  plan.root = std::move(root);
  return plan;
}

}  // namespace odh::sql
