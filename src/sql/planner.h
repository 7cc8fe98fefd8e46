#ifndef ODH_SQL_PLANNER_H_
#define ODH_SQL_PLANNER_H_

#include <memory>
#include <string>

#include "sql/binder.h"
#include "sql/executor.h"

namespace odh::sql {

/// A compiled SELECT: the operator tree plus the planner's decision log
/// (the EXPLAIN text used by the paper's query-optimizer experiment).
///
/// For single-table, ungrouped aggregate queries whose WHERE is fully
/// pushed into the scan, the planner additionally emits an aggregate
/// pushdown candidate: `agg_requests` (aligned 1:1 with `agg_exprs`, the
/// AggregateExpr nodes in plan order) that the engine first offers to
/// `agg_provider` via AggregateScan, before falling back to the engine's
/// fold over the rows of `root`. `agg_provider` is nullptr when the query
/// is not a candidate.
struct PhysicalPlan {
  PlanNodePtr root;
  std::string explain;
  TableProvider* agg_provider = nullptr;
  ScanSpec agg_spec;
  std::vector<AggregateRequest> agg_requests;
  std::vector<const class AggregateExpr*> agg_exprs;
};

/// Builds a physical plan for a bound SELECT.
///
/// Planning mirrors the paper's §3 design: single-table predicates are
/// pushed into provider scans (partition elimination happens inside the ODH
/// provider), join order is chosen greedily by estimated cardinality, and
/// each join picks index-nested-loop vs hash join by comparing estimated
/// bytes accessed — the ValueBlob-byte cost model when the inner side is an
/// ODH virtual table.
///
/// The returned plan borrows `bound` and `eval`; both must outlive it.
/// `counters`, when non-null, is planted into every table's ScanSpec so
/// providers report per-query scan work (EXPLAIN PROFILE); it must outlive
/// plan execution.
Result<PhysicalPlan> PlanSelect(const BoundSelect& bound,
                                const ExprEvaluator* eval,
                                common::ScanCounters* counters = nullptr);

}  // namespace odh::sql

#endif  // ODH_SQL_PLANNER_H_
