#ifndef ODH_SQL_EXECUTOR_H_
#define ODH_SQL_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sql/expr_eval.h"
#include "sql/table_provider.h"

namespace odh::sql {

/// Volcano-style physical operator producing *combined* rows: one slot per
/// column of every FROM table (see BoundSelect). Columns of tables not yet
/// joined are NULL.
class PlanNode {
 public:
  virtual ~PlanNode() = default;
  virtual Status Open() = 0;
  virtual Result<bool> Next(Row* row) = 0;
  /// One-line description; children indented (EXPLAIN output).
  virtual void Describe(int indent, std::string* out) const = 0;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

/// Leaf scan: reads a provider with pushed-down constraints and widens its
/// rows into the combined layout.
class ScanNode : public PlanNode {
 public:
  ScanNode(TableProvider* provider, std::string display_alias,
           ScanSpec spec, int slot_offset, int total_slots)
      : provider_(provider),
        alias_(std::move(display_alias)),
        spec_(std::move(spec)),
        slot_offset_(slot_offset),
        total_slots_(total_slots) {}

  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Describe(int indent, std::string* out) const override;

 private:
  TableProvider* provider_;
  std::string alias_;
  ScanSpec spec_;
  int slot_offset_;
  int total_slots_;
  std::unique_ptr<RowCursor> cursor_;
  Row narrow_;  // The cursor's row, reused across Next calls.
};

/// Residual predicate filter.
class FilterNode : public PlanNode {
 public:
  FilterNode(PlanNodePtr child, std::vector<const Expr*> predicates,
             const ExprEvaluator* eval)
      : child_(std::move(child)),
        predicates_(std::move(predicates)),
        eval_(eval) {}

  Status Open() override { return child_->Open(); }
  Result<bool> Next(Row* row) override;
  void Describe(int indent, std::string* out) const override;

 private:
  PlanNodePtr child_;
  std::vector<const Expr*> predicates_;
  const ExprEvaluator* eval_;
};

/// One equi-join key: a slot in the outer combined row joined against a
/// column of the inner table.
struct JoinKey {
  int outer_slot = -1;
  int inner_column = -1;
};

/// Hash join: materializes the inner table's scan into a hash table, then
/// streams the outer child. With `left_outer` true, unmatched outer rows
/// are emitted with the inner columns NULL (the paper's "left join the
/// sensor info to the scanned observations" plan).
class HashJoinNode : public PlanNode {
 public:
  HashJoinNode(PlanNodePtr outer, TableProvider* inner,
               std::string inner_alias, ScanSpec inner_spec,
               int inner_slot_offset, std::vector<JoinKey> keys,
               bool left_outer)
      : outer_(std::move(outer)),
        inner_(inner),
        inner_alias_(std::move(inner_alias)),
        inner_spec_(std::move(inner_spec)),
        inner_slot_offset_(inner_slot_offset),
        keys_(std::move(keys)),
        left_outer_(left_outer) {}

  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Describe(int indent, std::string* out) const override;

 private:
  std::string KeyOfInner(const Row& inner_row) const;
  std::string KeyOfOuter(const Row& combined) const;

  PlanNodePtr outer_;
  TableProvider* inner_;
  std::string inner_alias_;
  ScanSpec inner_spec_;
  int inner_slot_offset_;
  std::vector<JoinKey> keys_;
  bool left_outer_;

  std::multimap<std::string, Row> hash_;
  Row pending_outer_;
  std::vector<const Row*> matches_;
  size_t match_pos_ = 0;
  bool outer_done_ = false;
};

/// Index nested-loop join: for each outer row, scans the inner provider
/// with equality constraints derived from the outer row's join keys (plus
/// the inner table's own pushed-down constraints).
class IndexJoinNode : public PlanNode {
 public:
  IndexJoinNode(PlanNodePtr outer, TableProvider* inner,
                std::string inner_alias, ScanSpec inner_spec,
                int inner_slot_offset, std::vector<JoinKey> keys)
      : outer_(std::move(outer)),
        inner_(inner),
        inner_alias_(std::move(inner_alias)),
        inner_spec_(std::move(inner_spec)),
        inner_slot_offset_(inner_slot_offset),
        keys_(std::move(keys)) {}

  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Describe(int indent, std::string* out) const override;

 private:
  PlanNodePtr outer_;
  TableProvider* inner_;
  std::string inner_alias_;
  ScanSpec inner_spec_;
  int inner_slot_offset_;
  std::vector<JoinKey> keys_;

  Row current_outer_;
  bool have_outer_ = false;
  std::unique_ptr<RowCursor> inner_cursor_;
};

}  // namespace odh::sql

#endif  // ODH_SQL_EXECUTOR_H_
