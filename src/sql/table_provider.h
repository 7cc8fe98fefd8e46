#ifndef ODH_SQL_TABLE_PROVIDER_H_
#define ODH_SQL_TABLE_PROVIDER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/types.h"
#include "relational/schema.h"

namespace odh::sql {

/// An inclusive/exclusive endpoint for a range constraint.
struct Bound {
  Datum value;
  bool inclusive = true;
};

/// A conjunction of simple predicates on one column, pushed down to a
/// provider: `equals` wins over range bounds when set.
struct ColumnConstraint {
  int column = -1;
  std::optional<Datum> equals;
  std::optional<Bound> lower;
  std::optional<Bound> upper;
};

/// `ORDER BY <column> [ASC|DESC] LIMIT k`, passed down as an optional hint
/// when the query sorts the scan's qualifying rows directly: single table,
/// no aggregation, and every WHERE conjunct pushed into the constraints
/// (so each row the provider emits reaches the sorter).
///
/// Contract: a provider may omit any row whose `column` value is strictly
/// worse (later for DESC, earlier for ASC) than the k-th best qualifying
/// row's; rows with equal `column` values must keep the relative order
/// they would have without the hint. The engine still runs its stable
/// top-k sort over what arrives, so the answer is unchanged — ties and
/// NULLs included — and a provider may simply ignore the hint.
struct OrderLimitHint {
  int column = -1;
  bool descending = false;
  int64_t limit = 0;
};

/// What a scan must produce. Providers must apply all constraints exactly.
/// `projection` (ascending column positions; empty = all) is advisory:
/// providers return full-width rows but may leave unprojected columns NULL,
/// which is where ODH's tag-oriented blob decoding saves work.
struct ScanSpec {
  std::vector<ColumnConstraint> constraints;
  std::vector<int> projection;
  /// Per-query profile counters (owned by the engine, outlives the scan);
  /// nullptr when nobody is profiling. Providers that decode blobs bump it
  /// so EXPLAIN PROFILE can report per-statement I/O.
  common::ScanCounters* counters = nullptr;
  /// See OrderLimitHint; unset for every other query shape.
  std::optional<OrderLimitHint> order_limit;

  const ColumnConstraint* FindColumn(int column) const {
    for (const auto& c : constraints) {
      if (c.column == column) return &c;
    }
    return nullptr;
  }
};

/// Pull-based row stream.
///
/// Error contract: a cursor is POISONED once Next returns a non-OK Result.
/// Every subsequent Next call returns the same (or an equivalent) error —
/// it never crashes, never resumes the stream, and never reports a clean
/// end of stream. Callers may therefore retry/drain a cursor defensively
/// after a failure without risking silent data truncation; implementations
/// that wrap other cursors (executor nodes, adapters, the network layer)
/// must preserve the property.
class RowCursor {
 public:
  virtual ~RowCursor() = default;
  /// Produces the next row into *row; returns false at end of stream.
  virtual Result<bool> Next(Row* row) = 0;
};

/// One decoded ValueBlob in columnar (tag-major) form — the batch contract
/// of the vectorized execution path. Column 0 of the table maps to `ids`,
/// column 1 to `timestamps`, and table column `2 + t` to `tags[t]`.
///
/// Contract:
///  - `timestamps.size()` is the batch row count.
///  - `ids` is either full-size or empty; empty means every row shares
///    `uniform_id` (the common case: one blob = one source).
///  - Each `tags[t]` is either full-size (NaN = SQL NULL) or empty; empty
///    means the column was not projected and reads as all-NULL. This is
///    where the blob layout saves work: unprojected tags are never decoded.
///  - `sel` is the selection vector produced by vectorized filtering:
///    ascending row indexes that passed every pushed-down constraint. When
///    `sel_all` is true the whole batch passed and `sel` is not populated.
struct ColumnBatch {
  SourceId uniform_id = -1;
  std::vector<SourceId> ids;
  std::vector<Timestamp> timestamps;
  std::vector<std::vector<double>> tags;
  std::vector<int32_t> sel;
  bool sel_all = true;

  size_t rows() const { return timestamps.size(); }
  size_t selected() const { return sel_all ? rows() : sel.size(); }
  SourceId id_at(size_t i) const { return ids.empty() ? uniform_id : ids[i]; }
  void clear() {
    uniform_id = -1;
    ids.clear();
    timestamps.clear();
    tags.clear();
    sel.clear();
    sel_all = true;
  }
};

/// Pull-based batch stream: one decoded blob (or dirty-buffer slice) per
/// call, with constraints already applied via the selection vector.
/// Subject to the same poison contract as RowCursor: after a non-OK
/// Result, every further Next returns the same error.
class BatchCursor {
 public:
  virtual ~BatchCursor() = default;
  /// Produces the next batch into *batch; returns false at end of stream.
  /// Batches may be empty after filtering (selected() == 0); callers must
  /// keep pulling until the cursor reports end of stream.
  virtual Result<bool> Next(ColumnBatch* batch) = 0;
};

/// Aggregate functions a provider can absorb (aggregate pushdown).
enum class AggregateOp { kCountStar, kCount, kSum, kAvg, kMin, kMax };

/// One aggregate the engine asks a provider to compute over a scan.
/// `column` is ignored for kCountStar.
struct AggregateRequest {
  AggregateOp op = AggregateOp::kCountStar;
  int column = -1;
};

/// Cost/cardinality estimates a provider reports for a prospective scan.
/// `bytes` approximates the I/O the paper's cost model charges (expected
/// size of the ValueBlobs / heap pages that must be accessed).
struct ScanEstimate {
  double rows = 0;
  double bytes = 0;
};

/// The reproduction's analogue of the Informix Virtual Table Interface:
/// anything that exposes a relational schema, can scan with pushed-down
/// constraints, and can estimate scan cost. Plain relational tables and
/// ODH virtual tables both implement it, which is exactly how the paper
/// fuses operational and relational data under one SQL engine.
class TableProvider {
 public:
  virtual ~TableProvider() = default;

  virtual const std::string& name() const = 0;
  virtual const relational::Schema& schema() const = 0;

  virtual Result<std::unique_ptr<RowCursor>> Scan(const ScanSpec& spec) = 0;

  /// True if the provider can serve `spec` through ScanBatches. The default
  /// provider is row-oriented.
  virtual bool SupportsBatchScan(const ScanSpec& spec) const { return false; }

  /// Columnar scan: emits one ColumnBatch per decoded blob with `spec`'s
  /// constraints applied via the selection vector. Only valid when
  /// SupportsBatchScan(spec) is true.
  virtual Result<std::unique_ptr<BatchCursor>> ScanBatches(
      const ScanSpec& spec) {
    (void)spec;
    return Status::Unimplemented("provider has no batch scan");
  }

  /// Aggregate pushdown: computes `requests` over the rows selected by
  /// `spec` and returns one row of results (Datums aligned with
  /// `requests`). Returns nullopt when the provider cannot absorb this
  /// combination (the engine then falls back to scanning); an error only
  /// for real failures.
  virtual Result<std::optional<Row>> AggregateScan(
      const ScanSpec& spec, const std::vector<AggregateRequest>& requests) {
    (void)spec;
    (void)requests;
    return std::optional<Row>();
  }

  virtual ScanEstimate Estimate(const ScanSpec& spec) const = 0;

  /// True if an eq-constraint on `column` can be served better than a full
  /// scan (an index exists / the column keys a batch structure). The
  /// planner uses this to consider index-nested-loop joins.
  virtual bool SupportsPointLookup(int column) const = 0;

  /// True if the provider acts on an OrderLimitHint leading with `column`
  /// (it may stop reading early); providers that ignore the hint keep the
  /// default. Only decides whether EXPLAIN reports a pushdown.
  virtual bool HonoursOrderLimit(int column) const { return false; }

  /// RTTI-free downcast hook; overridden by RelationalTableProvider.
  virtual class RelationalTableProvider* AsRelational() { return nullptr; }
};

}  // namespace odh::sql

#endif  // ODH_SQL_TABLE_PROVIDER_H_
