#include "core/virtual_table.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/logging.h"
#include "sql/relational_provider.h"
#include "sql/vectorized.h"

namespace odh::core {
namespace {

/// The window loop of a top-k time scan: serves an order-limit hint on
/// the timestamp column. [lo, hi] is split at segment starts into disjoint
/// time windows, one per segment, the newest ending at `hi` (so it covers
/// dirty rows and blobs straddling into it) and the oldest starting at
/// `lo`; the flat layout is one window. Windows are visited newest-first
/// for DESC, oldest-first for ASC, in groups of 1, 2, 4 ... so that a
/// large k keeps segment-parallel fan-out; each group is one ordinary
/// forward reader scan. The loop stops at the first group boundary where
/// at least k rows have passed the constraints. Every row of an unvisited
/// window has a timestamp strictly beyond every visited row's, so it can
/// neither enter nor tie the top k; rows of equal timestamp share a window
/// and keep their forward-scan order, which is all the stable sort above
/// needs.
class TimeWindows {
 public:
  TimeWindows(OdhReader* reader, ScanTarget target, Timestamp lo,
              Timestamp hi, const sql::OrderLimitHint& hint,
              common::ScanCounters* counters)
      : reader_(reader),
        target_(std::move(target)),
        bounds_(reader->SegmentBoundsOf(target_.schema_type)),
        hi_(hi),
        descending_(hint.descending),
        limit_(hint.limit),
        counters_(counters) {
    // Window starts: every segment start inside (lo, hi] except the
    // oldest segment's (nothing lies below it). Key order = time order.
    starts_.push_back(lo);
    for (size_t i = 1; i < bounds_.size(); ++i) {
      if (bounds_[i].lo > lo && bounds_[i].lo <= hi) {
        starts_.push_back(bounds_[i].lo);
      }
    }
    next_ = descending_ ? static_cast<int64_t>(starts_.size()) - 1 : 0;
  }

  const ScanTarget& target() const { return target_; }

  /// The next group's time range, given the rows that have passed so far;
  /// false once the loop is over (then the pruning is reported, once).
  bool Next(int64_t passed, Timestamp* lo, Timestamp* hi) {
    if (done_) return false;
    if (passed >= limit_ || next_ < 0 ||
        next_ >= static_cast<int64_t>(starts_.size())) {
      Finish();
      return false;
    }
    int64_t first, last;
    if (descending_) {
      last = next_;
      first = std::max<int64_t>(0, next_ - width_ + 1);
      next_ = first - 1;
    } else {
      first = next_;
      last = std::min<int64_t>(static_cast<int64_t>(starts_.size()) - 1,
                               next_ + width_ - 1);
      next_ = last + 1;
    }
    width_ *= 2;
    *lo = starts_[first];
    *hi = last + 1 < static_cast<int64_t>(starts_.size())
              ? starts_[last + 1] - 1
              : hi_;
    visited_lo_ = std::min(visited_lo_, *lo);
    visited_hi_ = std::max(visited_hi_, *hi);
    return true;
  }

 private:
  /// Reports the segments an ordinary scan over the visited range would
  /// have skipped; that includes every segment no window opened. With
  /// nothing visited (LIMIT 0) the range is empty and every non-empty
  /// segment counts.
  void Finish() {
    done_ = true;
    reader_->CountSegmentsPruned(target_, bounds_, visited_lo_, visited_hi_,
                                 counters_);
  }

  OdhReader* reader_;
  ScanTarget target_;
  std::vector<SegmentBounds> bounds_;
  Timestamp hi_;
  bool descending_;
  int64_t limit_;
  common::ScanCounters* counters_;
  std::vector<Timestamp> starts_;  // Window i starts at starts_[i].
  int64_t next_ = 0;   // Next window index to visit.
  int64_t width_ = 1;  // Windows in the next group.
  Timestamp visited_lo_ = kMaxTimestamp;  // Empty until a group opens.
  Timestamp visited_hi_ = kMinTimestamp;
  bool done_ = false;
};

/// Wraps a RecordBatchCursor: moves each decoded blob's columns straight
/// into a ColumnBatch (no per-value boxing — the point of the batch path)
/// and runs the pushed tag predicates as vectorized range kernels.
class VirtualTableBatchCursor : public sql::BatchCursor {
 public:
  VirtualTableBatchCursor(std::unique_ptr<RecordBatchCursor> cursor,
                          std::vector<TagFilter> filters, int num_tags)
      : cursor_(std::move(cursor)),
        filters_(std::move(filters)),
        num_tags_(num_tags) {}

  Result<bool> Next(sql::ColumnBatch* batch) override {
    RecordBatch record_batch;
    ODH_ASSIGN_OR_RETURN(bool more, cursor_->Next(&record_batch));
    if (!more) return false;
    batch->clear();
    batch->uniform_id = record_batch.uniform_id;
    batch->ids = std::move(record_batch.ids);
    batch->timestamps = std::move(record_batch.timestamps);
    batch->tags = std::move(record_batch.columns);
    batch->tags.resize(static_cast<size_t>(num_tags_));
    for (const TagFilter& f : filters_) {
      sql::FilterByRange(batch->tags[f.tag], f.min, f.max, f.min_exclusive,
                         f.max_exclusive, batch);
    }
    return true;
  }

 private:
  std::unique_ptr<RecordBatchCursor> cursor_;
  std::vector<TagFilter> filters_;
  int num_tags_;
};

/// Re-checks every constraint on each assembled row, for specs the
/// pushdown does not absorb exactly (a range on id, a non-numeric bound);
/// the reader and the range kernels have already applied what they could.
class ResidualCursor : public sql::RowCursor {
 public:
  ResidualCursor(std::unique_ptr<sql::RowCursor> rows,
                 std::vector<sql::ColumnConstraint> constraints)
      : rows_(std::move(rows)), constraints_(std::move(constraints)) {}

  Result<bool> Next(Row* row) override {
    while (true) {
      ODH_ASSIGN_OR_RETURN(bool more, rows_->Next(row));
      if (!more || sql::RowSatisfies(*row, constraints_)) return more;
    }
  }

 private:
  std::unique_ptr<sql::RowCursor> rows_;
  std::vector<sql::ColumnConstraint> constraints_;
};

/// A SQL predicate may name a source id the historian has never seen;
/// that matches no rows rather than being an error, so unknown-id routes
/// degrade to an empty cursor.
class EmptyCursor : public sql::RowCursor {
 public:
  Result<bool> Next(Row*) override { return false; }
};

/// Opens an ordinary scan of one time range; `window` is null for a plain
/// scan (see OdhReader::OpenHistorical).
using OpenRangeFn = std::function<Result<std::unique_ptr<sql::RowCursor>>(
    Timestamp lo, Timestamp hi, const ScanTarget* window)>;

/// A top-k time scan: one ordinary scan per group of TimeWindows. Rows are
/// counted as they leave the window's cursor, after every re-check, so
/// only rows that reach the sorter can end the loop.
class WindowedCursor : public sql::RowCursor {
 public:
  WindowedCursor(TimeWindows windows, OpenRangeFn open)
      : windows_(std::move(windows)), open_(std::move(open)) {}

  Result<bool> Next(Row* row) override {
    if (!poison_.ok()) return poison_;
    while (true) {
      if (window_ != nullptr) {
        Result<bool> more = window_->Next(row);
        if (!more.ok()) return poison_ = more.status();
        if (*more) {
          ++passed_;
          return true;
        }
        window_.reset();
      }
      Timestamp lo, hi;
      if (!windows_.Next(passed_, &lo, &hi)) return false;
      auto opened = open_(lo, hi, &windows_.target());
      if (!opened.ok()) return poison_ = opened.status();
      window_ = std::move(*opened);
    }
  }

 private:
  TimeWindows windows_;
  OpenRangeFn open_;
  std::unique_ptr<sql::RowCursor> window_;
  int64_t passed_ = 0;
  Status poison_;
};

/// Opens [lo, hi] of `id` (< 0: slice) through `open`: as one scan, or —
/// when `spec` carries an order-limit hint on the timestamp column — as a
/// top-k time scan. An unknown id yields an empty cursor.
Result<std::unique_ptr<sql::RowCursor>> OpenTimeRange(
    OdhReader* reader, int schema_type, SourceId id, Timestamp lo,
    Timestamp hi, const sql::ScanSpec& spec, OpenRangeFn open) {
  auto unknown_id = [id](const Status& status) {
    return id >= 0 && status.IsNotFound();
  };
  if (!spec.order_limit.has_value() ||
      spec.order_limit->column != OdhVirtualTable::kTimestampColumn) {
    Result<std::unique_ptr<sql::RowCursor>> opened = open(lo, hi, nullptr);
    if (!opened.ok() && unknown_id(opened.status())) {
      return std::unique_ptr<sql::RowCursor>(std::make_unique<EmptyCursor>());
    }
    return opened;
  }
  Result<ScanTarget> target = reader->ResolveScan(schema_type, id);
  if (!target.ok() && unknown_id(target.status())) {
    return std::unique_ptr<sql::RowCursor>(std::make_unique<EmptyCursor>());
  }
  ODH_RETURN_IF_ERROR(target.status());
  return std::unique_ptr<sql::RowCursor>(std::make_unique<WindowedCursor>(
      TimeWindows(reader, std::move(*target), lo, hi, *spec.order_limit,
                  spec.counters),
      std::move(open)));
}

}  // namespace

OdhVirtualTable::OdhVirtualTable(std::string name, int schema_type,
                                 ConfigComponent* config, OdhReader* reader,
                                 OdhCostModel* cost_model)
    : name_(std::move(name)),
      schema_type_(schema_type),
      config_(config),
      reader_(reader),
      cost_model_(cost_model) {
  auto type = config_->GetSchemaType(schema_type);
  ODH_CHECK(type.ok());
  std::vector<relational::Column> columns;
  columns.push_back({"id", DataType::kInt64});
  columns.push_back({"ts", DataType::kTimestamp});
  for (const std::string& tag : (*type)->tag_names) {
    columns.push_back({tag, DataType::kDouble});
  }
  num_tags_ = static_cast<int>((*type)->tag_names.size());
  schema_ = relational::Schema(std::move(columns));
}

OdhVirtualTable::Pushdown OdhVirtualTable::ExtractPushdown(
    const sql::ScanSpec& spec) const {
  Pushdown push;
  std::set<int> tags;
  // A constraint is "absorbed" when the pushdown applies it exactly
  // (equals wins over range bounds, mirroring DatumSatisfies). Anything
  // else leaves a residual re-check on every assembled row.
  for (const sql::ColumnConstraint& c : spec.constraints) {
    if (c.column == kIdColumn) {
      if (c.equals.has_value() && c.equals->is_int64()) {
        push.id = c.equals->int64_value();
      } else {
        push.absorbed = false;
      }
    } else if (c.column == kTimestampColumn) {
      if (c.equals.has_value()) {
        if (c.equals->is_timestamp()) {
          push.lo = push.hi = c.equals->timestamp_value();
        } else {
          push.absorbed = false;
        }
      } else {
        if (c.lower.has_value()) {
          if (c.lower->value.is_timestamp()) {
            Timestamp v = c.lower->value.timestamp_value();
            push.lo = c.lower->inclusive ? v : v + 1;
          } else {
            push.absorbed = false;
          }
        }
        if (c.upper.has_value()) {
          if (c.upper->value.is_timestamp()) {
            Timestamp v = c.upper->value.timestamp_value();
            push.hi = c.upper->inclusive ? v : v - 1;
          } else {
            push.absorbed = false;
          }
        }
      }
    } else if (c.column >= 2) {
      tags.insert(c.column - 2);
      // Numeric constraints on tags become zone-map / vectorized filters.
      TagFilter filter;
      filter.tag = c.column - 2;
      bool usable = false;
      if (c.equals.has_value()) {
        if (c.equals->is_numeric()) {
          filter.min = filter.max = c.equals->AsDouble();
          usable = true;
        } else {
          push.absorbed = false;
        }
      } else {
        if (c.lower.has_value()) {
          if (c.lower->value.is_numeric()) {
            filter.min = c.lower->value.AsDouble();
            filter.min_exclusive = !c.lower->inclusive;
            usable = true;
          } else {
            push.absorbed = false;
          }
        }
        if (c.upper.has_value()) {
          if (c.upper->value.is_numeric()) {
            filter.max = c.upper->value.AsDouble();
            filter.max_exclusive = !c.upper->inclusive;
            usable = true;
          } else {
            push.absorbed = false;
          }
        }
      }
      if (usable) push.tag_filters.push_back(filter);
    } else {
      push.absorbed = false;
    }
  }
  if (!spec.projection.empty()) {
    for (int col : spec.projection) {
      if (col >= 2) tags.insert(col - 2);
    }
    push.wanted_tags.assign(tags.begin(), tags.end());
    push.tag_fraction =
        num_tags_ > 0
            ? static_cast<double>(push.wanted_tags.size()) / num_tags_
            : 1.0;
    // Timestamp/id sections are a small constant share of a blob.
    push.tag_fraction = std::min(1.0, push.tag_fraction + 0.05);
  }
  return push;
}

Result<std::unique_ptr<sql::RowCursor>> OdhVirtualTable::Scan(
    const sql::ScanSpec& spec) {
  const Pushdown push = ExtractPushdown(spec);
  std::vector<sql::ColumnConstraint> residual;
  if (!push.absorbed) residual = spec.constraints;
  OpenRangeFn open =
      [reader = reader_, schema_type = schema_type_, num_tags = num_tags_,
       push, counters = spec.counters, residual = std::move(residual)](
          Timestamp lo, Timestamp hi, const ScanTarget* window)
      -> Result<std::unique_ptr<sql::RowCursor>> {
    std::unique_ptr<RecordBatchCursor> cursor;
    if (push.id >= 0) {
      ODH_ASSIGN_OR_RETURN(
          cursor, reader->OpenHistoricalBatches(
                      schema_type, push.id, lo, hi, push.wanted_tags,
                      push.tag_filters, counters, window));
    } else {
      ODH_ASSIGN_OR_RETURN(
          cursor, reader->OpenSliceBatches(schema_type, lo, hi,
                                           push.wanted_tags, push.tag_filters,
                                           counters, window));
    }
    std::unique_ptr<sql::RowCursor> rows =
        sql::MakeBatchRowAdapter(std::make_unique<VirtualTableBatchCursor>(
            std::move(cursor), push.tag_filters, num_tags));
    if (residual.empty()) return rows;
    return std::unique_ptr<sql::RowCursor>(
        std::make_unique<ResidualCursor>(std::move(rows), residual));
  };
  return OpenTimeRange(reader_, schema_type_, push.id, push.lo, push.hi, spec,
                       std::move(open));
}

Result<std::optional<Row>> OdhVirtualTable::AggregateScan(
    const sql::ScanSpec& spec,
    const std::vector<sql::AggregateRequest>& requests) {
  Pushdown push = ExtractPushdown(spec);
  if (!push.absorbed) return std::optional<Row>();
  // Classify the requests: COUNT(*) and COUNT(id|ts) need only the
  // matching-row count; tag aggregates need per-tag accumulators; value
  // aggregates over id/timestamp are not absorbed (wrong result type).
  std::vector<int> agg_tags;
  std::vector<int> request_slot(requests.size(), -1);
  bool need_values = false;
  for (size_t r = 0; r < requests.size(); ++r) {
    const sql::AggregateRequest& req = requests[r];
    if (req.op == sql::AggregateOp::kCountStar) continue;
    if (req.op == sql::AggregateOp::kCount && req.column < 2) {
      if (req.column < 0) return std::optional<Row>();
      continue;
    }
    if (req.column < 2) return std::optional<Row>();
    if (req.op != sql::AggregateOp::kCount) need_values = true;
    const int tag = req.column - 2;
    int slot = -1;
    for (size_t j = 0; j < agg_tags.size(); ++j) {
      if (agg_tags[j] == tag) slot = static_cast<int>(j);
    }
    if (slot < 0) {
      slot = static_cast<int>(agg_tags.size());
      agg_tags.push_back(tag);
    }
    request_slot[r] = slot;
  }
  auto computed = reader_->Aggregate(schema_type_, push.id, push.lo, push.hi,
                                     push.tag_filters, agg_tags, need_values,
                                     spec.counters);
  AggregateResult agg;
  if (computed.ok()) {
    agg = std::move(*computed);
  } else if (computed.status().IsNotFound()) {
    // Unknown id: zero matching rows, so every tag aggregate is empty and
    // the finalization below yields COUNT 0 / NULL.
    agg.tags.resize(agg_tags.size());
  } else {
    return computed.status();
  }
  Row row;
  row.reserve(requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    const sql::AggregateRequest& req = requests[r];
    if (request_slot[r] < 0) {
      // COUNT(*) / COUNT over the never-NULL id and timestamp columns.
      row.push_back(Datum::Int64(agg.rows_matched));
      continue;
    }
    const TagAggregate& t = agg.tags[static_cast<size_t>(request_slot[r])];
    switch (req.op) {
      case sql::AggregateOp::kCount:
        row.push_back(Datum::Int64(t.count));
        break;
      case sql::AggregateOp::kSum:
        row.push_back(t.count > 0 ? Datum::Double(t.sum) : Datum::Null());
        break;
      case sql::AggregateOp::kAvg:
        row.push_back(t.count > 0
                          ? Datum::Double(t.sum /
                                          static_cast<double>(t.count))
                          : Datum::Null());
        break;
      case sql::AggregateOp::kMin:
        row.push_back(t.has_value ? Datum::Double(t.min) : Datum::Null());
        break;
      case sql::AggregateOp::kMax:
        row.push_back(t.has_value ? Datum::Double(t.max) : Datum::Null());
        break;
      default:
        return std::optional<Row>();
    }
  }
  return std::optional<Row>(std::move(row));
}

sql::ScanEstimate OdhVirtualTable::Estimate(const sql::ScanSpec& spec) const {
  Pushdown push = ExtractPushdown(spec);
  OdhCostEstimate cost;
  if (push.id >= 0 || spec.FindColumn(kIdColumn) != nullptr) {
    // An id equality (possibly a join placeholder) -> historical path.
    cost = cost_model_->EstimateHistorical(schema_type_, push.id, push.lo,
                                           push.hi, push.tag_fraction);
  } else {
    cost = cost_model_->EstimateSlice(schema_type_, push.lo, push.hi,
                                      push.tag_fraction);
  }
  sql::ScanEstimate est;
  est.rows = cost.points;
  est.bytes = cost.bytes;
  return est;
}

}  // namespace odh::core
