#include "core/system_tables.h"

#include <utility>

#include "sql/relational_provider.h"

namespace odh::core {
namespace {

/// Cursor over rows materialized at Scan time. Constraints are re-checked
/// per row (system tables are tiny; nothing is pushed down).
class SnapshotCursor : public sql::RowCursor {
 public:
  SnapshotCursor(std::vector<Row> rows, sql::ScanSpec spec)
      : rows_(std::move(rows)), spec_(std::move(spec)) {}

  Result<bool> Next(Row* row) override {
    while (pos_ < rows_.size()) {
      Row& candidate = rows_[pos_++];
      if (!sql::RowSatisfies(candidate, spec_.constraints)) continue;
      *row = std::move(candidate);
      return true;
    }
    return false;
  }

 private:
  std::vector<Row> rows_;
  sql::ScanSpec spec_;
  size_t pos_ = 0;
};

std::unique_ptr<sql::RowCursor> MakeCursor(std::vector<Row> rows,
                                           const sql::ScanSpec& spec) {
  return std::make_unique<SnapshotCursor>(std::move(rows), spec);
}

}  // namespace

MetricsSystemTable::MetricsSystemTable(
    const common::MetricsRegistry* registry)
    : registry_(registry),
      schema_({{"name", DataType::kString},
               {"kind", DataType::kString},
               {"value", DataType::kDouble}}) {}

Result<std::unique_ptr<sql::RowCursor>> MetricsSystemTable::Scan(
    const sql::ScanSpec& spec) {
  std::vector<Row> rows;
  for (const common::MetricSample& s : registry_->Collect()) {
    rows.push_back({Datum::String(s.name), Datum::String(s.kind),
                    Datum::Double(s.value)});
  }
  return MakeCursor(std::move(rows), spec);
}

sql::ScanEstimate MetricsSystemTable::Estimate(
    const sql::ScanSpec& spec) const {
  (void)spec;
  return {64, 4096};
}

QueriesSystemTable::QueriesSystemTable(const sql::SqlEngine* engine)
    : engine_(engine),
      schema_({{"statement", DataType::kString},
               {"path", DataType::kString},
               {"rows_returned", DataType::kInt64},
               {"rows_scanned", DataType::kInt64},
               {"batches", DataType::kInt64},
               {"blobs_decoded", DataType::kInt64},
               {"blobs_pruned", DataType::kInt64},
               {"blobs_skipped_by_summary", DataType::kInt64},
               {"blob_bytes_read", DataType::kInt64},
               {"plan_micros", DataType::kDouble},
               {"total_micros", DataType::kDouble},
               {"segments_pruned", DataType::kInt64},
               {"segments_scanned_parallel", DataType::kInt64},
               {"blob_cache_hits", DataType::kInt64},
               // Memory-governance columns (appended, like the storage
               // table's segment columns, so positional readers keep
               // working).
               {"mem_peak_bytes", DataType::kInt64},
               {"spill_runs", DataType::kInt64},
               {"spill_bytes", DataType::kInt64},
               {"blob_bytes_skipped", DataType::kInt64}}) {}

Result<std::unique_ptr<sql::RowCursor>> QueriesSystemTable::Scan(
    const sql::ScanSpec& spec) {
  std::vector<Row> rows;
  for (const sql::QueryProfile& p : engine_->RecentQueries()) {
    rows.push_back({Datum::String(p.statement), Datum::String(p.path),
                    Datum::Int64(p.rows_returned),
                    Datum::Int64(p.rows_scanned), Datum::Int64(p.batches),
                    Datum::Int64(p.blobs_decoded),
                    Datum::Int64(p.blobs_pruned),
                    Datum::Int64(p.blobs_skipped_by_summary),
                    Datum::Int64(p.blob_bytes_read),
                    Datum::Double(p.plan_micros),
                    Datum::Double(p.total_micros),
                    Datum::Int64(p.segments_pruned),
                    Datum::Int64(p.segments_scanned_parallel),
                    Datum::Int64(p.blob_cache_hits),
                    Datum::Int64(p.mem_peak_bytes),
                    Datum::Int64(p.spill_runs),
                    Datum::Int64(p.spill_bytes),
                    Datum::Int64(p.blob_bytes_skipped)});
  }
  return MakeCursor(std::move(rows), spec);
}

sql::ScanEstimate QueriesSystemTable::Estimate(
    const sql::ScanSpec& spec) const {
  (void)spec;
  return {128, 16384};
}

StorageSystemTable::StorageSystemTable(const ConfigComponent* config,
                                       const OdhStore* store)
    : config_(config),
      store_(store),
      schema_({{"schema_type", DataType::kInt64},
               {"type_name", DataType::kString},
               {"container", DataType::kString},
               {"blob_count", DataType::kInt64},
               {"point_count", DataType::kInt64},
               {"blob_bytes", DataType::kInt64},
               {"raw_bytes", DataType::kInt64},
               {"compression_ratio", DataType::kDouble},
               // Segment columns (appended; NULL on the aggregate
               // 'rts'/'irts'/'mg' rows, filled on 'segment' rows).
               {"segment_key", DataType::kInt64},
               {"generation", DataType::kInt64},
               {"tier", DataType::kString},
               {"lo_ts", DataType::kInt64},
               {"hi_ts", DataType::kInt64}}) {}

Result<std::unique_ptr<sql::RowCursor>> StorageSystemTable::Scan(
    const sql::ScanSpec& spec) {
  std::vector<Row> rows;
  for (int t = 0; t < config_->num_schema_types(); ++t) {
    ODH_ASSIGN_OR_RETURN(const SchemaType* type, config_->GetSchemaType(t));
    const int64_t value_width =
        8 * (1 + static_cast<int64_t>(type->tag_names.size()));
    const std::pair<const char*, ContainerStats> containers[] = {
        {"rts", store_->rts_stats(t)},
        {"irts", store_->irts_stats(t)},
        {"mg", store_->mg_stats(t)},
    };
    for (const auto& [container, stats] : containers) {
      // Raw size = row-format equivalent: 8 bytes of timestamp plus 8 per
      // tag, per point. The ratio is what ValueBlob packing bought us.
      const int64_t raw_bytes = stats.point_count * value_width;
      const double ratio =
          stats.blob_bytes > 0
              ? static_cast<double>(raw_bytes) / stats.blob_bytes
              : 0.0;
      rows.push_back({Datum::Int64(t), Datum::String(type->name),
                      Datum::String(container),
                      Datum::Int64(stats.blob_count),
                      Datum::Int64(stats.point_count),
                      Datum::Int64(stats.blob_bytes),
                      Datum::Int64(raw_bytes), Datum::Double(ratio),
                      Datum::Null(), Datum::Null(), Datum::Null(),
                      Datum::Null(), Datum::Null()});
    }
    // One row per segment, key (= time) order: the partition-level view
    // behind the aggregates. container = 'segment' keeps the aggregate
    // rows' consumers (WHERE container = 'rts') unaffected.
    for (const SegmentInfo& seg : store_->SegmentInfos(t)) {
      const int64_t raw_bytes = seg.point_count * value_width;
      const double ratio =
          seg.blob_bytes > 0
              ? static_cast<double>(raw_bytes) / seg.blob_bytes
              : 0.0;
      rows.push_back({Datum::Int64(t), Datum::String(type->name),
                      Datum::String("segment"),
                      Datum::Int64(seg.blob_count),
                      Datum::Int64(seg.point_count),
                      Datum::Int64(seg.blob_bytes),
                      Datum::Int64(raw_bytes), Datum::Double(ratio),
                      Datum::Int64(seg.key),
                      Datum::Int64(seg.generation),
                      Datum::String(storage::SegmentTierName(seg.tier)),
                      Datum::Int64(seg.lo), Datum::Int64(seg.hi)});
    }
  }
  return MakeCursor(std::move(rows), spec);
}

sql::ScanEstimate StorageSystemTable::Estimate(
    const sql::ScanSpec& spec) const {
  (void)spec;
  return {16, 2048};
}

}  // namespace odh::core
