#ifndef ODH_CORE_VIRTUAL_TABLE_H_
#define ODH_CORE_VIRTUAL_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/reader.h"
#include "sql/table_provider.h"

namespace odh::core {

/// The VTI adapter (paper §3): exposes one schema type as a relational
/// virtual table (id BIGINT, timestamp TIMESTAMP, <tags...> DOUBLE) so
/// standard SQL can query operational data and join it with relational
/// tables.
///
/// Pushed-down constraints on `id` (equality) and `timestamp` (range)
/// select the historical/slice read path; the projection restricts which
/// tag sections of each ValueBlob are decoded, and numeric tag ranges run
/// as kernels over each decoded batch. Remaining constraints are applied
/// after row assembly — the per-row Datum materialization here is the
/// "VTI overhead" the paper measures against the native read path.
class OdhVirtualTable : public sql::TableProvider {
 public:
  OdhVirtualTable(std::string name, int schema_type, ConfigComponent* config,
                  OdhReader* reader, OdhCostModel* cost_model);

  const std::string& name() const override { return name_; }
  const relational::Schema& schema() const override { return schema_; }

  /// Reads one tag-major batch per decoded ValueBlob, runs the pushed tag
  /// predicates as vectorized range kernels over it, and assembles rows
  /// only for the survivors. Constraints the pushdown does not absorb are
  /// re-checked on each assembled row.
  Result<std::unique_ptr<sql::RowCursor>> Scan(
      const sql::ScanSpec& spec) override;

  /// Aggregate pushdown into the reader: blobs fully covered by the time
  /// range whose v2 zone map proves every row passes the tag filters are
  /// answered from the summary without decompression. Returns nullopt
  /// when a constraint is not fully absorbed or a request shape is
  /// unsupported (value aggregates over id/timestamp).
  Result<std::optional<Row>> AggregateScan(
      const sql::ScanSpec& spec,
      const std::vector<sql::AggregateRequest>& requests) override;

  sql::ScanEstimate Estimate(const sql::ScanSpec& spec) const override;

  bool SupportsPointLookup(int column) const override {
    return column == kIdColumn || column == kTimestampColumn;
  }

  /// Top-k time scans: ORDER BY ts [ASC|DESC] LIMIT k.
  bool HonoursOrderLimit(int column) const override {
    return column == kTimestampColumn;
  }

  static constexpr int kIdColumn = 0;
  static constexpr int kTimestampColumn = 1;

  int schema_type() const { return schema_type_; }

 private:
  /// Extracts the pushdown parameters from a ScanSpec.
  struct Pushdown {
    SourceId id = -1;  // -1 = no id constraint.
    Timestamp lo = kMinTimestamp;
    Timestamp hi = kMaxTimestamp;
    std::vector<int> wanted_tags;  // Empty = all.
    std::vector<TagFilter> tag_filters;  // Zone-map pruning candidates.
    double tag_fraction = 1.0;
    /// True when every constraint is applied *exactly* by the pushdown
    /// (no residual row-level re-check needed). Gates aggregate pushdown.
    bool absorbed = true;
  };
  Pushdown ExtractPushdown(const sql::ScanSpec& spec) const;

  std::string name_;
  int schema_type_;
  ConfigComponent* config_;
  OdhReader* reader_;
  OdhCostModel* cost_model_;
  relational::Schema schema_;
  int num_tags_;
};

}  // namespace odh::core

#endif  // ODH_CORE_VIRTUAL_TABLE_H_
