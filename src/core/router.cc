#include "core/router.h"

namespace odh::core {

Status DataRouter::CreateMetadataTables() {
  ODH_ASSIGN_OR_RETURN(
      metadata_,
      engine_->catalog()->database()->CreateTable(
          "odh$sources",
          relational::Schema({{"id", DataType::kInt64},
                              {"schema_type", DataType::kInt64},
                              {"cls", DataType::kInt64},
                              {"grp", DataType::kInt64},
                              {"sample_interval", DataType::kInt64}})));
  return metadata_->AddIndex({"by_id", {0}});
}

Status DataRouter::AddSourceMetadata(const DataSourceInfo& info) {
  if (metadata_ == nullptr) {
    return Status::FailedPrecondition("metadata tables not created");
  }
  Row row = {Datum::Int64(info.id), Datum::Int64(info.schema_type),
             Datum::Int64(static_cast<int64_t>(info.source_class)),
             Datum::Int64(info.group), Datum::Int64(info.expected_interval)};
  ODH_RETURN_IF_ERROR(metadata_->Insert(row).status());
  if (++pending_metadata_rows_ >= 4096) {
    ODH_RETURN_IF_ERROR(metadata_->Commit());
    pending_metadata_rows_ = 0;
  }
  return Status::OK();
}

Status DataRouter::SyncMetadata() {
  pending_metadata_rows_ = 0;
  return metadata_ == nullptr ? Status::OK() : metadata_->Commit();
}

RouteDecision DataRouter::DecisionFor(SourceClass source_class,
                                     int64_t group) {
  RouteDecision decision;
  if (IsHighFrequency(source_class)) {
    // A "regular" source can still spill irregular batches (jitter), so
    // both per-source structures are candidates.
    decision.scan_rts = true;
    decision.scan_irts = true;
  } else {
    // Low-frequency: recent data in MG, reorganized history in RTS/IRTS
    // (paper Table 1).
    decision.scan_mg = true;
    decision.mg_group = group;
    decision.scan_rts = IsRegular(source_class);
    decision.scan_irts = true;  // Reorganizer may demote jittery batches.
  }
  return decision;
}

Result<RouteDecision> DataRouter::RouteHistorical(int schema_type,
                                                  SourceId id) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  if (sql_lookup_.load(std::memory_order_relaxed)) {
    return RouteViaSql(schema_type, id);
  }
  ODH_ASSIGN_OR_RETURN(const DataSourceInfo* info, config_->GetSource(id));
  if (info->schema_type != schema_type) {
    // Another type's source holds no rows of this type: answered like an
    // unregistered id, so virtual-table queries come back empty.
    return Status::NotFound("source " + std::to_string(id) +
                            " belongs to another schema type");
  }
  return DecisionFor(info->source_class, info->group);
}

Result<RouteDecision> DataRouter::RouteViaSql(int schema_type, SourceId id) {
  // The paper's implementation: metadata resolved by a SQL point query.
  std::string sql =
      "SELECT schema_type, cls, grp FROM odh$sources WHERE id = " +
      std::to_string(id);
  ODH_ASSIGN_OR_RETURN(sql::QueryResult result, engine_->Execute(sql));
  if (result.rows.empty() || result.rows[0][0].int64_value() != schema_type) {
    return Status::NotFound("unregistered source of this schema type: " +
                            std::to_string(id));
  }
  return DecisionFor(static_cast<SourceClass>(result.rows[0][1].int64_value()),
                     result.rows[0][2].int64_value());
}

Result<RouteDecision> DataRouter::RouteSlice(int schema_type) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  RouteDecision decision;
  decision.scan_rts = true;
  decision.scan_irts = true;
  decision.scan_mg = true;
  decision.mg_group = -1;
  return decision;
}

}  // namespace odh::core
