#include "core/config.h"

#include <algorithm>

namespace odh::core {

std::string SourceClassName(SourceClass c) {
  switch (c) {
    case SourceClass::kRegularHighFrequency:
      return "regular high-frequency";
    case SourceClass::kIrregularHighFrequency:
      return "irregular high-frequency";
    case SourceClass::kRegularLowFrequency:
      return "regular low-frequency";
    case SourceClass::kIrregularLowFrequency:
      return "irregular low-frequency";
  }
  return "?";
}

Result<int> ConfigComponent::DefineSchemaType(SchemaType type) {
  if (type.name.empty() || type.tag_names.empty()) {
    return Status::InvalidArgument("schema type needs a name and tags");
  }
  for (const SchemaType& existing : types_) {
    if (existing.name == type.name) {
      return Status::AlreadyExists("schema type exists: " + type.name);
    }
  }
  types_.push_back(std::move(type));
  return static_cast<int>(types_.size() - 1);
}

Result<const SchemaType*> ConfigComponent::GetSchemaType(int type_id) const {
  if (type_id < 0 || type_id >= static_cast<int>(types_.size())) {
    return Status::NotFound("no such schema type");
  }
  return &types_[type_id];
}

Result<int> ConfigComponent::FindSchemaType(const std::string& name) const {
  for (size_t i = 0; i < types_.size(); ++i) {
    if (types_[i].name == name) return static_cast<int>(i);
  }
  return Status::NotFound("no such schema type: " + name);
}

Status ConfigComponent::RegisterSource(SourceId id, int schema_type,
                                       Timestamp sample_interval,
                                       bool regular) {
  if (schema_type < 0 || schema_type >= static_cast<int>(types_.size())) {
    return Status::InvalidArgument("bad schema type");
  }
  if (sources_.count(id) > 0) {
    return Status::AlreadyExists("source registered: " + std::to_string(id));
  }
  if (sample_interval <= 0) {
    return Status::InvalidArgument("sample interval must be positive");
  }
  DataSourceInfo info;
  info.id = id;
  info.schema_type = schema_type;
  info.expected_interval = sample_interval;
  double hz = static_cast<double>(kMicrosPerSecond) /
              static_cast<double>(sample_interval);
  bool high = hz >= options_.high_frequency_threshold_hz;
  info.source_class =
      high ? (regular ? SourceClass::kRegularHighFrequency
                      : SourceClass::kIrregularHighFrequency)
           : (regular ? SourceClass::kRegularLowFrequency
                      : SourceClass::kIrregularLowFrequency);
  if (!high) {
    // Assign MG groups in registration order, mg_group_size sources each.
    int64_t& slot = next_group_slot_[schema_type];
    info.group = slot / options_.mg_group_size;
    ++slot;
    auto& groups = groups_by_type_[schema_type];
    if (groups.empty() || groups.back() != info.group) {
      groups.push_back(info.group);
    }
  }
  sources_[id] = info;
  return Status::OK();
}

Result<const DataSourceInfo*> ConfigComponent::GetSource(SourceId id) const {
  auto it = sources_.find(id);
  if (it == sources_.end()) {
    return Status::NotFound("unregistered source: " + std::to_string(id));
  }
  return &it->second;
}

std::vector<int64_t> ConfigComponent::GroupsOf(int schema_type) const {
  auto it = groups_by_type_.find(schema_type);
  if (it == groups_by_type_.end()) return {};
  return it->second;
}

std::vector<SourceId> ConfigComponent::SourcesOf(int schema_type) const {
  std::vector<SourceId> out;
  for (const auto& [id, info] : sources_) {
    if (info.schema_type == schema_type) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace odh::core
