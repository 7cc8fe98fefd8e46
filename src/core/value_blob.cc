#include "core/value_blob.h"

#include <cmath>
#include <limits>

#include "common/coding.h"

namespace odh::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

Status ValueBlobCodec::EncodeColumns(
    const std::vector<std::vector<double>>& columns, size_t n,
    std::string* out) const {
  // Encode every column back to back into one buffer, then write a
  // directory of section sizes ahead of them so a reader can jump straight
  // to the tags it needs.
  std::string sections;
  std::vector<uint32_t> sizes(columns.size());
  for (size_t t = 0; t < columns.size(); ++t) {
    if (columns[t].size() != n) {
      return Status::InvalidArgument("column length mismatch");
    }
    const size_t before = sections.size();
    ODH_RETURN_IF_ERROR(EncodeColumn(columns[t].data(), n, spec_, &sections));
    sizes[t] = static_cast<uint32_t>(sections.size() - before);
  }
  PutVarint32(out, static_cast<uint32_t>(columns.size()));
  for (uint32_t size : sizes) PutVarint32(out, size);
  out->append(sections);
  return Status::OK();
}

Status ValueBlobCodec::DecodeColumns(
    Slice input, size_t n, const std::vector<int>& wanted_tags, int num_tags,
    std::vector<std::vector<double>>* columns) const {
  uint32_t stored_tags;
  if (!GetVarint32(&input, &stored_tags)) {
    return Status::Corruption("tag count");
  }
  if (static_cast<int>(stored_tags) != num_tags) {
    return Status::Corruption("tag count mismatch");
  }
  std::vector<uint32_t> sizes(stored_tags);
  for (uint32_t t = 0; t < stored_tags; ++t) {
    if (!GetVarint32(&input, &sizes[t])) {
      return Status::Corruption("tag section size");
    }
  }
  // Only requested tags are decoded; others stay empty, which every reader
  // of a decoded batch takes as all-missing. Empty wanted list = decode
  // everything. A reused batch keeps its columns' capacity.
  columns->resize(static_cast<size_t>(num_tags));
  for (std::vector<double>& col : *columns) col.clear();
  std::vector<bool> want(num_tags, wanted_tags.empty());
  for (int t : wanted_tags) {
    if (t < 0 || t >= num_tags) return Status::InvalidArgument("bad tag");
    want[t] = true;
  }
  size_t offset = 0;
  for (uint32_t t = 0; t < stored_tags; ++t) {
    if (want[t]) {
      if (offset + sizes[t] > input.size()) {
        return Status::Corruption("tag section out of range");
      }
      Slice section(input.data() + offset, sizes[t]);
      ODH_RETURN_IF_ERROR(DecodeColumn(section, n, &(*columns)[t]));
    }
    offset += sizes[t];
  }
  return Status::OK();
}

Status ValueBlobCodec::EncodeRts(const SeriesBatch& batch, Timestamp interval,
                                 std::string* out) const {
  const size_t n = batch.num_points();
  if (n == 0) return Status::InvalidArgument("empty batch");
  if (interval <= 0) return Status::InvalidArgument("bad interval");
  for (size_t i = 0; i < n; ++i) {
    if (batch.timestamps[i] !=
        batch.timestamps[0] + static_cast<Timestamp>(i) * interval) {
      return Status::InvalidArgument("RTS batch is not regular");
    }
  }
  PutVarint32(out, static_cast<uint32_t>(n));
  PutVarint64(out, static_cast<uint64_t>(interval));
  return EncodeColumns(batch.columns, n, out);
}

Status ValueBlobCodec::DecodeRts(Slice blob, SourceId id, Timestamp begin,
                                 Timestamp interval,
                                 const std::vector<int>& wanted_tags,
                                 int num_tags, SeriesBatch* batch) const {
  uint32_t n;
  uint64_t stored_interval;
  if (!GetVarint32(&blob, &n) || !GetVarint64(&blob, &stored_interval)) {
    return Status::Corruption("rts header");
  }
  // Every tag section holds a presence bit per point, which bounds n
  // before anything is sized by it.
  if (num_tags > 0 && n > 8 * blob.size()) {
    return Status::Corruption("rts point count");
  }
  if (interval != 0 &&
      static_cast<Timestamp>(stored_interval) != interval) {
    return Status::Corruption("rts interval mismatch");
  }
  batch->id = id;
  batch->timestamps.resize(n);
  // Unsigned: a corrupt interval wraps instead of overflowing.
  for (uint32_t i = 0; i < n; ++i) {
    batch->timestamps[i] = static_cast<Timestamp>(
        static_cast<uint64_t>(begin) + uint64_t{i} * stored_interval);
  }
  return DecodeColumns(blob, n, wanted_tags, num_tags, &batch->columns);
}

Status ValueBlobCodec::EncodeIrts(const SeriesBatch& batch,
                                  std::string* out) const {
  const size_t n = batch.num_points();
  if (n == 0) return Status::InvalidArgument("empty batch");
  for (size_t i = 1; i < n; ++i) {
    if (batch.timestamps[i] < batch.timestamps[i - 1]) {
      return Status::InvalidArgument("timestamps must be non-decreasing");
    }
  }
  PutVarint32(out, static_cast<uint32_t>(n));
  EncodeTimestamps(batch.timestamps.data(), n, batch.timestamps[0], out);
  return EncodeColumns(batch.columns, n, out);
}

Status ValueBlobCodec::DecodeIrts(Slice blob, SourceId id, Timestamp begin,
                                  const std::vector<int>& wanted_tags,
                                  int num_tags, SeriesBatch* batch) const {
  uint32_t n;
  if (!GetVarint32(&blob, &n)) return Status::Corruption("irts header");
  // At least one timestamp byte per point.
  if (n > blob.size()) return Status::Corruption("irts point count");
  batch->id = id;
  ODH_RETURN_IF_ERROR(DecodeTimestamps(&blob, n, begin, &batch->timestamps));
  return DecodeColumns(blob, n, wanted_tags, num_tags, &batch->columns);
}

Status ValueBlobCodec::EncodeMg(const std::vector<OperationalRecord>& records,
                                Timestamp begin, std::string* out) const {
  const size_t n = records.size();
  if (n == 0) return Status::InvalidArgument("empty batch");
  const size_t num_tags = records[0].tags.size();
  PutVarint32(out, static_cast<uint32_t>(n));
  // Ids: zig-zag deltas (records sorted by (ts, id); ids still cluster).
  int64_t prev_id = 0;
  for (const OperationalRecord& r : records) {
    if (r.tags.size() != num_tags) {
      return Status::InvalidArgument("ragged MG records");
    }
    PutVarintSigned64(out, r.id - prev_id);
    prev_id = r.id;
  }
  // Timestamps: delta-of-delta against the window start.
  std::vector<Timestamp> ts(n);
  for (size_t i = 0; i < n; ++i) ts[i] = records[i].ts;
  EncodeTimestamps(ts.data(), n, begin, out);
  // Values: tag-major columns across the grouped records.
  std::vector<std::vector<double>> columns(num_tags,
                                           std::vector<double>(n, kNaN));
  for (size_t i = 0; i < n; ++i) {
    for (size_t t = 0; t < num_tags; ++t) columns[t][i] = records[i].tags[t];
  }
  return EncodeColumns(columns, n, out);
}

Status ValueBlobCodec::DecodeMg(Slice blob, Timestamp begin,
                                const std::vector<int>& wanted_tags,
                                int num_tags,
                                std::vector<OperationalRecord>* records)
    const {
  uint32_t n;
  if (!GetVarint32(&blob, &n)) return Status::Corruption("mg header");
  // At least one id byte per record.
  if (n > blob.size()) return Status::Corruption("mg record count");
  records->assign(n, OperationalRecord{});
  uint64_t prev_id = 0;  // Unsigned: corrupt deltas wrap, never overflow.
  for (uint32_t i = 0; i < n; ++i) {
    int64_t delta;
    if (!GetVarintSigned64(&blob, &delta)) return Status::Corruption("mg id");
    prev_id += static_cast<uint64_t>(delta);
    (*records)[i].id = static_cast<SourceId>(prev_id);
  }
  std::vector<Timestamp> ts;
  ODH_RETURN_IF_ERROR(DecodeTimestamps(&blob, n, begin, &ts));
  std::vector<std::vector<double>> columns;
  ODH_RETURN_IF_ERROR(
      DecodeColumns(blob, n, wanted_tags, num_tags, &columns));
  for (uint32_t i = 0; i < n; ++i) {
    (*records)[i].ts = ts[i];
    (*records)[i].tags.assign(num_tags, kNaN);
    for (int t = 0; t < num_tags; ++t) {
      if (!columns[t].empty()) (*records)[i].tags[t] = columns[t][i];
    }
  }
  return Status::OK();
}

}  // namespace odh::core
