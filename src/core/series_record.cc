#include "core/series_record.h"

#include "common/coding.h"

namespace odh::core {

relational::Schema SeriesSchema() {
  return relational::Schema({{"id", DataType::kInt64},
                             {"begin_ts", DataType::kTimestamp},
                             {"end_ts", DataType::kTimestamp},
                             {"interval", DataType::kInt64},
                             {"n", DataType::kInt64},
                             {"blob", DataType::kString},
                             {"zonemap", DataType::kString}});
}

void EncodeSeriesRecord(const SeriesRecord& rec, uint32_t header_bytes,
                        std::string* out) {
  // Reserved header, then the null bitmap: 7 columns, none NULL.
  out->append(header_bytes + 1, '\0');
  PutVarintSigned64(out, rec.id);
  PutVarintSigned64(out, rec.begin);
  PutVarintSigned64(out, rec.end);
  PutVarintSigned64(out, rec.interval);
  PutVarintSigned64(out, rec.n);
  PutLengthPrefixed(out, rec.blob);
  PutLengthPrefixed(out, rec.zone_map);
}

Status ParseSeriesRecord(Slice input, uint32_t header_bytes,
                         SeriesRecord* rec) {
  if (input.size() < header_bytes + 1) {
    return Status::Corruption("series record too short");
  }
  input.remove_prefix(header_bytes);
  if (input[0] != 0) return Status::Corruption("series record has a NULL");
  input.remove_prefix(1);
  if (!GetVarintSigned64(&input, &rec->id) ||
      !GetVarintSigned64(&input, &rec->begin) ||
      !GetVarintSigned64(&input, &rec->end) ||
      !GetVarintSigned64(&input, &rec->interval) ||
      !GetVarintSigned64(&input, &rec->n)) {
    return Status::Corruption("series record field");
  }
  if (!GetLengthPrefixed(&input, &rec->blob) ||
      !GetLengthPrefixed(&input, &rec->zone_map)) {
    return Status::Corruption("series record string");
  }
  if (!input.empty()) return Status::Corruption("series record trailer");
  return Status::OK();
}

}  // namespace odh::core
