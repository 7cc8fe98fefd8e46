#include "core/zone_map.h"

#include <cmath>

#include "common/coding.h"

namespace odh::core {

namespace {
// v2 wire header. v1 started directly with a varint32 tag count, so a v1
// encoding is either the single byte 0x00 (zero tags) or starts with a
// nonzero byte (count >= 1). A leading 0x00 with more bytes behind it can
// therefore unambiguously mark the v2 header.
constexpr char kV2Marker = 0;
constexpr char kV2Version = 2;
// Per-entry flags.
constexpr char kAbsent = 0;          // No values for this tag.
constexpr char kPresentAgg = 1;      // min/max + count/sum follow.
constexpr char kPresentMinMax = 2;   // min/max only (re-encoded v1 data).

// Min, max, count and sum of one tag's non-NaN values, kept in locals while
// folding so the compiler need not assume a store to the entry aliases the
// values; the entry is written once, at the end. Values are added in their
// order: the sum's bytes depend on it.
struct TagFold {
  double min = 0;
  double max = 0;
  double sum = 0;
  int64_t count = 0;

  void Add(double v) {
    if (std::isnan(v)) return;
    if (count == 0 || v < min) min = v;
    if (count == 0 || v > max) max = v;
    ++count;
    sum += v;
  }

  template <typename Entry>
  void StoreTo(Entry* entry) const {
    entry->has_agg = true;
    entry->present = count > 0;
    entry->min = min;
    entry->max = max;
    entry->count = count;
    entry->sum = sum;
  }
};
}  // namespace

ZoneMap ZoneMap::FromColumns(
    const std::vector<std::vector<double>>& columns) {
  ZoneMap map;
  map.entries_.resize(columns.size());
  for (size_t t = 0; t < columns.size(); ++t) {
    TagFold fold;
    for (double v : columns[t]) fold.Add(v);
    fold.StoreTo(&map.entries_[t]);
  }
  return map;
}

ZoneMap ZoneMap::FromRecords(const std::vector<OperationalRecord>& records,
                             int num_tags) {
  ZoneMap map;
  map.entries_.resize(num_tags);
  for (int t = 0; t < num_tags; ++t) {
    TagFold fold;
    for (const OperationalRecord& record : records) fold.Add(record.tags[t]);
    fold.StoreTo(&map.entries_[t]);
  }
  return map;
}

void ZoneMap::Widen(double margin) {
  if (margin <= 0) return;
  // Decoded values may now differ from the originals the summary was built
  // from; min/max/sum can no longer answer aggregates decode-consistently.
  exact_ = false;
  for (Entry& entry : entries_) {
    if (!entry.present) continue;
    entry.min -= margin;
    entry.max += margin;
  }
}

std::string ZoneMap::Encode() const {
  std::string out;
  out.push_back(kV2Marker);
  out.push_back(kV2Version);
  out.push_back(exact_ ? 1 : 0);  // Flags byte: bit0 = exact.
  PutVarint32(&out, static_cast<uint32_t>(entries_.size()));
  for (const Entry& entry : entries_) {
    if (!entry.present) {
      out.push_back(kAbsent);
      continue;
    }
    out.push_back(entry.has_agg ? kPresentAgg : kPresentMinMax);
    PutDouble(&out, entry.min);
    PutDouble(&out, entry.max);
    if (entry.has_agg) {
      PutVarint64(&out, static_cast<uint64_t>(entry.count));
      PutDouble(&out, entry.sum);
    }
  }
  return out;
}

Result<ZoneMap> ZoneMap::Decode(Slice input) {
  ZoneMap map;
  const bool v2 = input.size() > 1 && input[0] == kV2Marker;
  if (v2) {
    input.remove_prefix(1);
    if (input[0] != kV2Version) return Status::Corruption("zone map version");
    input.remove_prefix(1);
    if (input.empty()) return Status::Corruption("zone map flags");
    map.exact_ = (input[0] & 1) != 0;
    input.remove_prefix(1);
  }
  uint32_t n;
  if (!GetVarint32(&input, &n)) return Status::Corruption("zone map count");
  // Every entry takes at least its flag byte: a count past the bytes left
  // is corrupt, and must not size the allocation below.
  if (n > input.size()) return Status::Corruption("zone map count");
  map.entries_.resize(n);
  for (uint32_t t = 0; t < n; ++t) {
    if (input.empty()) return Status::Corruption("zone map flag");
    char flag = input[0];
    input.remove_prefix(1);
    Entry& entry = map.entries_[t];
    if (v2 ? flag == kAbsent : flag == 0) continue;
    if (v2 && flag != kPresentAgg && flag != kPresentMinMax) {
      return Status::Corruption("zone map entry flag");
    }
    entry.present = true;
    if (!GetDouble(&input, &entry.min) || !GetDouble(&input, &entry.max)) {
      return Status::Corruption("zone map bounds");
    }
    if (v2 && flag == kPresentAgg) {
      uint64_t count;
      if (!GetVarint64(&input, &count) || !GetDouble(&input, &entry.sum)) {
        return Status::Corruption("zone map aggregates");
      }
      entry.count = static_cast<int64_t>(count);
      entry.has_agg = true;
    }
  }
  // Aggregates are usable map-wide only when every populated entry carries
  // them (vacuously true for all-absent maps: their counts are genuinely 0).
  for (const Entry& entry : map.entries_) {
    if (entry.present && !entry.has_agg) map.has_aggregates_ = false;
  }
  return map;
}

bool ZoneMap::MayMatch(const std::vector<TagFilter>& filters) const {
  if (entries_.empty()) return true;  // Unknown: stay conservative.
  for (const TagFilter& filter : filters) {
    if (filter.tag < 0 || filter.tag >= num_tags()) continue;
    const Entry& entry = entries_[filter.tag];
    // A filtered tag with no values in the blob can never satisfy the
    // predicate (SQL: NULL never matches), so the blob is skippable.
    if (!entry.present) return false;
    if (filter.min_exclusive ? entry.max <= filter.min
                             : entry.max < filter.min) {
      return false;
    }
    if (filter.max_exclusive ? entry.min >= filter.max
                             : entry.min > filter.max) {
      return false;
    }
  }
  return true;
}

bool ZoneMap::AllMatch(const std::vector<TagFilter>& filters,
                       int64_t num_rows) const {
  if (filters.empty()) return true;
  if (entries_.empty() || !has_aggregates_) return false;
  for (const TagFilter& filter : filters) {
    // An out-of-range tag cannot be proven; stay conservative.
    if (filter.tag < 0 || filter.tag >= num_tags()) return false;
    const Entry& entry = entries_[filter.tag];
    // Every row must have a value (no NaN holes) inside the filter range.
    if (!entry.present || entry.count != num_rows) return false;
    if (filter.min_exclusive ? !(entry.min > filter.min)
                             : !(entry.min >= filter.min)) {
      return false;
    }
    if (filter.max_exclusive ? !(entry.max < filter.max)
                             : !(entry.max <= filter.max)) {
      return false;
    }
  }
  return true;
}

}  // namespace odh::core
