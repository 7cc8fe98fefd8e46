#ifndef ODH_CORE_SERIES_RECORD_H_
#define ODH_CORE_SERIES_RECORD_H_

#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "relational/schema.h"

namespace odh::core {

/// One row of a segment's RTS or IRTS table, as the store reads and writes
/// it without building a Row: the fixed fields by value, the ValueBlob and
/// the encoded zone map as views into the record's bytes.
struct SeriesRecord {
  SourceId id = 0;
  Timestamp begin = 0;
  Timestamp end = 0;
  Timestamp interval = 0;  // 0 for IRTS.
  int64_t n = 0;
  Slice blob;
  Slice zone_map;
};

/// Schema of the RTS/IRTS tables: (id, begin_ts, end_ts, interval, n,
/// blob, zonemap).
relational::Schema SeriesSchema();

/// Appends `rec` to *out in RowCodec's layout for SeriesSchema() with
/// `header_bytes` reserved bytes: the zeroed header, a one-byte null
/// bitmap (no column is NULL), five signed varints and two length-prefixed
/// strings. Byte for byte what RowCodec::Encode writes for the same row.
void EncodeSeriesRecord(const SeriesRecord& rec, uint32_t header_bytes,
                        std::string* out);

/// Parses a record in that layout where it lies: rec->blob and
/// rec->zone_map point into `input`. Corruption for a truncated record, a
/// NULL column or trailing bytes.
Status ParseSeriesRecord(Slice input, uint32_t header_bytes,
                         SeriesRecord* rec);

}  // namespace odh::core

#endif  // ODH_CORE_SERIES_RECORD_H_
