#ifndef ODH_CORE_VALUE_BLOB_H_
#define ODH_CORE_VALUE_BLOB_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "core/compression.h"

namespace odh::core {

/// One operational data record: what a sensor emits. Tag values are doubles
/// with NaN marking tags the source did not report (sparse records are the
/// norm in the paper's LD datasets).
struct OperationalRecord {
  SourceId id = 0;
  Timestamp ts = 0;
  std::vector<double> tags;
};

/// A decoded batch of points from one data source.
struct SeriesBatch {
  SourceId id = 0;
  std::vector<Timestamp> timestamps;
  /// tag-major: columns[t][i] is tag t of point i (NaN = missing). A
  /// decode fills the requested tags to full length and leaves every other
  /// column empty, which reads as all-missing.
  std::vector<std::vector<double>> columns;

  size_t num_points() const { return timestamps.size(); }
};

/// Encoders/decoders for the three batch structures of the ODH data model
/// (paper §2, Figure 1). Every blob stores values tag-major behind a
/// per-tag offset directory, so a query touching one tag out of hundreds
/// decodes only that tag's section (the "tag-oriented approach").
///
/// RTS  — Regular Time Series:  (id, begin_ts, interval, ValueBlob)
///        timestamps implicit: begin_ts + i * interval.
/// IRTS — Irregular Time Series: (id, begin_ts, ValueBlob)
///        timestamps delta-of-delta compressed inside the blob.
/// MG   — Mixed Grouping: (begin_ts, group, ValueBlob)
///        b points from many low-frequency sources packed by time window;
///        ids delta-compressed inside the blob.
class ValueBlobCodec {
 public:
  explicit ValueBlobCodec(CompressionSpec spec) : spec_(spec) {}

  /// RTS: timestamps must be begin + i*interval exactly (the writer
  /// verifies regularity before choosing RTS).
  Status EncodeRts(const SeriesBatch& batch, Timestamp interval,
                   std::string* out) const;
  Status DecodeRts(Slice blob, SourceId id, Timestamp begin,
                   Timestamp interval, const std::vector<int>& wanted_tags,
                   int num_tags, SeriesBatch* batch) const;

  /// IRTS: arbitrary increasing timestamps.
  Status EncodeIrts(const SeriesBatch& batch, std::string* out) const;
  Status DecodeIrts(Slice blob, SourceId id, Timestamp begin,
                    const std::vector<int>& wanted_tags, int num_tags,
                    SeriesBatch* batch) const;

  /// MG: records from many sources in one time window. Records must be
  /// sorted by (ts, id).
  Status EncodeMg(const std::vector<OperationalRecord>& records,
                  Timestamp begin, std::string* out) const;
  Status DecodeMg(Slice blob, Timestamp begin,
                  const std::vector<int>& wanted_tags, int num_tags,
                  std::vector<OperationalRecord>* records) const;

  const CompressionSpec& spec() const { return spec_; }

 private:
  /// Shared tag-column section: directory of offsets + encoded columns.
  Status EncodeColumns(const std::vector<std::vector<double>>& columns,
                       size_t n, std::string* out) const;
  Status DecodeColumns(Slice input, size_t n,
                       const std::vector<int>& wanted_tags, int num_tags,
                       std::vector<std::vector<double>>* columns) const;

  CompressionSpec spec_;
};

}  // namespace odh::core

#endif  // ODH_CORE_VALUE_BLOB_H_
