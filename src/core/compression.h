#ifndef ODH_CORE_COMPRESSION_H_
#define ODH_CORE_COMPRESSION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/types.h"

namespace odh::core {

/// Tag-value compression algorithms (paper §3, Figure 3).
///
///  - kRaw:       8-byte doubles, lossless (the baseline inside a blob).
///  - kXor:       Gorilla-style XOR-of-previous, lossless; effective on
///                slowly moving signals.
///  - kLinear:    swinging-door linear compression (Hale & Sellars 1981);
///                stores pivot points of a piecewise-linear approximation
///                with a maximum absolute deviation bound. Lossy.
///  - kQuantized: many-to-few value mapping on the block's value range with
///                an absolute error bound; bit-packed codes. Lossy.
enum class ValueCodec : uint8_t {
  kRaw = 0,
  kXor = 1,
  kLinear = 2,
  kQuantized = 3,
};

/// How to compress tag values.
struct CompressionSpec {
  /// Lossy codecs are only used when `max_error > 0`; otherwise the
  /// variability-aware selector falls back to lossless.
  double max_error = 0.0;
  /// Force a specific codec instead of selecting by data characteristics.
  bool force = false;
  ValueCodec forced_codec = ValueCodec::kRaw;
};

/// Picks a codec for a block of values (NaNs = missing are skipped):
/// smooth signals (small mean step relative to spread) -> linear when lossy
/// is allowed; fluctuating bounded signals -> quantized when lossy is
/// allowed; otherwise XOR lossless (or raw for tiny/irregular blocks).
ValueCodec SelectCodec(const double* values, size_t n,
                       const CompressionSpec& spec);

/// Encodes one tag column of `n` values (NaN = missing). Layout:
///   [codec:1][presence bitmap: ceil(n/8)][payload]
/// The presence bitmap lets every codec skip missing values; decode
/// restores NaN at missing positions.
Status EncodeColumn(const double* values, size_t n,
                    const CompressionSpec& spec, std::string* out);

/// Decodes a column of `n` values produced by EncodeColumn.
Status DecodeColumn(Slice input, size_t n, std::vector<double>* values);

/// Decodes only the first `m` (<= n) of the column's `n` values: *values
/// gets exactly what the first m entries of a full decode hold. Every
/// codec stops once it has them, so bytes past them are never read (nor
/// checked).
Status DecodeColumn(Slice input, size_t n, size_t m,
                    std::vector<double>* values);

/// Timestamp compression for irregular series: delta-of-delta varints
/// against `base`.
void EncodeTimestamps(const Timestamp* ts, size_t n, Timestamp base,
                      std::string* out);
Status DecodeTimestamps(Slice* input, size_t n, Timestamp base,
                        std::vector<Timestamp>* ts);

/// Like DecodeTimestamps, for non-decreasing timestamps read up to `hi`:
/// *ts keeps those before the first one past `hi`, and the remaining
/// varints are skipped unparsed. *input ends after all `n` either way.
Status DecodeTimestampsUpTo(Slice* input, size_t n, Timestamp base,
                            Timestamp hi, std::vector<Timestamp>* ts);

/// Advances *input past `count` varints without decoding them (a varint
/// ends at a byte below 0x80). False, with *input untouched, when it holds
/// fewer.
bool SkipVarints(Slice* input, size_t count);

}  // namespace odh::core

#endif  // ODH_CORE_COMPRESSION_H_
