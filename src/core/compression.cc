#include "core/compression.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/coding.h"
#include "core/bits.h"

namespace odh::core {
namespace {

constexpr int kMaxQuantBits = 20;  // Beyond this, quantization stops paying.

struct ColumnProfile {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double mean_abs_step = 0;
};

ColumnProfile Profile(const double* values, size_t n) {
  ColumnProfile p;
  double prev = 0;
  bool have_prev = false;
  double step_sum = 0;
  size_t steps = 0;
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(values[i])) continue;
    if (values[i] < p.min) p.min = values[i];
    if (values[i] > p.max) p.max = values[i];
    if (have_prev) {
      step_sum += std::fabs(values[i] - prev);
      ++steps;
    }
    prev = values[i];
    have_prev = true;
  }
  p.mean_abs_step = steps > 0 ? step_sum / static_cast<double>(steps) : 0;
  return p;
}

void EncodeRaw(const double* v, size_t n, std::string* out) {
  for (size_t i = 0; i < n; ++i) PutDouble(out, v[i]);
}

Status DecodeRaw(Slice* input, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    if (!GetDouble(input, &out[i])) return Status::Corruption("raw value");
  }
  return Status::OK();
}

void EncodeXor(const double* v, size_t n, std::string* out) {
  BitWriter writer(out);
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &v[i], 8);
    if (i == 0) {
      writer.Write(bits, 64);
    } else {
      uint64_t x = bits ^ prev;
      if (x == 0) {
        writer.WriteBit(false);
      } else {
        int leading = __builtin_clzll(x);
        int trailing = __builtin_ctzll(x);
        if (leading > 63) leading = 63;
        int length = 64 - leading - trailing;
        // Flag bit, 6-bit leading-zero count and 6-bit length in one write.
        writer.Write((uint64_t{1} << 12) |
                         (static_cast<uint64_t>(leading) << 6) |
                         static_cast<uint64_t>(length - 1),
                     13);
        writer.Write(x >> trailing, length);
      }
    }
    prev = bits;
  }
  writer.Finish();
}

Status DecodeXor(Slice input, size_t n, double* out) {
  BitReader reader(input);
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    if (i == 0) {
      if (!reader.Read(64, &bits)) return Status::Corruption("xor head");
    } else {
      bool changed;
      if (!reader.ReadBit(&changed)) return Status::Corruption("xor flag");
      if (!changed) {
        bits = prev;
      } else {
        uint64_t header, payload;
        if (!reader.Read(12, &header)) {
          return Status::Corruption("xor header");
        }
        int length = static_cast<int>(header & 63) + 1;
        int trailing = 64 - static_cast<int>(header >> 6) - length;
        if (trailing < 0) return Status::Corruption("xor widths");
        if (!reader.Read(length, &payload)) {
          return Status::Corruption("xor payload");
        }
        bits = prev ^ (payload << trailing);
      }
    }
    std::memcpy(&out[i], &bits, 8);
    prev = bits;
  }
  return Status::OK();
}

/// Swinging-door pivots over the compacted (present-only) sequence.
/// Pivot values come from the corridor midpoint so every reconstructed
/// point deviates at most `max_error` from the original.
void EncodeLinear(const double* v, size_t n, double max_error,
                  std::string* out) {
  const double e = max_error;
  PutVarint32(out, static_cast<uint32_t>(n));
  if (n == 0) return;
  std::vector<std::pair<uint32_t, double>> pivots;
  pivots.emplace_back(0, v[0]);
  size_t start = 0;
  double start_val = v[0];
  double slope_hi = std::numeric_limits<double>::infinity();
  double slope_lo = -std::numeric_limits<double>::infinity();
  double last_ok_hi = 0, last_ok_lo = 0;  // Corridor at the previous index.
  for (size_t i = start + 1; i < n; ++i) {
    double dx = static_cast<double>(i - start);
    double hi = (v[i] + e - start_val) / dx;
    double lo = (v[i] - e - start_val) / dx;
    double new_hi = std::min(slope_hi, hi);
    double new_lo = std::max(slope_lo, lo);
    if (new_lo > new_hi) {
      // Emit a pivot at i-1 using the corridor midpoint.
      double mid = (last_ok_hi + last_ok_lo) / 2;
      double pivot_val = start_val + mid * static_cast<double>(i - 1 - start);
      pivots.emplace_back(static_cast<uint32_t>(i - 1), pivot_val);
      start = i - 1;
      start_val = pivot_val;
      dx = 1.0;
      slope_hi = v[i] + e - start_val;
      slope_lo = v[i] - e - start_val;
      last_ok_hi = slope_hi;
      last_ok_lo = slope_lo;
    } else {
      slope_hi = new_hi;
      slope_lo = new_lo;
      last_ok_hi = slope_hi;
      last_ok_lo = slope_lo;
    }
  }
  if (n > start + 1 || pivots.size() == 1) {
    size_t last = n - 1;
    double val;
    if (last == start) {
      val = start_val;
    } else {
      double mid = (last_ok_hi + last_ok_lo) / 2;
      val = start_val + mid * static_cast<double>(last - start);
    }
    if (pivots.back().first != last) {
      pivots.emplace_back(static_cast<uint32_t>(last), val);
    }
  }
  PutVarint32(out, static_cast<uint32_t>(pivots.size()));
  uint32_t prev_idx = 0;
  for (const auto& [idx, val] : pivots) {
    PutVarint32(out, idx - prev_idx);
    prev_idx = idx;
    PutDouble(out, val);
  }
}

/// Decodes the first `m` of `n` values; the stored count must equal `n`.
/// Pivot indices ascend, so the pivots past the m-th value are not read.
Status DecodeLinear(Slice* input, size_t n, size_t m, double* out) {
  uint32_t stored, num_pivots;
  if (!GetVarint32(input, &stored)) return Status::Corruption("linear n");
  if (stored != n) return Status::Corruption("linear count mismatch");
  if (n == 0) return Status::OK();
  std::fill(out, out + m, 0.0);
  if (!GetVarint32(input, &num_pivots) || num_pivots == 0) {
    return Status::Corruption("linear pivots");
  }
  uint32_t prev_idx = 0;
  double prev_val = 0;
  bool first = true;
  for (uint32_t p = 0; p < num_pivots && (first || prev_idx + 1 < m); ++p) {
    uint32_t delta;
    double val;
    if (!GetVarint32(input, &delta) || !GetDouble(input, &val)) {
      return Status::Corruption("linear pivot");
    }
    uint32_t idx = first ? delta : prev_idx + delta;
    if (idx >= n) return Status::Corruption("linear pivot index");
    if (first) {
      if (idx < m) out[idx] = val;
    } else {
      const uint32_t last = std::min<uint32_t>(idx, static_cast<uint32_t>(m - 1));
      for (uint32_t i = prev_idx + 1; i <= last; ++i) {
        double t = static_cast<double>(i - prev_idx) /
                   static_cast<double>(idx - prev_idx);
        out[i] = prev_val + t * (val - prev_val);
      }
    }
    prev_idx = idx;
    prev_val = val;
    first = false;
  }
  // Trailing values past the last pivot hold the last value.
  for (size_t i = prev_idx + 1; i < m; ++i) out[i] = prev_val;
  return Status::OK();
}

/// Quantization: header (min, step, bit width), then bit-packed codes.
/// Returns false if the value range needs too many bits to pay off.
bool EncodeQuantized(const double* v, size_t n, double max_error,
                     std::string* out) {
  if (n == 0) {
    PutDouble(out, 0);
    PutDouble(out, 1);
    out->push_back(1);
    return true;
  }
  double min = v[0], max = v[0];
  for (size_t i = 0; i < n; ++i) {
    if (v[i] < min) min = v[i];
    if (v[i] > max) max = v[i];
  }
  double step = 2 * max_error;
  double levels_d = step > 0 ? (max - min) / step : 0;
  if (!(levels_d < (1u << kMaxQuantBits))) return false;
  uint64_t max_code = static_cast<uint64_t>(std::llround(levels_d)) + 1;
  int width = BitWidth(max_code);
  PutDouble(out, min);
  PutDouble(out, step);
  out->push_back(static_cast<char>(width));
  BitWriter writer(out);
  for (size_t i = 0; i < n; ++i) {
    uint64_t code =
        step > 0 ? static_cast<uint64_t>(std::llround((v[i] - min) / step))
                 : 0;
    writer.Write(code, width);
  }
  writer.Finish();
  return true;
}

Status DecodeQuantized(Slice input, size_t n, double* out) {
  double min, step;
  if (!GetDouble(&input, &min) || !GetDouble(&input, &step)) {
    return Status::Corruption("quant header");
  }
  if (input.empty()) return Status::Corruption("quant width");
  int width = static_cast<uint8_t>(input[0]);
  input.remove_prefix(1);
  if (width <= 0 || width > 63) return Status::Corruption("quant width");
  BitReader reader(input);
  for (size_t i = 0; i < n; ++i) {
    uint64_t code;
    if (!reader.Read(width, &code)) return Status::Corruption("quant code");
    out[i] = min + static_cast<double>(code) * step;
  }
  return Status::OK();
}

/// Codec choice once the present count is known. The full profile is only
/// taken when lossy codecs are allowed: lossless choices depend on the
/// count alone.
ValueCodec ChooseCodec(const double* values, size_t n, size_t present,
                       const CompressionSpec& spec) {
  if (spec.force) return spec.forced_codec;
  if (present < 4) return ValueCodec::kRaw;
  if (spec.max_error <= 0) return ValueCodec::kXor;
  ColumnProfile p = Profile(values, n);
  double range = p.max - p.min;
  if (range <= 0) return ValueCodec::kLinear;  // Constant: 2 pivots.
  double smoothness = p.mean_abs_step / range;
  // Smooth, slowly varying signals compress best piecewise-linearly;
  // noisy ones quantize better (paper's variability-aware strategy).
  return smoothness < 0.05 ? ValueCodec::kLinear : ValueCodec::kQuantized;
}

}  // namespace

ValueCodec SelectCodec(const double* values, size_t n,
                       const CompressionSpec& spec) {
  size_t present = 0;
  for (size_t i = 0; i < n; ++i) present += !std::isnan(values[i]);
  return ChooseCodec(values, n, present, spec);
}

Status EncodeColumn(const double* values, size_t n,
                    const CompressionSpec& spec, std::string* out) {
  const size_t header_pos = out->size();
  const size_t bitmap_bytes = (n + 7) / 8;
  out->resize(header_pos + 1 + bitmap_bytes);
  // Presence bitmap, built a byte at a time while counting present values.
  size_t present = 0;
  for (size_t b = 0; b < bitmap_bytes; ++b) {
    const size_t lo = b * 8;
    const size_t hi = std::min(n, lo + 8);
    unsigned byte = 0;
    for (size_t i = lo; i < hi; ++i) {
      byte |= static_cast<unsigned>(!std::isnan(values[i])) << (i - lo);
    }
    (*out)[header_pos + 1 + b] = static_cast<char>(byte);
    present += static_cast<size_t>(__builtin_popcount(byte));
  }
  const ValueCodec codec = ChooseCodec(values, n, present, spec);
  // Lossy codecs require an error bound.
  if (spec.max_error <= 0 &&
      (codec == ValueCodec::kLinear || codec == ValueCodec::kQuantized)) {
    out->resize(header_pos);
    return Status::InvalidArgument("lossy codec requires max_error > 0");
  }
  (*out)[header_pos] = static_cast<char>(codec);

  // The codecs see present values only: the column itself when nothing is
  // missing, otherwise a compacted copy.
  std::vector<double> compacted;
  const double* v = values;
  if (present < n) {
    compacted.reserve(present);
    for (size_t i = 0; i < n; ++i) {
      if (!std::isnan(values[i])) compacted.push_back(values[i]);
    }
    v = compacted.data();
  }
  switch (codec) {
    case ValueCodec::kRaw:
      EncodeRaw(v, present, out);
      break;
    case ValueCodec::kXor:
      EncodeXor(v, present, out);
      break;
    case ValueCodec::kLinear:
      EncodeLinear(v, present, spec.max_error, out);
      break;
    case ValueCodec::kQuantized:
      if (!EncodeQuantized(v, present, spec.max_error, out)) {
        // Range too wide for quantization: XOR instead.
        out->resize(header_pos + 1 + bitmap_bytes);
        (*out)[header_pos] = static_cast<char>(ValueCodec::kXor);
        EncodeXor(v, present, out);
      }
      break;
  }
  return Status::OK();
}

Status DecodeColumn(Slice input, size_t n, std::vector<double>* values) {
  return DecodeColumn(input, n, n, values);
}

Status DecodeColumn(Slice input, size_t n, size_t m,
                    std::vector<double>* values) {
  if (m > n) return Status::InvalidArgument("prefix longer than column");
  if (input.empty()) return Status::Corruption("empty column");
  ValueCodec codec = static_cast<ValueCodec>(input[0]);
  input.remove_prefix(1);
  const size_t bitmap_bytes = (n + 7) / 8;
  if (input.size() < bitmap_bytes) return Status::Corruption("bitmap");
  const uint8_t* bitmap = reinterpret_cast<const uint8_t*>(input.data());
  input.remove_prefix(bitmap_bytes);
  // Present values in the whole column (Linear checks its stored count
  // against it) and among the first m points (the ones decoded).
  size_t present = 0;
  size_t present_m = 0;
  for (size_t b = 0; b < bitmap_bytes; ++b) {
    unsigned byte = bitmap[b];
    if (b == n / 8) byte &= (1u << (n % 8)) - 1;  // Bits past n.
    present += static_cast<size_t>(__builtin_popcount(byte));
    if (b < m / 8) {
      present_m += static_cast<size_t>(__builtin_popcount(byte));
    } else if (b == m / 8) {
      present_m += static_cast<size_t>(
          __builtin_popcount(byte & ((1u << (m % 8)) - 1)));
    }
  }
  // A dense column decodes in place; a sparse one decodes its present
  // values and then scatters them around the NaN gaps.
  std::vector<double> sparse;
  double* decoded;
  if (present == n) {
    values->resize(m);
    decoded = values->data();
  } else {
    sparse.resize(present_m);
    decoded = sparse.data();
  }
  switch (codec) {
    case ValueCodec::kRaw: {
      Slice in = input;
      ODH_RETURN_IF_ERROR(DecodeRaw(&in, present_m, decoded));
      break;
    }
    case ValueCodec::kXor:
      ODH_RETURN_IF_ERROR(DecodeXor(input, present_m, decoded));
      break;
    case ValueCodec::kLinear: {
      Slice in = input;
      ODH_RETURN_IF_ERROR(DecodeLinear(&in, present, present_m, decoded));
      break;
    }
    case ValueCodec::kQuantized:
      ODH_RETURN_IF_ERROR(DecodeQuantized(input, present_m, decoded));
      break;
    default:
      return Status::Corruption("unknown codec");
  }
  if (present < n) {
    values->assign(m, std::numeric_limits<double>::quiet_NaN());
    size_t next = 0;
    for (size_t i = 0; i < m; ++i) {
      if ((bitmap[i / 8] >> (i % 8)) & 1) (*values)[i] = sparse[next++];
    }
  }
  return Status::OK();
}

void EncodeTimestamps(const Timestamp* ts, size_t n, Timestamp base,
                      std::string* out) {
  int64_t prev_delta = 0;
  Timestamp prev = base;
  for (size_t i = 0; i < n; ++i) {
    int64_t delta = ts[i] - prev;
    PutVarintSigned64(out, delta - prev_delta);  // Delta-of-delta.
    prev_delta = delta;
    prev = ts[i];
  }
}

Status DecodeTimestamps(Slice* input, size_t n, Timestamp base,
                        std::vector<Timestamp>* ts) {
  return DecodeTimestampsUpTo(input, n, base, kMaxTimestamp, ts);
}

Status DecodeTimestampsUpTo(Slice* input, size_t n, Timestamp base,
                            Timestamp hi, std::vector<Timestamp>* ts) {
  // At least one varint byte per timestamp.
  if (n > input->size()) return Status::Corruption("timestamp count");
  ts->resize(n);
  // Wrapping arithmetic: a corrupt blob must not overflow a signed add.
  // Valid blobs never wrap, so they decode exactly.
  uint64_t prev_delta = 0;
  uint64_t prev = static_cast<uint64_t>(base);
  for (size_t i = 0; i < n; ++i) {
    int64_t dod;
    if (!GetVarintSigned64(input, &dod)) {
      return Status::Corruption("timestamp dod");
    }
    prev_delta += static_cast<uint64_t>(dod);
    prev += prev_delta;
    if (static_cast<Timestamp>(prev) > hi) {
      ts->resize(i);
      if (!SkipVarints(input, n - i - 1)) {
        return Status::Corruption("timestamp dod");
      }
      return Status::OK();
    }
    (*ts)[i] = static_cast<Timestamp>(prev);
  }
  return Status::OK();
}

bool SkipVarints(Slice* input, size_t count) {
  const char* p = input->data();
  const char* const end = p + input->size();
  // Eight bytes at a time while the word cannot hold the count-th end.
  constexpr uint64_t kHighBits = 0x8080808080808080ULL;
  while (end - p >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    const size_t ends =
        static_cast<size_t>(__builtin_popcountll(~word & kHighBits));
    if (ends >= count) break;
    count -= ends;
    p += 8;
  }
  for (; count > 0 && p < end; ++p) {
    if ((static_cast<unsigned char>(*p) & 0x80) == 0) --count;
  }
  if (count > 0) return false;
  input->remove_prefix(static_cast<size_t>(p - input->data()));
  return true;
}

}  // namespace odh::core
