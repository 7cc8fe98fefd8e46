#include "core/compression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "core/bits.h"

namespace odh::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<double> Decoded(const std::vector<double>& values,
                            const CompressionSpec& spec) {
  std::string buf;
  EXPECT_TRUE(EncodeColumn(values.data(), values.size(), spec, &buf).ok());
  std::vector<double> out;
  EXPECT_TRUE(DecodeColumn(Slice(buf), values.size(), &out).ok());
  return out;
}

CompressionSpec Forced(ValueCodec codec, double max_error = 0) {
  CompressionSpec spec;
  spec.force = true;
  spec.forced_codec = codec;
  spec.max_error = max_error;
  return spec;
}

TEST(BitsTest, WriterReaderRoundTrip) {
  std::string buf;
  BitWriter writer(&buf);
  writer.Write(0b101, 3);
  writer.Write(0xDEADBEEF, 32);
  writer.WriteBit(true);
  writer.Write(0, 7);
  writer.Finish();
  BitReader reader{Slice(buf)};
  uint64_t v;
  ASSERT_TRUE(reader.Read(3, &v));
  EXPECT_EQ(v, 0b101u);
  ASSERT_TRUE(reader.Read(32, &v));
  EXPECT_EQ(v, 0xDEADBEEFu);
  bool bit;
  ASSERT_TRUE(reader.ReadBit(&bit));
  EXPECT_TRUE(bit);
  ASSERT_TRUE(reader.Read(7, &v));
  EXPECT_EQ(v, 0u);
}

TEST(BitsTest, ReadPastEndFails) {
  std::string buf;
  BitWriter writer(&buf);
  writer.Write(1, 4);
  writer.Finish();
  BitReader reader{Slice(buf)};
  uint64_t v;
  EXPECT_TRUE(reader.Read(8, &v));   // Padded byte.
  EXPECT_FALSE(reader.Read(1, &v));  // Past the end.
}

TEST(BitsTest, BitWidth) {
  EXPECT_EQ(BitWidth(0), 1);
  EXPECT_EQ(BitWidth(1), 1);
  EXPECT_EQ(BitWidth(2), 2);
  EXPECT_EQ(BitWidth(255), 8);
  EXPECT_EQ(BitWidth(256), 9);
}

TEST(CompressionTest, RawRoundTrip) {
  std::vector<double> v = {1.5, -2.25, 0.0, 1e300};
  EXPECT_EQ(Decoded(v, Forced(ValueCodec::kRaw)), v);
}

TEST(CompressionTest, XorRoundTripIsLossless) {
  Random rng(7);
  std::vector<double> v;
  double x = 100;
  for (int i = 0; i < 500; ++i) {
    x += rng.NextGaussian();
    v.push_back(x);
  }
  EXPECT_EQ(Decoded(v, Forced(ValueCodec::kXor)), v);
}

TEST(CompressionTest, XorCompressesConstantSeries) {
  std::vector<double> v(1000, 42.5);
  std::string buf;
  ASSERT_TRUE(
      EncodeColumn(v.data(), v.size(), Forced(ValueCodec::kXor), &buf).ok());
  // 1000 repeated values: 1 full + 999 single bits + bitmap.
  EXPECT_LT(buf.size(), 300u);
  EXPECT_EQ(Decoded(v, Forced(ValueCodec::kXor)), v);
}

TEST(CompressionTest, NaNPresenceRestored) {
  std::vector<double> v = {1.0, kNaN, 3.0, kNaN, kNaN, 6.0};
  for (ValueCodec codec : {ValueCodec::kRaw, ValueCodec::kXor}) {
    std::vector<double> out = Decoded(v, Forced(codec));
    ASSERT_EQ(out.size(), v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      if (std::isnan(v[i])) {
        EXPECT_TRUE(std::isnan(out[i])) << i;
      } else {
        EXPECT_EQ(out[i], v[i]) << i;
      }
    }
  }
}

TEST(CompressionTest, AllMissingColumn) {
  std::vector<double> v(10, kNaN);
  std::vector<double> out = Decoded(v, Forced(ValueCodec::kXor));
  for (double x : out) EXPECT_TRUE(std::isnan(x));
}

TEST(CompressionTest, QuantizedRespectsErrorBound) {
  Random rng(9);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.UniformDouble(-50, 50));
  const double e = 0.25;
  std::vector<double> out = Decoded(v, Forced(ValueCodec::kQuantized, e));
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(std::fabs(out[i] - v[i]), e + 1e-9) << i;
  }
}

TEST(CompressionTest, QuantizedCompresses) {
  Random rng(10);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.UniformDouble(0, 10));
  std::string buf;
  ASSERT_TRUE(EncodeColumn(v.data(), v.size(),
                           Forced(ValueCodec::kQuantized, 0.05), &buf)
                  .ok());
  // 10/0.1 = 100 levels -> 7 bits/value vs 64 raw.
  EXPECT_LT(buf.size(), 1000 * 2);
  EXPECT_GT(8000.0 / buf.size(), 4.0);  // Paper: 4-16x for quantization.
}

TEST(CompressionTest, QuantizedHugeRangeFallsBackLosslessly) {
  std::vector<double> v = {0.0, 1e18, -1e18, 5.0};
  std::vector<double> out = Decoded(v, Forced(ValueCodec::kQuantized, 1e-6));
  EXPECT_EQ(out, v);  // Fallback to XOR is lossless.
}

TEST(CompressionTest, LinearRespectsErrorBoundOnSmoothSignal) {
  std::vector<double> v;
  for (int i = 0; i < 2000; ++i) {
    v.push_back(20 + 5 * std::sin(i * 0.01));
  }
  const double e = 0.1;
  std::vector<double> out = Decoded(v, Forced(ValueCodec::kLinear, e));
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(std::fabs(out[i] - v[i]), e + 1e-9) << i;
  }
  // And it should compress drastically (paper: linear for smooth signals).
  std::string buf;
  ASSERT_TRUE(EncodeColumn(v.data(), v.size(), Forced(ValueCodec::kLinear, e),
                           &buf)
                  .ok());
  EXPECT_GT(static_cast<double>(v.size() * 8) / buf.size(), 10.0);
}

TEST(CompressionTest, LinearExactOnStraightLine) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(3.0 + 0.5 * i);
  std::string buf;
  ASSERT_TRUE(EncodeColumn(v.data(), v.size(), Forced(ValueCodec::kLinear, 0.01),
                           &buf)
                  .ok());
  // A line needs only two pivots.
  EXPECT_LT(buf.size(), 64u);
  std::vector<double> out = Decoded(v, Forced(ValueCodec::kLinear, 0.01));
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(out[i], v[i], 0.01) << i;
  }
}

TEST(CompressionTest, LinearSinglePoint) {
  std::vector<double> v = {7.5};
  std::vector<double> out = Decoded(v, Forced(ValueCodec::kLinear, 0.1));
  EXPECT_NEAR(out[0], 7.5, 0.1);
}

TEST(CompressionTest, LossyCodecWithoutBoundRejected) {
  std::vector<double> v = {1, 2, 3};
  std::string buf;
  EXPECT_TRUE(EncodeColumn(v.data(), v.size(), Forced(ValueCodec::kLinear, 0),
                           &buf)
                  .IsInvalidArgument());
}

TEST(CompressionTest, SelectorPrefersLinearForSmooth) {
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(100 + 0.01 * i);
  CompressionSpec spec;
  spec.max_error = 0.1;
  EXPECT_EQ(SelectCodec(v.data(), v.size(), spec), ValueCodec::kLinear);
}

TEST(CompressionTest, SelectorPrefersQuantizedForNoisy) {
  Random rng(4);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.UniformDouble(0, 100));
  CompressionSpec spec;
  spec.max_error = 0.5;
  EXPECT_EQ(SelectCodec(v.data(), v.size(), spec), ValueCodec::kQuantized);
}

TEST(CompressionTest, SelectorLosslessUsesXor) {
  std::vector<double> v(100, 1.0);
  CompressionSpec spec;  // max_error = 0.
  EXPECT_EQ(SelectCodec(v.data(), v.size(), spec), ValueCodec::kXor);
}

TEST(CompressionTest, SelectorTinyBlocksUseRaw) {
  std::vector<double> v = {1.0, 2.0};
  CompressionSpec spec;
  spec.max_error = 0.5;
  EXPECT_EQ(SelectCodec(v.data(), v.size(), spec), ValueCodec::kRaw);
}

TEST(CompressionTest, TimestampRoundTripRegularAndJittered) {
  Random rng(11);
  std::vector<Timestamp> ts;
  Timestamp t = 1700000000000000;
  for (int i = 0; i < 300; ++i) {
    t += 40000 + (rng.Uniform(3) == 0 ? rng.UniformRange(-5, 5) : 0);
    ts.push_back(t);
  }
  std::string buf;
  EncodeTimestamps(ts.data(), ts.size(), ts[0], &buf);
  // Delta-of-delta: mostly zero after the first two -> ~1 byte/point.
  EXPECT_LT(buf.size(), ts.size() * 3);
  Slice in(buf);
  std::vector<Timestamp> out;
  ASSERT_TRUE(DecodeTimestamps(&in, ts.size(), ts[0], &out).ok());
  EXPECT_EQ(out, ts);
}

// Property sweep: every codec respects its contract on random inputs.
// gtest names each case after the parameter's bytes, so the struct spells
// out its padding as zeroed bytes: otherwise the names would carry whatever
// the stack held and change from one test discovery to the next.
struct CodecParam {
  CodecParam(ValueCodec c, double e, uint64_t s)
      : codec(c), max_error(e), seed(s) {}
  ValueCodec codec;
  uint8_t unused[7] = {};
  double max_error;
  uint64_t seed;
};
static_assert(sizeof(CodecParam) == 24, "CodecParam must have no padding");

class CodecPropertyTest : public ::testing::TestWithParam<CodecParam> {};

TEST_P(CodecPropertyTest, ContractHolds) {
  const CodecParam param = GetParam();
  Random rng(param.seed);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 1 + rng.Uniform(400);
    std::vector<double> v;
    double walk = rng.UniformDouble(-100, 100);
    for (size_t i = 0; i < n; ++i) {
      if (rng.OneIn(8)) {
        v.push_back(kNaN);
        continue;
      }
      walk += rng.NextGaussian();
      v.push_back(walk);
    }
    std::string buf;
    ASSERT_TRUE(EncodeColumn(v.data(), n,
                             Forced(param.codec, param.max_error), &buf)
                    .ok());
    std::vector<double> out;
    ASSERT_TRUE(DecodeColumn(Slice(buf), n, &out).ok());
    ASSERT_EQ(out.size(), n);
    for (size_t i = 0; i < n; ++i) {
      if (std::isnan(v[i])) {
        EXPECT_TRUE(std::isnan(out[i]));
        continue;
      }
      if (param.max_error == 0) {
        EXPECT_EQ(out[i], v[i]) << trial << ":" << i;
      } else {
        EXPECT_LE(std::fabs(out[i] - v[i]), param.max_error + 1e-9)
            << trial << ":" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, CodecPropertyTest,
    ::testing::Values(CodecParam{ValueCodec::kRaw, 0, 1},
                      CodecParam{ValueCodec::kXor, 0, 2},
                      CodecParam{ValueCodec::kLinear, 0.5, 3},
                      CodecParam{ValueCodec::kLinear, 0.01, 4},
                      CodecParam{ValueCodec::kQuantized, 0.5, 5},
                      CodecParam{ValueCodec::kQuantized, 0.05, 6}));

TEST(CompressionTest, CorruptInputFailsCleanly) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  std::string buf;
  ASSERT_TRUE(
      EncodeColumn(v.data(), v.size(), Forced(ValueCodec::kXor), &buf).ok());
  std::vector<double> out;
  EXPECT_FALSE(DecodeColumn(Slice(buf.data(), 1), v.size(), &out).ok());
  EXPECT_FALSE(DecodeColumn(Slice("", 0), v.size(), &out).ok());
}

}  // namespace
}  // namespace odh::core
