// The store writes and parses its RTS/IRTS rows as bytes, without a Row.
// Those bytes must be exactly what RowCodec writes for the same row over
// the series schema (the heap holds rows of both origins, and storage
// footprints must not move), and the in-place parser must turn any
// truncated or bit-flipped record into a Status, never undefined
// behaviour.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/series_record.h"
#include "relational/row_codec.h"

namespace odh::core {
namespace {

constexpr uint32_t kHeaderSizes[] = {0, 4, 16, 21};

int64_t RandomField(std::mt19937_64* rng) {
  switch ((*rng)() % 6) {
    case 0:
      return std::numeric_limits<int64_t>::min();
    case 1:
      return std::numeric_limits<int64_t>::max();
    case 2:
      return -static_cast<int64_t>((*rng)() % 1000);
    case 3:
      return static_cast<int64_t>((*rng)() % 128);
    default:
      return static_cast<int64_t>((*rng)());  // Large, either sign.
  }
}

std::string RandomBytes(std::mt19937_64* rng, size_t max_len) {
  // One record in four gets an empty string.
  const size_t len = (*rng)() % 4 == 0 ? 0 : (*rng)() % (max_len + 1);
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>((*rng)());
  return out;
}

struct Owned {
  SeriesRecord rec;
  std::string blob;
  std::string zone_map;
};

Owned RandomRecord(std::mt19937_64* rng) {
  Owned o;
  o.blob = RandomBytes(rng, 6000);
  o.zone_map = RandomBytes(rng, 200);
  o.rec.id = RandomField(rng);
  o.rec.begin = RandomField(rng);
  o.rec.end = RandomField(rng);
  o.rec.interval = RandomField(rng);
  o.rec.n = RandomField(rng);
  return o;
}

Row ToRow(const Owned& o) {
  return {Datum::Int64(o.rec.id),       Datum::Time(o.rec.begin),
          Datum::Time(o.rec.end),       Datum::Int64(o.rec.interval),
          Datum::Int64(o.rec.n),        Datum::String(o.blob),
          Datum::String(o.zone_map)};
}

TEST(SeriesRecordTest, EncoderMatchesRowCodecByteForByte) {
  const relational::Schema schema = SeriesSchema();
  std::mt19937_64 rng(20260501);
  for (uint32_t header : kHeaderSizes) {
    const relational::RowCodec codec(&schema, header);
    for (int i = 0; i < 300; ++i) {
      Owned o = RandomRecord(&rng);
      o.rec.blob = Slice(o.blob);
      o.rec.zone_map = Slice(o.zone_map);
      std::string want;
      ASSERT_TRUE(codec.Encode(ToRow(o), &want).ok());
      std::string got;
      EncodeSeriesRecord(o.rec, header, &got);
      ASSERT_EQ(got, want) << "header " << header << " record " << i;

      // And both directions read back: the parser over RowCodec's bytes,
      // RowCodec over the encoder's.
      SeriesRecord parsed;
      ASSERT_TRUE(ParseSeriesRecord(Slice(want), header, &parsed).ok());
      EXPECT_EQ(parsed.id, o.rec.id);
      EXPECT_EQ(parsed.begin, o.rec.begin);
      EXPECT_EQ(parsed.end, o.rec.end);
      EXPECT_EQ(parsed.interval, o.rec.interval);
      EXPECT_EQ(parsed.n, o.rec.n);
      EXPECT_EQ(parsed.blob, Slice(o.blob));
      EXPECT_EQ(parsed.zone_map, Slice(o.zone_map));
      Row row;
      ASSERT_TRUE(codec.Decode(Slice(got), &row).ok());
      EXPECT_EQ(row, ToRow(o));
    }
  }
}

TEST(SeriesRecordTest, ParserRejectsNullsAndTrailingBytes) {
  const relational::Schema schema = SeriesSchema();
  const relational::RowCodec codec(&schema, 4);
  Row row = {Datum::Int64(1),  Datum::Time(2),      Datum::Time(3),
             Datum::Int64(4),  Datum::Null(),       Datum::String("b"),
             Datum::String("z")};
  std::string with_null;
  ASSERT_TRUE(codec.Encode(row, &with_null).ok());
  SeriesRecord rec;
  EXPECT_TRUE(ParseSeriesRecord(Slice(with_null), 4, &rec).IsCorruption());

  std::string good;
  EncodeSeriesRecord({1, 2, 3, 4, 5, "b", "z"}, 4, &good);
  ASSERT_TRUE(ParseSeriesRecord(Slice(good), 4, &rec).ok());
  EXPECT_TRUE(
      ParseSeriesRecord(Slice(good + "x"), 4, &rec).IsCorruption());
}

/// Seeded truncation and bit-flip sweep over the in-place parser: every
/// strict prefix of a record is rejected, and a flipped record parses to
/// a Status whose views, when it succeeds, stay inside the input. Built
/// with the sanitizers, this is the parser's hostile-input check.
TEST(SeriesRecordTest, HostileInputReturnsStatusNeverUb) {
  std::mt19937_64 rng(77);
  for (uint32_t header : kHeaderSizes) {
    for (int i = 0; i < 60; ++i) {
      Owned o = RandomRecord(&rng);
      o.blob.resize(o.blob.size() % 300);  // Keep the sweep quick.
      o.rec.blob = Slice(o.blob);
      o.rec.zone_map = Slice(o.zone_map);
      std::string bytes;
      EncodeSeriesRecord(o.rec, header, &bytes);
      SeriesRecord rec;
      for (size_t len = 0; len < bytes.size(); ++len) {
        // A fresh copy of exactly `len` bytes, so a read past it is caught.
        const std::vector<char> prefix(bytes.begin(), bytes.begin() + len);
        EXPECT_FALSE(
            ParseSeriesRecord(Slice(prefix.data(), len), header, &rec).ok())
            << "prefix " << len << " of " << bytes.size();
      }
      for (int flip = 0; flip < 40; ++flip) {
        std::vector<char> mutated(bytes.begin(), bytes.end());
        const int bits = 1 + static_cast<int>(rng() % 3);
        for (int b = 0; b < bits; ++b) {
          const size_t pos = rng() % mutated.size();
          mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (rng() % 8)));
        }
        const Slice input(mutated.data(), mutated.size());
        const Status s = ParseSeriesRecord(input, header, &rec);
        if (!s.ok()) {
          EXPECT_TRUE(s.IsCorruption()) << s.ToString();
          continue;
        }
        const char* lo = mutated.data();
        const char* hi = lo + mutated.size();
        for (const Slice& view : {rec.blob, rec.zone_map}) {
          EXPECT_TRUE(view.empty() ||
                      (view.data() >= lo && view.data() + view.size() <= hi));
        }
      }
    }
  }
}

}  // namespace
}  // namespace odh::core
