#include "core/value_blob.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"

namespace odh::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

SeriesBatch MakeRegularBatch(SourceId id, Timestamp begin, Timestamp interval,
                             size_t n, int tags, uint64_t seed) {
  Random rng(seed);
  SeriesBatch batch;
  batch.id = id;
  batch.columns.resize(tags);
  for (size_t i = 0; i < n; ++i) {
    batch.timestamps.push_back(begin + static_cast<Timestamp>(i) * interval);
    for (int t = 0; t < tags; ++t) {
      batch.columns[t].push_back(rng.UniformDouble(-10, 10));
    }
  }
  return batch;
}

void ExpectBatchEq(const SeriesBatch& a, const SeriesBatch& b) {
  EXPECT_EQ(a.id, b.id);
  ASSERT_EQ(a.timestamps, b.timestamps);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (size_t t = 0; t < a.columns.size(); ++t) {
    ASSERT_EQ(a.columns[t].size(), b.columns[t].size()) << t;
    for (size_t i = 0; i < a.columns[t].size(); ++i) {
      if (std::isnan(a.columns[t][i])) {
        EXPECT_TRUE(std::isnan(b.columns[t][i])) << t << "," << i;
      } else {
        EXPECT_EQ(a.columns[t][i], b.columns[t][i]) << t << "," << i;
      }
    }
  }
}

TEST(ValueBlobTest, RtsRoundTrip) {
  ValueBlobCodec codec{CompressionSpec{}};
  SeriesBatch batch = MakeRegularBatch(7, 1000000, 40000, 100, 3, 1);
  std::string blob;
  ASSERT_TRUE(codec.EncodeRts(batch, 40000, &blob).ok());
  SeriesBatch out;
  ASSERT_TRUE(
      codec.DecodeRts(Slice(blob), 7, 1000000, 40000, {}, 3, &out).ok());
  ExpectBatchEq(batch, out);
}

TEST(ValueBlobTest, RtsRejectsIrregular) {
  ValueBlobCodec codec{CompressionSpec{}};
  SeriesBatch batch = MakeRegularBatch(7, 0, 100, 10, 1, 2);
  batch.timestamps[5] += 1;
  std::string blob;
  EXPECT_TRUE(codec.EncodeRts(batch, 100, &blob).IsInvalidArgument());
}

TEST(ValueBlobTest, IrtsRoundTripWithJitter) {
  ValueBlobCodec codec{CompressionSpec{}};
  Random rng(3);
  SeriesBatch batch;
  batch.id = 42;
  batch.columns.resize(2);
  Timestamp t = 5000;
  for (int i = 0; i < 200; ++i) {
    t += rng.UniformRange(1, 100000);
    batch.timestamps.push_back(t);
    batch.columns[0].push_back(rng.NextDouble());
    batch.columns[1].push_back(rng.OneIn(3) ? kNaN : rng.NextDouble());
  }
  std::string blob;
  ASSERT_TRUE(codec.EncodeIrts(batch, &blob).ok());
  SeriesBatch out;
  ASSERT_TRUE(codec.DecodeIrts(Slice(blob), 42, batch.timestamps[0], {}, 2,
                               &out)
                  .ok());
  ExpectBatchEq(batch, out);
}

TEST(ValueBlobTest, IrtsRejectsDecreasingTimestamps) {
  ValueBlobCodec codec{CompressionSpec{}};
  SeriesBatch batch;
  batch.columns.resize(1);
  batch.timestamps = {100, 50};
  batch.columns[0] = {1.0, 2.0};
  std::string blob;
  EXPECT_TRUE(codec.EncodeIrts(batch, &blob).IsInvalidArgument());
}

TEST(ValueBlobTest, EmptyBatchRejected) {
  ValueBlobCodec codec{CompressionSpec{}};
  SeriesBatch batch;
  std::string blob;
  EXPECT_TRUE(codec.EncodeRts(batch, 100, &blob).IsInvalidArgument());
  EXPECT_TRUE(codec.EncodeIrts(batch, &blob).IsInvalidArgument());
  std::vector<OperationalRecord> none;
  EXPECT_TRUE(codec.EncodeMg(none, 0, &blob).IsInvalidArgument());
}

TEST(ValueBlobTest, TagOrientedPartialDecode) {
  ValueBlobCodec codec{CompressionSpec{}};
  SeriesBatch batch = MakeRegularBatch(1, 0, 1000, 50, 8, 4);
  std::string blob;
  ASSERT_TRUE(codec.EncodeRts(batch, 1000, &blob).ok());
  SeriesBatch out;
  ASSERT_TRUE(codec.DecodeRts(Slice(blob), 1, 0, 1000, {2, 5}, 8, &out).ok());
  ASSERT_EQ(out.columns.size(), 8u);
  // Requested tags decoded exactly, full length.
  ASSERT_EQ(out.columns[2].size(), 50u);
  ASSERT_EQ(out.columns[5].size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(out.columns[2][i], batch.columns[2][i]);
    EXPECT_EQ(out.columns[5][i], batch.columns[5][i]);
  }
  // Unrequested tags are left empty (read as all-missing), not filled.
  for (int t : {0, 1, 3, 4, 6, 7}) EXPECT_TRUE(out.columns[t].empty()) << t;

  // A reused batch: a second decode with another tag set empties the
  // columns it no longer requests.
  ASSERT_TRUE(codec.DecodeRts(Slice(blob), 1, 0, 1000, {7}, 8, &out).ok());
  ASSERT_EQ(out.columns.size(), 8u);
  for (int t = 0; t < 7; ++t) EXPECT_TRUE(out.columns[t].empty()) << t;
  ASSERT_EQ(out.columns[7].size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(out.columns[7][i], batch.columns[7][i]);
  }
  // IRTS follows the same contract.
  std::string irts;
  ASSERT_TRUE(codec.EncodeIrts(batch, &irts).ok());
  SeriesBatch irts_out;
  ASSERT_TRUE(codec.DecodeIrts(Slice(irts), 1, 0, {3}, 8, &irts_out).ok());
  ASSERT_EQ(irts_out.columns.size(), 8u);
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(irts_out.columns[t].size(), t == 3 ? 50u : 0u) << t;
  }
}

TEST(ValueBlobTest, MgRoundTripSparseRecords) {
  ValueBlobCodec codec{CompressionSpec{}};
  Random rng(5);
  std::vector<OperationalRecord> records;
  Timestamp base = 1000000;
  for (int i = 0; i < 300; ++i) {
    OperationalRecord r;
    r.ts = base + i * 500;
    r.id = 1000 + rng.Uniform(50);
    r.tags.resize(6, kNaN);
    // Sparse: each record reports 2 of 6 tags.
    r.tags[rng.Uniform(6)] = rng.NextDouble();
    r.tags[rng.Uniform(6)] = rng.NextDouble();
    records.push_back(r);
  }
  // EncodeMg requires (ts, id) order; already ts-ordered.
  std::string blob;
  ASSERT_TRUE(codec.EncodeMg(records, base, &blob).ok());
  std::vector<OperationalRecord> out;
  ASSERT_TRUE(codec.DecodeMg(Slice(blob), base, {}, 6, &out).ok());
  ASSERT_EQ(out.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(out[i].id, records[i].id) << i;
    EXPECT_EQ(out[i].ts, records[i].ts) << i;
    for (int t = 0; t < 6; ++t) {
      if (std::isnan(records[i].tags[t])) {
        EXPECT_TRUE(std::isnan(out[i].tags[t]));
      } else {
        EXPECT_EQ(out[i].tags[t], records[i].tags[t]);
      }
    }
  }
}

TEST(ValueBlobTest, MgPartialTagDecode) {
  ValueBlobCodec codec{CompressionSpec{}};
  std::vector<OperationalRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back({i, i * 100, {1.0 * i, 2.0 * i, 3.0 * i}});
  }
  std::string blob;
  ASSERT_TRUE(codec.EncodeMg(records, 0, &blob).ok());
  std::vector<OperationalRecord> out;
  ASSERT_TRUE(codec.DecodeMg(Slice(blob), 0, {1}, 3, &out).ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(std::isnan(out[i].tags[0]));
    EXPECT_EQ(out[i].tags[1], 2.0 * i);
    EXPECT_TRUE(std::isnan(out[i].tags[2]));
  }
}

TEST(ValueBlobTest, MgRejectsRaggedRecords) {
  ValueBlobCodec codec{CompressionSpec{}};
  std::vector<OperationalRecord> records = {{1, 0, {1.0, 2.0}},
                                            {2, 1, {1.0}}};
  std::string blob;
  EXPECT_TRUE(codec.EncodeMg(records, 0, &blob).IsInvalidArgument());
}

TEST(ValueBlobTest, DecodeTagCountMismatchFails) {
  ValueBlobCodec codec{CompressionSpec{}};
  SeriesBatch batch = MakeRegularBatch(1, 0, 1000, 10, 3, 6);
  std::string blob;
  ASSERT_TRUE(codec.EncodeRts(batch, 1000, &blob).ok());
  SeriesBatch out;
  EXPECT_FALSE(codec.DecodeRts(Slice(blob), 1, 0, 1000, {}, 5, &out).ok());
}

TEST(ValueBlobTest, CompressionShrinkagePropagatesIntoBlobs) {
  // The paper's data-model compression claim: packing b points into one
  // blob with id/timestamp compression shrinks storage vs row storage.
  ValueBlobCodec lossless{CompressionSpec{}};
  SeriesBatch batch = MakeRegularBatch(1, 0, 40000, 500, 1, 7);
  // Make values smooth so XOR/linear pays.
  for (size_t i = 0; i < 500; ++i) {
    batch.columns[0][i] = 20 + 0.001 * static_cast<double>(i);
  }
  std::string blob;
  ASSERT_TRUE(lossless.EncodeRts(batch, 40000, &blob).ok());
  // Row storage would be >= 16 bytes/point (ts + value); expect well below.
  EXPECT_LT(blob.size(), 500 * 12);

  CompressionSpec lossy;
  lossy.max_error = 0.01;
  ValueBlobCodec lossy_codec{lossy};
  std::string lossy_blob;
  ASSERT_TRUE(lossy_codec.EncodeRts(batch, 40000, &lossy_blob).ok());
  EXPECT_LT(lossy_blob.size(), blob.size());
}

class MgPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MgPropertyTest, RandomGroupsRoundTrip) {
  ValueBlobCodec codec{CompressionSpec{}};
  Random rng(GetParam());
  std::vector<OperationalRecord> records;
  Timestamp t = 0;
  size_t n = 1 + rng.Uniform(500);
  for (size_t i = 0; i < n; ++i) {
    t += rng.Uniform(1000);
    OperationalRecord r;
    r.ts = t;
    r.id = static_cast<SourceId>(rng.Uniform(1000000));
    r.tags.resize(4);
    for (int tag = 0; tag < 4; ++tag) {
      r.tags[tag] = rng.OneIn(4) ? kNaN : rng.UniformDouble(-1000, 1000);
    }
    records.push_back(r);
  }
  std::string blob;
  ASSERT_TRUE(codec.EncodeMg(records, records[0].ts, &blob).ok());
  std::vector<OperationalRecord> out;
  ASSERT_TRUE(codec.DecodeMg(Slice(blob), records[0].ts, {}, 4, &out).ok());
  ASSERT_EQ(out.size(), records.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i].id, records[i].id);
    EXPECT_EQ(out[i].ts, records[i].ts);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MgPropertyTest,
                         ::testing::Values(21, 22, 23, 24));

}  // namespace
}  // namespace odh::core
