#include "core/writer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/odh.h"
#include "core/value_blob.h"

namespace odh::core {
namespace {

OdhOptions TestOptions() {
  OdhOptions options;
  options.batch_size = 10;
  options.mg_group_size = 5;
  return options;
}

class WriterTest : public ::testing::Test {
 protected:
  WriterTest() : odh_(TestOptions()) {
    type_ = odh_.DefineSchemaType("t", {"a", "b"}).value();
  }

  OperationalRecord Rec(SourceId id, Timestamp ts, double a, double b) {
    return OperationalRecord{id, ts, {a, b}};
  }

  OdhSystem odh_;
  int type_;
};

TEST_F(WriterTest, RegularHighFrequencyFlushesRtsBlobs) {
  ASSERT_TRUE(odh_.RegisterSource(1, type_, 1000, true).ok());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(odh_.Ingest(Rec(1, i * 1000, i, -i)).ok());
  }
  // 25 points, batch 10 -> two full blobs flushed, 5 buffered.
  EXPECT_EQ(odh_.writer()->stats().rts_blobs, 2);
  EXPECT_EQ(odh_.writer()->stats().irts_blobs, 0);
  EXPECT_EQ(odh_.writer()->stats().points_ingested, 25);
  EXPECT_EQ(odh_.store()->rts_stats(type_).point_count, 20);
  ASSERT_TRUE(odh_.FlushAll().ok());
  EXPECT_EQ(odh_.store()->rts_stats(type_).point_count, 25);
}

TEST_F(WriterTest, JitteryRegularSourceFallsBackToIrts) {
  ASSERT_TRUE(odh_.RegisterSource(1, type_, 1000, true).ok());
  Random rng(1);
  for (int i = 0; i < 10; ++i) {
    // 30% jitter breaks the 1% regularity tolerance.
    Timestamp ts = i * 1000 + rng.UniformRange(0, 300);
    ASSERT_TRUE(odh_.Ingest(Rec(1, ts, i, i)).ok());
  }
  EXPECT_EQ(odh_.writer()->stats().rts_blobs, 0);
  EXPECT_EQ(odh_.writer()->stats().irts_blobs, 1);
}

TEST_F(WriterTest, IrregularHighFrequencyUsesIrts) {
  ASSERT_TRUE(odh_.RegisterSource(1, type_, 1000, false).ok());
  Random rng(2);
  Timestamp t = 0;
  for (int i = 0; i < 10; ++i) {
    t += rng.UniformRange(100, 2000);
    ASSERT_TRUE(odh_.Ingest(Rec(1, t, i, i)).ok());
  }
  EXPECT_EQ(odh_.writer()->stats().irts_blobs, 1);
}

TEST_F(WriterTest, LowFrequencySourcesGroupIntoMg) {
  // 10 meters at 15-minute intervals, group size 5 -> 2 groups.
  for (SourceId id = 0; id < 10; ++id) {
    ASSERT_TRUE(
        odh_.RegisterSource(id, type_, 15 * kMicrosPerMinute, true).ok());
  }
  // One reading per meter: 10 records over 2 groups of 5 -> each group
  // buffer reaches batch_size 10? No: 5 records per group, under batch
  // size, so nothing flushes until FlushAll.
  for (SourceId id = 0; id < 10; ++id) {
    ASSERT_TRUE(odh_.Ingest(Rec(id, 1000 + id, 1.0, 2.0)).ok());
  }
  EXPECT_EQ(odh_.writer()->stats().mg_blobs, 0);
  ASSERT_TRUE(odh_.FlushAll().ok());
  EXPECT_EQ(odh_.writer()->stats().mg_blobs, 2);
  EXPECT_EQ(odh_.store()->mg_stats(type_).point_count, 10);
}

TEST_F(WriterTest, MgFlushesWhenBatchFills) {
  for (SourceId id = 0; id < 5; ++id) {
    ASSERT_TRUE(
        odh_.RegisterSource(id, type_, 15 * kMicrosPerMinute, true).ok());
  }
  // Two rounds of readings from 5 meters = 10 records = batch size.
  for (int round = 0; round < 2; ++round) {
    for (SourceId id = 0; id < 5; ++id) {
      ASSERT_TRUE(
          odh_.Ingest(Rec(id, round * kMicrosPerMinute, 1, 2)).ok());
    }
  }
  EXPECT_EQ(odh_.writer()->stats().mg_blobs, 1);
}

TEST_F(WriterTest, MgWindowCloseForcesFlush) {
  ASSERT_TRUE(
      odh_.RegisterSource(1, type_, 15 * kMicrosPerMinute, true).ok());
  ASSERT_TRUE(odh_.Ingest(Rec(1, 0, 1, 2)).ok());
  // Next record far beyond the MG window (default 15 min) closes it.
  ASSERT_TRUE(odh_.Ingest(Rec(1, kMicrosPerHour, 3, 4)).ok());
  EXPECT_EQ(odh_.writer()->stats().mg_blobs, 1);
}

TEST_F(WriterTest, RejectsUnknownSourceAndBadArity) {
  EXPECT_TRUE(odh_.Ingest(Rec(99, 0, 1, 2)).IsNotFound());
  ASSERT_TRUE(odh_.RegisterSource(1, type_, 1000, true).ok());
  OperationalRecord bad{1, 0, {1.0}};
  EXPECT_TRUE(odh_.Ingest(bad).IsInvalidArgument());
}

TEST_F(WriterTest, RejectsTimeTravel) {
  ASSERT_TRUE(odh_.RegisterSource(1, type_, 1000, true).ok());
  ASSERT_TRUE(odh_.Ingest(Rec(1, 5000, 1, 2)).ok());
  EXPECT_TRUE(odh_.Ingest(Rec(1, 4000, 1, 2)).IsInvalidArgument());
  // Equal timestamps are allowed.
  EXPECT_TRUE(odh_.Ingest(Rec(1, 5000, 1, 2)).ok());
}

TEST_F(WriterTest, RejectsTimeTravelForHighFrequencyAndMgSources) {
  ASSERT_TRUE(odh_.RegisterSource(1, type_, 1000, true).ok());
  ASSERT_TRUE(
      odh_.RegisterSource(2, type_, 15 * kMicrosPerMinute, true).ok());
  for (SourceId id : {1, 2}) {
    ASSERT_TRUE(odh_.Ingest(Rec(id, 5000, 1, 2)).ok());
    EXPECT_TRUE(odh_.Ingest(Rec(id, 4000, 1, 2)).IsInvalidArgument());
  }
  // The watermark outlives the flush that empties the buffers.
  ASSERT_TRUE(odh_.FlushAll().ok());
  for (SourceId id : {1, 2}) {
    EXPECT_TRUE(odh_.Ingest(Rec(id, 4999, 1, 2)).IsInvalidArgument());
    EXPECT_TRUE(odh_.Ingest(Rec(id, 5000, 3, 4)).ok());
  }
  EXPECT_EQ(odh_.writer()->stats().points_ingested, 4);
}

TEST_F(WriterTest, FlushedBuffersAreReusedEmpty) {
  ASSERT_TRUE(odh_.RegisterSource(1, type_, 1000, true).ok());
  auto dirty_of = [&](SourceId id) {
    std::vector<OperationalRecord> dirty;
    EXPECT_TRUE(
        odh_.writer()->CollectDirty(type_, id, 0, kMaxTimestamp, &dirty).ok());
    return dirty;
  };
  auto all_dirty = [&] {
    std::vector<OperationalRecord> dirty;
    EXPECT_TRUE(
        odh_.writer()->CollectDirty(type_, -1, 0, kMaxTimestamp, &dirty).ok());
    return dirty;
  };
  // Interval 1: a partial buffer, flushed by FlushAll.
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(odh_.Ingest(Rec(1, i * 1000, i, -i)).ok());
  }
  ASSERT_TRUE(odh_.FlushAll().ok());
  EXPECT_TRUE(dirty_of(1).empty());
  EXPECT_TRUE(all_dirty().empty());
  // Interval 2: a full buffer, flushed inside Ingest.
  for (int i = 7; i < 17; ++i) {
    ASSERT_TRUE(odh_.Ingest(Rec(1, i * 1000, i, -i)).ok());
  }
  EXPECT_TRUE(dirty_of(1).empty());
  EXPECT_TRUE(all_dirty().empty());
  // Interval 3: three points, visible dirty exactly as ingested.
  for (int i = 17; i < 20; ++i) {
    ASSERT_TRUE(odh_.Ingest(Rec(1, i * 1000, i, -i)).ok());
  }
  for (const std::vector<OperationalRecord>& dirty :
       {dirty_of(1), all_dirty()}) {
    ASSERT_EQ(dirty.size(), 3u);
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(dirty[k].id, 1);
      EXPECT_EQ(dirty[k].ts, (17 + k) * 1000);
      EXPECT_EQ(dirty[k].tags, (std::vector<double>{17.0 + k, -17.0 - k}));
    }
  }
  ASSERT_TRUE(odh_.FlushAll().ok());

  // Each blob decodes to exactly its own interval's points.
  auto blobs = odh_.store()->GetRts(type_, 1, 0, kMaxTimestamp).value();
  ASSERT_EQ(blobs.size(), 3u);
  std::sort(blobs.begin(), blobs.end(),
            [](const BlobRecord& a, const BlobRecord& b) {
              return a.begin < b.begin;
            });
  const ValueBlobCodec codec{CompressionSpec{}};
  const int firsts[] = {0, 7, 17};
  const int counts[] = {7, 10, 3};
  for (size_t k = 0; k < blobs.size(); ++k) {
    SCOPED_TRACE(k);
    SeriesBatch batch;
    ASSERT_TRUE(codec
                    .DecodeRts(Slice(blobs[k].blob), 1, blobs[k].begin,
                               blobs[k].interval, {}, 2, &batch)
                    .ok());
    ASSERT_EQ(batch.num_points(), static_cast<size_t>(counts[k]));
    ASSERT_EQ(blobs[k].n, counts[k]);
    for (int i = 0; i < counts[k]; ++i) {
      const int v = firsts[k] + i;
      EXPECT_EQ(batch.timestamps[i], v * 1000);
      EXPECT_EQ(batch.columns[0][i], v);
      EXPECT_EQ(batch.columns[1][i], -v);
    }
  }
}

// Flush puts one shard's blobs in ascending source id, never in the hash
// order of its slots: the put order fixes rids and heap packing, so two
// systems fed the same records must store the same bytes however their
// sources were registered and first touched.
TEST_F(WriterTest, StoredBytesDoNotDependOnRegistrationOrFirstTouch) {
  OdhOptions options;
  // A source (6 points) and an MG group (8 sources) stay under the batch
  // size per interval, so FlushAll puts every blob.
  options.batch_size = 64;
  options.mg_group_size = 8;
  options.segment_span = kMicrosPerSecond;
  constexpr int kHigh = 300;
  constexpr int kLow = 80;
  constexpr int kIntervals = 4;
  constexpr int kPointsPerInterval = 6;
  // Spread ids so hash order and id order disagree.
  std::vector<SourceId> high, low;
  for (int i = 0; i < kHigh; ++i) high.push_back(1 + i * 7919LL % 100003);
  for (int i = 0; i < kLow; ++i) low.push_back(1000000 + i * 104729LL);

  struct Run {
    uint64_t storage_bytes = 0;
    uint64_t disk_bytes_written = 0;
    uint64_t wal_bytes = 0;
    std::vector<std::pair<SourceId, std::vector<relational::Rid>>> rids;
  };
  auto run = [&](uint64_t seed) {
    Random rng(seed);
    auto shuffled = [&](std::vector<SourceId> ids) {
      for (size_t i = ids.size(); i > 1; --i) {
        std::swap(ids[i - 1], ids[rng.Uniform(i)]);
      }
      return ids;
    };
    OdhSystem odh(options);
    const int type = odh.DefineSchemaType("t", {"a", "b"}).value();
    // High-frequency sources register shuffled and interleaved with the
    // low-frequency ones, which keep their relative order (it assigns
    // their MG groups).
    std::vector<SourceId> high_order = shuffled(high);
    size_t h = 0, l = 0;
    while (h < high_order.size() || l < low.size()) {
      if (l < low.size() && (h == high_order.size() || rng.OneIn(3))) {
        ODH_CHECK_OK(odh.RegisterSource(low[l++], type, kMicrosPerMinute,
                                        /*regular=*/false));
      } else {
        const SourceId id = high_order[h++];
        ODH_CHECK_OK(odh.RegisterSource(id, type, 10000, id % 3 != 0));
      }
    }
    // The odh$sources table holds rows in registration order, so the
    // bytes compared below are counted from a checkpoint taken here.
    ODH_CHECK_OK(odh.FlushAll());
    ODH_CHECK_OK(odh.database()->pool()->FlushAll());
    const uint64_t storage_at_start = odh.storage_bytes();
    const uint64_t written_at_start = odh.io_stats().bytes_written;
    std::vector<SourceId> all = high;
    all.insert(all.end(), low.begin(), low.end());
    for (int interval = 0; interval < kIntervals; ++interval) {
      for (int p = 0; p < kPointsPerInterval; ++p) {
        const int step = interval * kPointsPerInterval + p;
        // Each step touches the sources in a fresh order.
        for (SourceId id : shuffled(all)) {
          const bool low_freq = id >= 1000000;
          const Timestamp ts = low_freq
                                   ? step * 100000 + id % 997
                                   : step * 10000 + (id % 3 == 0 ? id % 7 : 0);
          ODH_CHECK_OK(odh.Ingest(OperationalRecord{
              id, ts, {static_cast<double>(id % 101) + step * 0.25,
                       static_cast<double>(step)}}));
        }
      }
      ODH_CHECK_OK(odh.FlushAll());
    }
    ODH_CHECK_OK(odh.database()->pool()->FlushAll());
    Run out;
    out.storage_bytes = odh.storage_bytes() - storage_at_start;
    out.disk_bytes_written = odh.io_stats().bytes_written - written_at_start;
    out.wal_bytes = odh.store()->wal()->synced_bytes();
    std::vector<SourceId> sorted = high;
    std::sort(sorted.begin(), sorted.end());
    for (SourceId id : sorted) {
      std::vector<BlobRecord> blobs =
          odh.store()->GetRts(type, id, 0, kMaxTimestamp).value();
      const std::vector<BlobRecord> irts =
          odh.store()->GetIrts(type, id, 0, kMaxTimestamp).value();
      blobs.insert(blobs.end(), irts.begin(), irts.end());
      std::vector<relational::Rid> rids;
      for (const BlobRecord& blob : blobs) rids.push_back(blob.rid);
      EXPECT_FALSE(rids.empty());
      out.rids.emplace_back(id, std::move(rids));
    }
    return out;
  };
  const Run a = run(1);
  const Run b = run(2);
  EXPECT_EQ(a.storage_bytes, b.storage_bytes);
  EXPECT_EQ(a.disk_bytes_written, b.disk_bytes_written);
  EXPECT_EQ(a.wal_bytes, b.wal_bytes);
  EXPECT_GT(a.storage_bytes, 0u);
  EXPECT_GT(a.wal_bytes, 0u);
  EXPECT_TRUE(a.rids == b.rids);
}

TEST_F(WriterTest, DirtyReadSeesBufferedRecords) {
  ASSERT_TRUE(odh_.RegisterSource(1, type_, 1000, true).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(odh_.Ingest(Rec(1, i * 1000, i, i)).ok());
  }
  std::vector<OperationalRecord> dirty;
  ASSERT_TRUE(
      odh_.writer()->CollectDirty(type_, 1, 0, kMaxTimestamp, &dirty).ok());
  EXPECT_EQ(dirty.size(), 5u);
  // Range-filtered.
  dirty.clear();
  ASSERT_TRUE(odh_.writer()->CollectDirty(type_, 1, 1000, 2000, &dirty).ok());
  EXPECT_EQ(dirty.size(), 2u);
  // Wrong id.
  dirty.clear();
  ASSERT_TRUE(odh_.writer()->CollectDirty(type_, 2, 0, kMaxTimestamp, &dirty)
                  .ok());
  EXPECT_TRUE(dirty.empty());
}

TEST_F(WriterTest, StoreScansRespectTimeRange) {
  ASSERT_TRUE(odh_.RegisterSource(1, type_, 1000, true).ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(odh_.Ingest(Rec(1, i * 1000, i, i)).ok());
  }
  ASSERT_TRUE(odh_.FlushAll().ok());
  // Blobs: [0,9k],[10k,19k],[20k,29k],[30k,39k].
  auto all = odh_.store()->GetRts(type_, 1, 0, kMaxTimestamp).value();
  EXPECT_EQ(all.size(), 4u);
  auto some = odh_.store()->GetRts(type_, 1, 15000, 25000).value();
  EXPECT_EQ(some.size(), 2u);
  auto none = odh_.store()->GetRts(type_, 2, 0, kMaxTimestamp).value();
  EXPECT_TRUE(none.empty());
}

TEST_F(WriterTest, MultipleSourcesInterleaved) {
  ASSERT_TRUE(odh_.RegisterSource(1, type_, 1000, true).ok());
  ASSERT_TRUE(odh_.RegisterSource(2, type_, 1000, true).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(odh_.Ingest(Rec(1, i * 1000, i, i)).ok());
    ASSERT_TRUE(odh_.Ingest(Rec(2, i * 1000, -i, -i)).ok());
  }
  EXPECT_EQ(odh_.writer()->stats().rts_blobs, 2);
  auto blobs1 = odh_.store()->GetRts(type_, 1, 0, kMaxTimestamp).value();
  auto blobs2 = odh_.store()->GetRts(type_, 2, 0, kMaxTimestamp).value();
  EXPECT_EQ(blobs1.size(), 1u);
  EXPECT_EQ(blobs2.size(), 1u);
  EXPECT_EQ(blobs1[0].n, 10);
}

}  // namespace
}  // namespace odh::core
