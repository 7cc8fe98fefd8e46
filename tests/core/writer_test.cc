#include "core/writer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "core/odh.h"

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
