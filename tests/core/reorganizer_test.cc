#include "core/reorganizer.h"

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "core/odh.h"

namespace odh::core {
namespace {

OdhOptions MeterOptions() {
  OdhOptions options;
  options.batch_size = 32;
  options.mg_group_size = 4;
  return options;
}

class ReorganizerTest : public ::testing::Test {
 protected:
  ReorganizerTest() : odh_(MeterOptions()) {
    type_ = odh_.DefineSchemaType("meters", {"kwh", "volt"}).value();
    for (SourceId id = 0; id < 8; ++id) {
      ODH_CHECK_OK(
          odh_.RegisterSource(id, type_, 15 * kMicrosPerMinute, true));
    }
    // 6 readings per meter at exact 15-minute intervals.
    for (int reading = 0; reading < 6; ++reading) {
      for (SourceId id = 0; id < 8; ++id) {
        ODH_CHECK_OK(odh_.Ingest({id, reading * 15 * kMicrosPerMinute,
                                  {id * 10.0 + reading, 230.0}}));
      }
    }
    ODH_CHECK_OK(odh_.FlushAll());
  }

  OdhSystem odh_;
  int type_;
};

TEST_F(ReorganizerTest, MovesMgIntoRts) {
  EXPECT_GT(odh_.store()->mg_stats(type_).blob_count, 0);
  EXPECT_EQ(odh_.store()->rts_stats(type_).blob_count, 0);

  ReorganizeReport report = odh_.Reorganize(type_, kMaxTimestamp).value();
  EXPECT_EQ(report.points_moved, 48);
  EXPECT_EQ(report.rts_blobs_written, 8);  // One per meter: exact intervals.
  EXPECT_EQ(report.irts_blobs_written, 0);
  EXPECT_EQ(odh_.store()->mg_stats(type_).blob_count, 0);
  EXPECT_EQ(odh_.store()->rts_stats(type_).point_count, 48);
}

TEST_F(ReorganizerTest, DataIdenticalAfterReorganization) {
  auto before = odh_.engine()->Execute(
      "SELECT id, ts, kwh FROM meters_v ORDER BY id, ts");
  ASSERT_TRUE(before.ok());
  odh_.Reorganize(type_, kMaxTimestamp).value();
  auto after = odh_.engine()->Execute(
      "SELECT id, ts, kwh FROM meters_v ORDER BY id, ts");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->rows.size(), after->rows.size());
  for (size_t i = 0; i < before->rows.size(); ++i) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(before->rows[i][c], after->rows[i][c]) << i << "," << c;
    }
  }
}

TEST_F(ReorganizerTest, PartialReorganizationKeepsRecentInMg) {
  // Only reorganize the first 30 minutes; later windows stay in MG.
  Timestamp cutoff = 30 * kMicrosPerMinute;
  ReorganizeReport report = odh_.Reorganize(type_, cutoff).value();
  EXPECT_GT(report.points_moved, 0);
  EXPECT_LT(report.points_moved, 48);
  EXPECT_GT(odh_.store()->mg_stats(type_).point_count, 0);
  // Total still intact.
  auto r = odh_.engine()->Execute("SELECT COUNT(*) FROM meters_v");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(48));
}

TEST_F(ReorganizerTest, IrregularMetersBecomeIrts) {
  OdhSystem odh(MeterOptions());
  int type = odh.DefineSchemaType("w", {"v"}).value();
  ODH_CHECK_OK(odh.RegisterSource(1, type, 23 * kMicrosPerMinute, false));
  Random rng(1);
  Timestamp t = 0;
  for (int i = 0; i < 10; ++i) {
    t += rng.UniformRange(10, 30) * kMicrosPerMinute;
    ODH_CHECK_OK(odh.Ingest({1, t, {1.0 * i}}));
  }
  ODH_CHECK_OK(odh.FlushAll());
  ReorganizeReport report = odh.Reorganize(type, kMaxTimestamp).value();
  EXPECT_EQ(report.irts_blobs_written, 1);
  EXPECT_EQ(report.rts_blobs_written, 0);
  auto r = odh.engine()->Execute("SELECT COUNT(*) FROM w_v WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(10));
}

// Regression: group sizes that do not divide the source count produce MG
// blobs spanning two reading rounds with equal begin_ts; per-source series
// must still come out time-ordered (this once aborted with "timestamps
// must be non-decreasing").
TEST_F(ReorganizerTest, UnevenGroupsAcrossRoundsStayOrdered) {
  OdhOptions options;
  options.batch_size = 256;
  options.mg_group_size = 1024;
  OdhSystem odh(options);
  int type = odh.DefineSchemaType("meters", {"kwh"}).value();
  const int64_t meters = 1500;  // Not a multiple of batch or group size.
  for (SourceId id = 1; id <= meters; ++id) {
    ODH_CHECK_OK(odh.RegisterSource(id, type, 15 * kMicrosPerMinute, true));
  }
  for (int round = 0; round < 6; ++round) {
    for (SourceId id = 1; id <= meters; ++id) {
      ODH_CHECK_OK(odh.Ingest(
          {id, round * 15 * kMicrosPerMinute, {1.0 * round}}));
    }
  }
  ODH_CHECK_OK(odh.FlushAll());
  auto report = odh.Reorganize(type, kMaxTimestamp);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->points_moved, meters * 6);
  // Every meter's history is complete and ordered.
  auto cursor = odh.HistoricalQuery(type, 777, 0, kMaxTimestamp).value();
  OperationalRecord rec;
  int count = 0;
  Timestamp prev = kMinTimestamp;
  while (cursor->Next(&rec).value()) {
    EXPECT_GE(rec.ts, prev);
    prev = rec.ts;
    ++count;
  }
  EXPECT_EQ(count, 6);
}

TEST_F(ReorganizerTest, CompactionReclaimsMgSpace) {
  uint64_t before = odh_.database()->TotalBytesStored();
  odh_.Reorganize(type_, kMaxTimestamp).value();
  // The reorganized per-source form plus compacted (empty) MG container
  // must not exceed the pre-reorganization footprint.
  EXPECT_LE(odh_.database()->TotalBytesStored(), before);
  EXPECT_EQ(odh_.store()->mg_stats(type_).blob_count, 0);
  // Data remains fully queryable through the rebuilt container path.
  auto r = odh_.engine()->Execute("SELECT COUNT(*) FROM meters_v");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(48));
}

TEST_F(ReorganizerTest, ReorganizeTwiceIsIdempotent) {
  odh_.Reorganize(type_, kMaxTimestamp).value();
  ReorganizeReport second = odh_.Reorganize(type_, kMaxTimestamp).value();
  EXPECT_EQ(second.points_moved, 0);
  EXPECT_EQ(second.mg_blobs_consumed, 0);
}

}  // namespace
}  // namespace odh::core
