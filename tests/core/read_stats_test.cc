#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"

namespace odh::core {
namespace {

/// Satellite regression: snapshotting reader stats and resetting them used
/// to be two separate operations (load then store), so increments landing
/// in between were silently lost and multi-counter snapshots could tear.
/// SnapshotAndResetStats must hand every increment to exactly one epoch.
class ReadStatsTest : public ::testing::Test {
 protected:
  ReadStatsTest() {
    OdhOptions options;
    options.batch_size = 100;
    odh_ = std::make_unique<OdhSystem>(options);
    type_ = odh_->DefineSchemaType("m", {"temp"}).value();
    ODH_CHECK_OK(odh_->RegisterSource(1, type_, kMicrosPerSecond, true));
    for (int i = 0; i < 400; ++i) {
      ODH_CHECK_OK(odh_->Ingest({1, i * kMicrosPerSecond, {1.0 * i}}));
    }
    ODH_CHECK_OK(odh_->FlushAll());
  }

  /// Drains one full historical scan (4 blobs, 400 records).
  void RunScan() {
    auto cursor = odh_->HistoricalQuery(type_, 1, kMinTimestamp,
                                        kMaxTimestamp);
    ODH_CHECK(cursor.ok());
    OperationalRecord rec;
    while (true) {
      auto more = (*cursor)->Next(&rec);
      ODH_CHECK(more.ok());
      if (!*more) break;
    }
  }

  std::unique_ptr<OdhSystem> odh_;
  int type_;
};

TEST_F(ReadStatsTest, SnapshotReturnsCountsAndZeroes) {
  odh_->reader()->ResetStats();
  RunScan();
  const ReadStats first = odh_->reader()->SnapshotAndResetStats();
  EXPECT_EQ(first.records_emitted, 400);
  EXPECT_EQ(first.blobs_decoded, 4);
  const ReadStats second = odh_->reader()->SnapshotAndResetStats();
  EXPECT_EQ(second.records_emitted, 0);
  EXPECT_EQ(second.blobs_decoded, 0);
  EXPECT_EQ(second.blob_bytes_read, 0);
}

TEST_F(ReadStatsTest, ConcurrentResetLosesNoIncrements) {
  // Scanner threads emit a known record total while the main thread
  // repeatedly snapshots+resets; every emitted record must land in
  // exactly one snapshot epoch or the final drain.
  constexpr int kThreads = 4;
  constexpr int kScansPerThread = 25;
  constexpr int64_t kExpected =
      int64_t{kThreads} * kScansPerThread * 400;

  odh_->reader()->ResetStats();
  std::atomic<int> running{kThreads};
  std::vector<std::thread> scanners;
  scanners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    scanners.emplace_back([&] {
      for (int s = 0; s < kScansPerThread; ++s) RunScan();
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  int64_t harvested = 0;
  while (running.load(std::memory_order_acquire) > 0) {
    harvested += odh_->reader()->SnapshotAndResetStats().records_emitted;
  }
  for (std::thread& t : scanners) t.join();
  harvested += odh_->reader()->SnapshotAndResetStats().records_emitted;
  EXPECT_EQ(harvested, kExpected);
}

}  // namespace
}  // namespace odh::core
