#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "storage/sim_disk.h"

namespace odh::core {
namespace {

/// Multi-threaded ingestion against one OdhSystem: N ingest threads with
/// disjoint source ranges, concurrent dirty reads from another thread, and
/// crash recovery of a multi-threaded run. Routing reads the immutable
/// config, so the dirty reads route safely beside the ingest threads.
OdhOptions ConcurrentOptions() {
  OdhOptions options;
  options.batch_size = 16;
  options.mg_group_size = 8;
  options.writer_shards = 4;
  options.read_parallelism = 2;
  return options;
}

constexpr int kThreads = 4;
constexpr SourceId kSourcesPerThread = 8;
constexpr int kPointsPerSource = 100;
constexpr SourceId kNumSources = kThreads * kSourcesPerThread;

/// The last two sources of each thread's range sample at 0.1 Hz, routing
/// them to MG so group buffers see cross-thread shard traffic too.
bool IsSlow(SourceId id) { return (id - 1) % kSourcesPerThread >= 6; }

Timestamp PointTs(SourceId id, int i) {
  return static_cast<Timestamp>(i) * kMicrosPerSecond * (IsSlow(id) ? 10 : 1);
}

double TagValue(SourceId id, int i) { return id * 1000.0 + i; }

int DefineAndRegister(OdhSystem* odh) {
  int type = odh->DefineSchemaType("env", {"a", "b"}).value();
  for (SourceId id = 1; id <= kNumSources; ++id) {
    Timestamp interval = (IsSlow(id) ? 10 : 1) * kMicrosPerSecond;
    ODH_CHECK_OK(odh->RegisterSource(id, type, interval, true));
  }
  return type;
}

/// Each thread ingests its own source range; per-source timestamps stay
/// monotonic within the owning thread, as the writer contract requires.
void IngestConcurrently(OdhSystem* odh, std::atomic<bool>* failed) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([odh, t, failed] {
      const SourceId first = 1 + t * kSourcesPerThread;
      for (int i = 0; i < kPointsPerSource; ++i) {
        for (SourceId id = first; id < first + kSourcesPerThread; ++id) {
          OperationalRecord r{id, PointTs(id, i),
                              {TagValue(id, i), 0.5 * id}};
          if (!odh->Ingest(r).ok()) {
            failed->store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

/// Reads a source's full history and requires it complete and exact: every
/// point present once with the right timestamp and value. RTS blobs never
/// overlap per source, so those scans must also emit in timestamp order;
/// MG group blobs can overlap in time when concurrent threads skew (the
/// cursor contract is blob order, not global order — SQL sorts on top), so
/// slow sources are verified as a sorted set.
void VerifySourceComplete(OdhSystem* odh, int type, SourceId id) {
  auto cursor = odh->HistoricalQuery(type, id, kMinTimestamp,
                                     kMaxTimestamp, {0, 1});
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  OperationalRecord r;
  std::vector<std::pair<Timestamp, double>> points;
  Timestamp last_ts = kMinTimestamp;
  while (true) {
    auto has = (*cursor)->Next(&r);
    ASSERT_TRUE(has.ok()) << has.status().ToString();
    if (!*has) break;
    EXPECT_EQ(r.id, id);
    if (!IsSlow(id)) {
      EXPECT_GE(r.ts, last_ts) << "source " << id;
      last_ts = r.ts;
    }
    points.emplace_back(r.ts, r.tags[0]);
  }
  ASSERT_EQ(points.size(), static_cast<size_t>(kPointsPerSource))
      << "source " << id;
  std::sort(points.begin(), points.end());
  for (int i = 0; i < kPointsPerSource; ++i) {
    EXPECT_EQ(points[i].first, PointTs(id, i)) << "source " << id;
    EXPECT_DOUBLE_EQ(points[i].second, TagValue(id, i)) << "source " << id;
  }
}

TEST(ConcurrentIngestTest, ParallelIngestPreservesEveryPoint) {
  OdhSystem odh(ConcurrentOptions());
  int type = DefineAndRegister(&odh);

  std::atomic<bool> failed{false};
  IngestConcurrently(&odh, &failed);
  ASSERT_FALSE(failed.load());
  ODH_CHECK_OK(odh.FlushAll());

  EXPECT_EQ(odh.writer()->stats().points_ingested,
            static_cast<int64_t>(kNumSources) * kPointsPerSource);

  for (SourceId id = 1; id <= kNumSources; ++id) {
    VerifySourceComplete(&odh, type, id);
  }
}

TEST(ConcurrentIngestTest, DirtyReadsDuringParallelIngestStayConsistent) {
  OdhSystem odh(ConcurrentOptions());
  int type = DefineAndRegister(&odh);

  // One settled source ingested before the storm: its counts are exact
  // even while every other source is mid-flight. It must be an RTS source
  // (no group sharing) so no concurrent flush can touch its buffers.
  const SourceId settled = 1;
  for (int i = 0; i < kPointsPerSource; ++i) {
    ODH_CHECK_OK(odh.Ingest({settled, PointTs(settled, i),
                             {TagValue(settled, i), 1.0}}));
  }

  std::atomic<bool> failed{false};
  std::atomic<bool> query_failed{false};
  std::atomic<bool> done{false};
  std::thread querier([&] {
    // Historical reads with dirty-read isolation while ingestion runs. The
    // settled source must always return its full, exact history; in-flight
    // sources must return monotone timestamps and matching values.
    int round = 0;
    while (!done.load(std::memory_order_acquire)) {
      auto cursor = odh.HistoricalQuery(type, settled, kMinTimestamp,
                                        kMaxTimestamp, {0, 1});
      if (!cursor.ok()) {
        query_failed.store(true);
        return;
      }
      OperationalRecord r;
      int count = 0;
      while (true) {
        auto has = (*cursor)->Next(&r);
        if (!has.ok()) {
          query_failed.store(true);
          return;
        }
        if (!*has) break;
        if (r.id != settled ||
            std::fabs(r.tags[0] - TagValue(settled, count)) > 1e-9) {
          query_failed.store(true);
          return;
        }
        ++count;
      }
      if (count != kPointsPerSource) {
        query_failed.store(true);
        return;
      }
      SourceId in_flight = 2 + (round++ % (kNumSources - 1));
      auto flying = odh.HistoricalQuery(type, in_flight, kMinTimestamp,
                                        kMaxTimestamp, {0, 1});
      if (!flying.ok()) {
        query_failed.store(true);
        return;
      }
      Timestamp last_ts = kMinTimestamp;
      while (true) {
        auto has = (*flying)->Next(&r);
        if (!has.ok()) {
          query_failed.store(true);
          return;
        }
        if (!*has) break;
        // Per-source order must survive dirty reads; MG group blobs may
        // interleave under skew, so order is only checked for RTS sources.
        if (!IsSlow(in_flight) && r.ts < last_ts) {
          query_failed.store(true);
          return;
        }
        last_ts = r.ts;
      }
    }
  });

  // The settled source already advanced its timestamps, so the storm
  // covers every source except it.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const SourceId first = 1 + t * kSourcesPerThread;
      for (int i = 0; i < kPointsPerSource; ++i) {
        for (SourceId id = first; id < first + kSourcesPerThread; ++id) {
          if (id == settled) continue;
          OperationalRecord r{id, PointTs(id, i),
                              {TagValue(id, i), 0.5 * id}};
          if (!odh.Ingest(r).ok()) {
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  done.store(true, std::memory_order_release);
  querier.join();

  ASSERT_FALSE(failed.load());
  ASSERT_FALSE(query_failed.load());
  ODH_CHECK_OK(odh.FlushAll());
}

TEST(ConcurrentIngestTest, MultiThreadedIngestRecoversAfterCrash) {
  OdhSystem odh(ConcurrentOptions());
  int type = DefineAndRegister(&odh);
  std::atomic<bool> failed{false};
  IngestConcurrently(&odh, &failed);
  ASSERT_FALSE(failed.load());
  ODH_CHECK_OK(odh.FlushAll());

  // Power cut after the flush: the durable image (WAL included) must
  // replay every synced blob into a fresh store.
  auto crashed = odh.database()->disk()->CloneDurable();

  OdhSystem recovered(ConcurrentOptions());
  int rec_type = DefineAndRegister(&recovered);
  auto report = recovered.Recover(crashed.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->torn_bytes_dropped, 0u);

  EXPECT_EQ(recovered.store()->rts_stats(rec_type).point_count +
                recovered.store()->irts_stats(rec_type).point_count +
                recovered.store()->mg_stats(rec_type).point_count,
            odh.store()->rts_stats(type).point_count +
                odh.store()->irts_stats(type).point_count +
                odh.store()->mg_stats(type).point_count);

  // Spot-check a few sources point for point (1: RTS; 8: MG; 13: RTS).
  for (SourceId id : {SourceId{1}, SourceId{8}, SourceId{13}}) {
    VerifySourceComplete(&recovered, rec_type, id);
  }
}

}  // namespace
}  // namespace odh::core
