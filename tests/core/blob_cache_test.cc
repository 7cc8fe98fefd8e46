// Cache coherence for the decoded-blob cache: a cached answer must be
// bit-identical to a fresh decode on every scan path, and the generation
// component of the key must make stale entries unreachable across
// compaction swaps, MG rebuilds, and retention drop + re-ingest — the
// cache is never explicitly invalidated, it is simply never asked for a
// dead generation again.

#include "core/blob_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "sql/session.h"

namespace odh::core {
namespace {

BlobCacheKey Key(int64_t seg, int64_t generation, uint64_t rid) {
  BlobCacheKey key;
  key.schema_type = 0;
  key.structure = BlobStructure::kRts;
  key.seg = seg;
  key.generation = generation;
  key.rid = rid;
  key.tag_mask = ~0ull;
  return key;
}

std::shared_ptr<const RecordBatch> Batch(double v) {
  auto b = std::make_shared<RecordBatch>();
  b->uniform_id = 1;
  b->timestamps = {1, 2, 3};
  b->columns = {{v, v, v}};
  return b;
}

TEST(BlobCacheUnitTest, LookupInsertAndStats) {
  BlobCache cache(/*capacity_bytes=*/4096, /*num_shards=*/1);
  EXPECT_EQ(cache.Lookup(Key(0, 0, 1)), nullptr);
  cache.Insert(Key(0, 0, 1), Batch(7.0), 1024);
  auto hit = cache.Lookup(Key(0, 0, 1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->columns[0][0], 7.0);

  // Any key component change is a different entry.
  EXPECT_EQ(cache.Lookup(Key(1, 0, 1)), nullptr);
  EXPECT_EQ(cache.Lookup(Key(0, 1, 1)), nullptr);
  EXPECT_EQ(cache.Lookup(Key(0, 0, 2)), nullptr);

  const BlobCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 4);
  EXPECT_EQ(s.inserts, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.bytes, 1024);
}

TEST(BlobCacheUnitTest, EvictsLeastRecentlyUsed) {
  BlobCache cache(4096, 1);
  for (int i = 0; i < 4; ++i) {
    cache.Insert(Key(0, 0, static_cast<uint64_t>(i)), Batch(1.0 * i), 1024);
  }
  // Touch rid 0 so rid 1 is the LRU entry when the next insert overflows.
  ASSERT_NE(cache.Lookup(Key(0, 0, 0)), nullptr);
  cache.Insert(Key(0, 0, 99), Batch(99.0), 1024);
  EXPECT_EQ(cache.Lookup(Key(0, 0, 1)), nullptr);
  EXPECT_NE(cache.Lookup(Key(0, 0, 0)), nullptr);
  EXPECT_NE(cache.Lookup(Key(0, 0, 99)), nullptr);
  EXPECT_GE(cache.stats().evictions, 1);
  EXPECT_LE(cache.stats().bytes, 4096);
}

TEST(BlobCacheUnitTest, OversizedValuesAreRefused) {
  BlobCache cache(4096, 1);
  cache.Insert(Key(0, 0, 1), Batch(1.0), 8192);
  EXPECT_EQ(cache.Lookup(Key(0, 0, 1)), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(BlobCacheUnitTest, DuplicateInsertReplacesInPlace) {
  BlobCache cache(4096, 1);
  cache.Insert(Key(0, 0, 1), Batch(1.0), 1024);
  cache.Insert(Key(0, 0, 1), Batch(2.0), 512);
  auto hit = cache.Lookup(Key(0, 0, 1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->columns[0][0], 2.0);
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_EQ(cache.stats().bytes, 512);
}

// --- End-to-end coherence over a segmented store ---------------------

constexpr Timestamp kSpan = 100 * kMicrosPerSecond;
constexpr int kSeconds = 500;

OdhOptions CacheOpts(size_t cache_bytes) {
  OdhOptions options;
  options.batch_size = 25;
  options.segment_span = kSpan;  // 5 segments over 500 s.
  options.query_parallelism = 4;
  options.blob_cache_bytes = cache_bytes;
  return options;
}

int DefineAndIngest(OdhSystem* sys) {
  int type = sys->DefineSchemaType("env", {"temperature", "wind"}).value();
  for (SourceId id = 1; id <= 2; ++id) {
    ODH_CHECK_OK(sys->RegisterSource(id, type, kMicrosPerSecond, true));
  }
  for (SourceId id = 3; id <= 4; ++id) {
    ODH_CHECK_OK(sys->RegisterSource(id, type, kMicrosPerSecond, false));
  }
  for (int i = 0; i < kSeconds; ++i) {
    for (SourceId id = 1; id <= 4; ++id) {
      Timestamp ts = static_cast<Timestamp>(i) * kMicrosPerSecond;
      if (id >= 3) ts += (i % 7) * 1000;  // Jitter -> IRTS.
      ODH_CHECK_OK(sys->Ingest({id, ts, {20.0 + id + 0.01 * i, 1.0 * id}}));
    }
  }
  ODH_CHECK_OK(sys->FlushAll());
  return type;
}

/// Streams `sql` and returns one line per row IN EMISSION ORDER — cached
/// and fresh scans must agree byte for byte, order included.
std::vector<std::string> QueryLines(OdhSystem* sys, const std::string& sql) {
  sql::Session session(sys->engine());
  auto stream = session.ExecuteStreaming(sql);
  ODH_CHECK_OK(stream.status());
  std::vector<std::string> rows;
  Row row;
  while ((*stream)->Next(&row).value()) {
    std::string line;
    for (const Datum& d : row) line += d.ToString() + "|";
    rows.push_back(std::move(line));
  }
  return rows;
}

class CacheCoherenceTest : public ::testing::Test {
 protected:
  CacheCoherenceTest()
      : cached_(CacheOpts(32u << 20)), fresh_(CacheOpts(0)) {
    type_ = DefineAndIngest(&cached_);
    DefineAndIngest(&fresh_);
  }

  OdhSystem cached_;
  OdhSystem fresh_;
  int type_ = 0;
};

TEST_F(CacheCoherenceTest, CachedEqualsFreshAcrossAllScanPaths) {
  const std::vector<std::string> queries = {
      "SELECT id, ts, temperature, wind FROM env_v WHERE id = 1",
      "SELECT ts, temperature FROM env_v WHERE id = 3 AND ts >= " +
          std::to_string(120 * kMicrosPerSecond) + " AND ts <= " +
          std::to_string(380 * kMicrosPerSecond),
      "SELECT id, ts, wind FROM env_v WHERE ts >= " +
          std::to_string(150 * kMicrosPerSecond) + " AND ts <= " +
          std::to_string(250 * kMicrosPerSecond),
      "SELECT id, ts, temperature FROM env_v WHERE temperature > 23.5",
      "SELECT COUNT(*), SUM(temperature), MIN(wind), MAX(wind) "
      "FROM env_v WHERE id = 2",
      // Constraints the pushdown does not absorb: every scanned row is
      // re-checked, and the aggregate folds over the batch scan's rows.
      "SELECT id, ts, temperature FROM env_v WHERE id >= 3 AND "
      "temperature > 23.5",
      "SELECT COUNT(*), SUM(temperature), MIN(wind), MAX(wind) "
      "FROM env_v WHERE id BETWEEN 2 AND 2",
  };
  for (int parallelism : {0, 4}) {
    cached_.config()->SetQueryParallelism(parallelism);
    fresh_.config()->SetQueryParallelism(0);
    for (const std::string& sql : queries) {
      // Twice on the cached system: the first run fills the cache, the
      // second is served from it. Both must equal the cache-free twin.
      const auto first = QueryLines(&cached_, sql);
      const auto second = QueryLines(&cached_, sql);
      const auto reference = QueryLines(&fresh_, sql);
      EXPECT_EQ(first, reference) << sql << " par=" << parallelism;
      EXPECT_EQ(second, reference)
          << sql << " (warm) par=" << parallelism;
    }
  }
}

TEST_F(CacheCoherenceTest, NativeCursorsSeeCachedAndFreshIdentically) {
  auto drain = [](Result<std::unique_ptr<RecordCursor>> cursor) {
    ODH_CHECK_OK(cursor.status());
    std::vector<std::string> lines;
    OperationalRecord rec;
    while ((*cursor)->Next(&rec).value()) {
      std::string line = std::to_string(rec.id) + "@" +
                         std::to_string(rec.ts);
      for (double v : rec.tags) line += "," + std::to_string(v);
      lines.push_back(std::move(line));
    }
    return lines;
  };
  const Timestamp lo = 80 * kMicrosPerSecond;
  const Timestamp hi = 420 * kMicrosPerSecond;
  const auto cold = drain(cached_.HistoricalQuery(type_, 1, lo, hi));
  const auto warm = drain(cached_.HistoricalQuery(type_, 1, lo, hi));
  const auto reference = drain(fresh_.HistoricalQuery(type_, 1, lo, hi));
  EXPECT_EQ(cold, reference);
  EXPECT_EQ(warm, reference);
  EXPECT_GT(cached_.reader()->stats().blob_cache_hits, 0);

  const auto slice_cold = drain(cached_.SliceQuery(type_, lo, hi));
  const auto slice_warm = drain(cached_.SliceQuery(type_, lo, hi));
  EXPECT_EQ(slice_cold, drain(fresh_.SliceQuery(type_, lo, hi)));
  EXPECT_EQ(slice_warm, slice_cold);
}

TEST_F(CacheCoherenceTest, CompactionSwapMakesStaleGenerationsUnreachable) {
  const std::string all = "SELECT id, ts, temperature, wind FROM env_v";
  const auto before = QueryLines(&cached_, all);  // Warms generation 0.
  ASSERT_TRUE(cached_.CompactSegments(type_).ok());

  // The compacted segments carry generation 1: every cached generation-0
  // entry is silently unreachable, so the scan decodes fresh blobs and the
  // answers stay exact. Compaction rewrites blob boundaries, so compare as
  // sorted sets against the uncompacted twin (emission order is a
  // same-layout contract; cross-layout only the values must agree).
  auto sorted = [](std::vector<std::string> rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  cached_.reader()->ResetStats();
  const auto after = QueryLines(&cached_, all);
  EXPECT_EQ(sorted(after), sorted(QueryLines(&fresh_, all)));
  EXPECT_EQ(sorted(after), sorted(before));
  const ReadStats stats = cached_.reader()->SnapshotAndResetStats();
  EXPECT_GT(stats.blobs_decoded, 0)
      << "post-compaction scan was served stale cached generations";

  // The rewritten blobs cache under the new generation: a repeat hits.
  const auto warm = QueryLines(&cached_, all);
  EXPECT_EQ(warm, after);
  const ReadStats warm_stats = cached_.reader()->SnapshotAndResetStats();
  EXPECT_EQ(warm_stats.blobs_decoded, 0);
  EXPECT_GT(warm_stats.blob_cache_hits, 0);
}

TEST_F(CacheCoherenceTest, MgRebuildBumpsEpochAfterReorganize) {
  // A metered type: every blob lands in MG first (the reorganizer_test
  // shape), so reorganize + CompactMg rebuilds the MG heap and reshuffles
  // rids. The epoch in the cache key must keep old rid entries dead.
  OdhOptions options = CacheOpts(32u << 20);
  options.mg_group_size = 4;
  OdhSystem odh(options);
  int type = odh.DefineSchemaType("meters", {"kwh"}).value();
  for (SourceId id = 0; id < 8; ++id) {
    ODH_CHECK_OK(odh.RegisterSource(id, type, 15 * kMicrosPerMinute, true));
  }
  for (int reading = 0; reading < 6; ++reading) {
    for (SourceId id = 0; id < 8; ++id) {
      ODH_CHECK_OK(odh.Ingest(
          {id, reading * 15 * kMicrosPerMinute, {id * 10.0 + reading}}));
    }
  }
  ODH_CHECK_OK(odh.FlushAll());

  const std::string all = "SELECT id, ts, kwh FROM meters_v";
  const auto before = QueryLines(&odh, all);  // Warms the MG blobs.
  ASSERT_TRUE(odh.Reorganize(type, kMaxTimestamp).ok());
  // Same answer set (reorganization is lossless), served from the new
  // RTS blobs — never from the pre-rebuild MG cache entries.
  auto after = QueryLines(&odh, all);
  std::sort(after.begin(), after.end());
  auto sorted_before = before;
  std::sort(sorted_before.begin(), sorted_before.end());
  EXPECT_EQ(after, sorted_before);
}

TEST_F(CacheCoherenceTest, RetentionDropThenReingestServesNewValues) {
  // Warm the cache over the full history, then drop the oldest segments
  // and re-ingest different values into the same time range (a fresh
  // source keeps per-source monotonicity). The re-created segment reuses
  // the same key and a fresh table — rids can collide with cached ones —
  // so only the recorded next-generation bump keeps the old entries dead.
  const std::string head = "SELECT id, ts, temperature FROM env_v "
                           "WHERE ts < " +
                           std::to_string(100 * kMicrosPerSecond);
  const auto old_rows = QueryLines(&cached_, head);
  EXPECT_EQ(old_rows.size(), 400u);  // 4 sources x 100 s.

  auto dropped = cached_.SetRetention(type_, 150 * kMicrosPerSecond);
  ASSERT_TRUE(dropped.ok());
  ASSERT_GT(*dropped, 0);
  ASSERT_TRUE(cached_.SetRetention(type_, 0).status().ok());  // Clear.

  ODH_CHECK_OK(cached_.RegisterSource(9, type_, kMicrosPerSecond, true));
  for (int i = 0; i < 100; ++i) {
    ODH_CHECK_OK(cached_.Ingest(
        {9, static_cast<Timestamp>(i) * kMicrosPerSecond, {-5.0 - i, 0.0}}));
  }
  ODH_CHECK_OK(cached_.FlushAll());

  for (int run = 0; run < 2; ++run) {  // Cold, then warm.
    const auto rows = QueryLines(&cached_, head);
    ASSERT_EQ(rows.size(), 100u) << "run " << run;
    for (const std::string& line : rows) {
      EXPECT_EQ(line.substr(0, 2), "9|")
          << "dropped row resurrected (run " << run << "): " << line;
    }
  }
}

TEST_F(CacheCoherenceTest, DirtyRowsAreNeverMaskedByTheCache) {
  const std::string sql =
      "SELECT id, ts, temperature FROM env_v WHERE id = 1 AND ts >= " +
      std::to_string(480 * kMicrosPerSecond);
  const auto flushed = QueryLines(&cached_, sql);  // Warms the tail blobs.
  // New unflushed rows live in the writer's dirty buffers; the warm cached
  // scan must still merge them in.
  for (int i = kSeconds; i < kSeconds + 5; ++i) {
    ODH_CHECK_OK(cached_.Ingest(
        {1, static_cast<Timestamp>(i) * kMicrosPerSecond, {99.0, 0.0}}));
  }
  const auto with_dirty = QueryLines(&cached_, sql);
  EXPECT_EQ(with_dirty.size(), flushed.size() + 5);
  ODH_CHECK_OK(cached_.FlushAll());
  const auto after_flush = QueryLines(&cached_, sql);
  EXPECT_EQ(after_flush, with_dirty);
}

/// TSAN target: hit/miss/evict churn on a deliberately tiny cache while
/// ingest, flush, and compaction run concurrently with parallel scans.
TEST(BlobCacheStressTest, ConcurrentScansSurviveEvictionAndCompaction) {
  OdhOptions options;
  options.batch_size = 32;
  options.segment_span = 50 * kMicrosPerSecond;
  options.query_parallelism = 4;
  options.blob_cache_bytes = 64u << 10;  // Tiny: constant eviction.
  OdhSystem odh(options);
  int type = odh.DefineSchemaType("env", {"temp"}).value();
  constexpr int kSources = 3;
  constexpr int kPoints = 2000;
  for (SourceId s = 1; s <= kSources; ++s) {
    ODH_CHECK_OK(odh.RegisterSource(s, type, kMicrosPerSecond, true));
  }
  for (int i = 0; i < kPoints / 2; ++i) {
    for (SourceId s = 1; s <= kSources; ++s) {
      ODH_CHECK_OK(odh.Ingest({s, i * kMicrosPerSecond, {1.0 * i}}));
    }
  }
  ODH_CHECK_OK(odh.FlushAll());

  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  // Ingest the second half while readers run.
  workers.emplace_back([&] {
    for (int i = kPoints / 2; i < kPoints; ++i) {
      for (SourceId s = 1; s <= kSources; ++s) {
        ODH_CHECK_OK(odh.Ingest({s, i * kMicrosPerSecond, {1.0 * i}}));
      }
      if (i % 200 == 0) ODH_CHECK_OK(odh.FlushAll());
    }
    ODH_CHECK_OK(odh.FlushAll());
  });
  // Compaction bumps generations mid-scan.
  workers.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      ODH_CHECK_OK(odh.CompactSegments(type).status());
      std::this_thread::yield();
    }
  });
  // Parallel historical + slice readers through the native API.
  for (int r = 0; r < 2; ++r) {
    workers.emplace_back([&, r] {
      const Timestamp hi = kPoints * kMicrosPerSecond;
      while (!done.load(std::memory_order_relaxed)) {
        auto hist = odh.HistoricalQuery(type, 1 + r, 0, hi);
        ODH_CHECK_OK(hist.status());
        OperationalRecord rec;
        int64_t rows = 0;
        Result<bool> more = true;
        while ((more = (*hist)->Next(&rec)).value()) ++rows;
        ODH_CHECK_OK(more.status());
        EXPECT_GE(rows, kPoints / 2);
        auto slice = odh.SliceQuery(type, 0, 100 * kMicrosPerSecond);
        ODH_CHECK_OK(slice.status());
        while ((more = (*slice)->Next(&rec)).value()) {
        }
        ODH_CHECK_OK(more.status());
      }
    });
  }
  workers[0].join();  // Let the full ingest land...
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  done.store(true, std::memory_order_relaxed);
  for (size_t i = 1; i < workers.size(); ++i) workers[i].join();

  // Every point is still exactly once in the store.
  auto count = odh.engine()->Execute("SELECT COUNT(*) FROM env_v");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0], Datum::Int64(kSources * kPoints));
  EXPECT_GT(odh.blob_cache()->stats().evictions, 0);
}

}  // namespace
}  // namespace odh::core
