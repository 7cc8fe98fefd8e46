// Historical listings racing the series directory's writers. Several
// sessions run historical queries (each lists a source's RTS/IRTS blobs
// through the in-memory directory, collects the writer's dirty rows and
// catches up on a flush that fell in between with CatchUpHistorical)
// while one writer thread ingests and runs FlushAll, CompactSegments and
// ApplyRetention, which add to, swap and drop directories. Every answer
// is checked against the generator: the exact row count and sum, or
// every point exactly once. CI re-runs this suite under TSAN.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "sql/session.h"

namespace odh::core {
namespace {

constexpr SourceId kRegular = 2;  // Sources 1..2: RTS.
constexpr SourceId kSources = 4;  // Sources 3..4: IRTS (jittered).
constexpr Timestamp kSec = kMicrosPerSecond;
constexpr Timestamp kSpan = 20 * kSec;
constexpr int kWindow = 60;  // Seconds per query window.
constexpr int kRetention = 200;  // Seconds; 10 segments.
constexpr int kMaxLead = 100;  // kWindow + kMaxLead + kSpan < kRetention.
constexpr int kReaders = 3;
constexpr int kQueriesPerReader = 300;

OdhOptions Opts() {
  OdhOptions options;
  options.batch_size = 16;
  options.writer_shards = 2;
  options.segment_span = kSpan;
  return options;
}

/// Point i of source `id`: at second i (plus a sub-second jitter for the
/// IRTS sources), with value i.
Timestamp PointTs(SourceId id, int i) {
  return i * kSec + (id > kRegular ? (i % 7) * 1000 : 0);
}

TEST(SeriesDirectoryRaceTest, ListingsRacingFlushCompactionAndRetention) {
  OdhSystem odh(Opts());
  const int type = odh.DefineSchemaType("env", {"v"}).value();
  for (SourceId id = 1; id <= kSources; ++id) {
    ODH_CHECK_OK(odh.RegisterSource(id, type, kSec, id <= kRegular));
  }
  ODH_CHECK_OK(odh.SetRetention(type, kRetention * kSec).status());

  // The watermark each reader's in-flight query was cut at (INT_MAX when
  // idle). The writer never runs more than kMaxLead seconds past the
  // oldest, so retention (cutoff at most kRetention seconds behind the
  // stream) never reaches a window still being answered.
  std::atomic<int> in_flight[kReaders];
  for (std::atomic<int>& w : in_flight) w = INT_MAX;
  auto oldest_in_flight = [&] {
    int oldest = INT_MAX;
    for (const std::atomic<int>& w : in_flight) {
      oldest = std::min(oldest, w.load());
    }
    return oldest;
  };

  // Writer: one second of every source per step, a FlushAll every 3 s of
  // stream time, compaction and retention every 20 s; `watermark` is the
  // last second fully ingested.
  std::atomic<int> watermark{-1};
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_failed{false};
  std::atomic<int> compactions{0};
  std::thread writer([&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      while (oldest_in_flight() != INT_MAX &&
             i - oldest_in_flight() > kMaxLead &&
             !stop.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
      }
      for (SourceId id = 1; id <= kSources; ++id) {
        if (!odh.Ingest({id, PointTs(id, i), {static_cast<double>(i)}})
                 .ok()) {
          writer_failed = true;
          return;
        }
      }
      watermark.store(i, std::memory_order_release);
      if (i % 3 == 2 && !odh.FlushAll().ok()) {
        writer_failed = true;
        return;
      }
      if (i % 20 == 19) {
        if (!odh.CompactSegments(type).ok() ||
            !odh.ApplyRetention(type).ok()) {
          writer_failed = true;
          return;
        }
        compactions.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  struct JoinWriter {
    std::atomic<bool>* stop;
    std::thread* writer;
    ~JoinWriter() {
      stop->store(true);
      writer->join();
    }
  } join_writer{&stop, &writer};

  // Each reader checks its own answers; failures are counted, not
  // asserted, off the main thread.
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::atomic<int> answered{0};
  auto reader = [&](int r) {
    sql::Session session(odh.engine());
    for (int q = 0; q < kQueriesPerReader && mismatches.load() < 5; ++q) {
      const int w = watermark.load(std::memory_order_acquire);
      in_flight[r] = w;
      const SourceId id = 1 + (q + r) % kSources;
      const int lo = w - kWindow + 1;
      const std::string window =
          " FROM env_v WHERE id = " + std::to_string(id) +
          " AND ts BETWEEN " + std::to_string(lo * kSec) + " AND " +
          std::to_string(w * kSec + kSec - 1);
      const int64_t want_rows = w - lo + 1;
      const double want_sum = 0.5 * (w + lo) * (w - lo + 1);
      if (q % 3 == 0) {  // Aggregate pushdown.
        auto res = session.Execute("SELECT COUNT(*), SUM(v)" + window);
        if (!res.ok()) {
          ++errors;
          continue;
        }
        if (res->rows[0][0].int64_value() != want_rows ||
            res->rows[0][1].double_value() != want_sum) {
          ++mismatches;
        }
      } else {  // Every point exactly once: batch scan or native API.
        std::vector<std::pair<Timestamp, double>> points;
        if (q % 3 == 1) {
          auto res = session.Execute("SELECT ts, v" + window);
          if (!res.ok()) {
            ++errors;
            continue;
          }
          for (const Row& row : res->rows) {
            points.emplace_back(row[0].timestamp_value(),
                                row[1].double_value());
          }
        } else {
          auto cursor = odh.HistoricalQuery(type, id, lo * kSec,
                                            w * kSec + kSec - 1);
          if (!cursor.ok()) {
            ++errors;
            continue;
          }
          OperationalRecord rec;
          while ((*cursor)->Next(&rec).value()) {
            points.emplace_back(rec.ts, rec.tags[0]);
          }
        }
        // A historical scan promises no row order (without ORDER BY).
        std::sort(points.begin(), points.end());
        bool good = static_cast<int64_t>(points.size()) == want_rows;
        for (size_t k = 0; good && k < points.size(); ++k) {
          const int i = lo + static_cast<int>(k);
          good = points[k] == std::make_pair(PointTs(id, i),
                                             static_cast<double>(i));
        }
        if (!good) ++mismatches;
      }
      ++answered;
      in_flight[r] = INT_MAX;
    }
    in_flight[r] = INT_MAX;
  };
  while (watermark.load(std::memory_order_acquire) < kWindow &&
         !writer_failed.load()) {
    std::this_thread::yield();
  }
  const int compactions_before = compactions.load();
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader, r);
  for (std::thread& t : readers) t.join();
  const int compactions_during = compactions.load() - compactions_before;
  stop = true;

  EXPECT_FALSE(writer_failed.load());
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(answered.load(), kReaders * kQueriesPerReader);
  // The race was real: compaction and retention ran while readers did,
  // and retention dropped segments.
  EXPECT_GT(compactions_during, 0);
  EXPECT_GT(odh.store()->segments_dropped(), 0);
}

}  // namespace
}  // namespace odh::core
