// Projected slice fetches racing compaction. Readers run one-tag slice
// scans, whose store chunks fetch only the requested tag's sections of
// each blob and whose decodes stop at the window's end, over flushed
// history, while one writer thread keeps ingesting, flushing and running
// CompactSegments, which rewrites sealed segments' one-page blobs into
// multi-page ones under the readers' cursors. Every answer is checked
// against the generator. A query no compaction overlapped must return
// each point of its window exactly once, with its value. One that a
// compaction overlapped may miss the rest of a segment swapped between
// two of its chunks (the slice cursor skips it rather than re-read a new
// layout; DESIGN.md § Segment lifecycle), so it must return a subset of
// those points, each once and with its value. CI re-runs this suite
// under TSAN.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/odh.h"
#include "sql/session.h"

namespace odh::core {
namespace {

constexpr Timestamp kSec = kMicrosPerSecond;
constexpr Timestamp kTick = kSec / 10;  // 10 Hz sources.
constexpr int kTags = 6;
constexpr SourceId kSources = 3;  // Source 2 is jittered (IRTS).
constexpr int kPreload = 60;      // Seconds of history before the race.
constexpr int kReaders = 2;
constexpr int kQueriesPerReader = 30;
constexpr int kMaxSeconds = 3000;  // The writer stops here regardless.

OdhOptions Opts() {
  OdhOptions options;
  options.batch_size = 50;  // One page; compaction merges into several.
  options.segment_span = 10 * kSec;
  options.query_parallelism = 2;
  options.read_parallelism = 2;
  return options;
}

Timestamp PointTs(SourceId id, int64_t i) {
  return i * kTick + (id == 2 ? (i % 5) * 7000 : 0);
}

/// Tag `t` of point `i` of source `id`: noise, so blobs barely compress.
double Value(SourceId id, int64_t i, int t) {
  uint64_t x = static_cast<uint64_t>(id) * 1'000'003 +
               static_cast<uint64_t>(i) * 16 + static_cast<uint64_t>(t);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<double>(x >> 11) / 9007199254740992.0 * 1000.0;
}

Status IngestSecond(OdhSystem* odh, int second) {
  for (int64_t i = second * 10; i < (second + 1) * 10; ++i) {
    for (SourceId id = 1; id <= kSources; ++id) {
      std::vector<double> tags(kTags);
      for (int t = 0; t < kTags; ++t) tags[t] = Value(id, i, t);
      ODH_RETURN_IF_ERROR(odh->Ingest({id, PointTs(id, i), tags}));
    }
  }
  return Status::OK();
}

TEST(ProjectedSliceRaceTest, SliceFetchesRacingCompactionMatchTheGenerator) {
  OdhSystem odh(Opts());
  std::vector<std::string> names;
  for (int t = 0; t < kTags; ++t) names.push_back("w" + std::to_string(t));
  const int type = odh.DefineSchemaType("wide", names).value();
  for (SourceId id = 1; id <= kSources; ++id) {
    ODH_CHECK_OK(odh.RegisterSource(id, type, kTick, id != 2));
  }
  for (int s = 0; s < kPreload; ++s) ODH_CHECK_OK(IngestSecond(&odh, s));
  ODH_CHECK_OK(odh.FlushAll());

  // Writer: one stream second per step, a FlushAll every 2 s (publishing
  // the last second it made durable in the tables) and compaction every
  // 10 s. The preloaded sealed segments are compacted at its first cycle.
  std::atomic<int> flushed{kPreload - 1};
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_failed{false};
  std::atomic<int> compactions{0};
  // Odd while CompactSegments runs: a reader that sees it odd, or changed,
  // across its query raced a compaction.
  std::atomic<int> compaction_seq{0};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    struct Done {
      std::atomic<bool>* done;
      ~Done() { done->store(true); }
    } done{&writer_done};
    for (int s = kPreload; s < kMaxSeconds && !stop.load(); ++s) {
      if (!IngestSecond(&odh, s).ok()) {
        writer_failed = true;
        return;
      }
      if (s % 2 == 1) {
        if (!odh.FlushAll().ok()) {
          writer_failed = true;
          return;
        }
        flushed.store(s, std::memory_order_release);
      }
      if (s % 10 == 9) {
        compaction_seq.fetch_add(1);
        const bool ok = odh.CompactSegments(type).ok();
        compaction_seq.fetch_add(1);
        if (!ok) {
          writer_failed = true;
          return;
        }
        compactions.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
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

  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::atomic<int> answered{0};
  std::atomic<int> exact{0};  // Answers no compaction overlapped.
  auto reader = [&](int r) {
    sql::Session session(odh.engine());
    Random rng(100 + static_cast<uint64_t>(r));
    // At least kQueriesPerReader queries, and on until three compactions
    // have run beside them.
    for (int q = 0; (q < kQueriesPerReader ||
                     (compactions.load() < 3 && !writer_done.load())) &&
                    mismatches.load() < 3;
         ++q) {
      // A window inside the flushed history: no point of it is still in a
      // writer buffer, and later flushes add none.
      const int64_t end_tick = (flushed.load(std::memory_order_acquire) + 1) * 10;
      const int64_t len = 50 + static_cast<int64_t>(rng.Uniform(200));
      const int64_t lo_tick =
          static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(end_tick - len)));
      const Timestamp lo = lo_tick * kTick + 3000;
      const Timestamp hi = (lo_tick + len) * kTick + 3000;
      const int tag = static_cast<int>(rng.Uniform(kTags));
      const int seq_before = compaction_seq.load();
      auto res = session.Execute(
          "SELECT id, ts, w" + std::to_string(tag) +
          " FROM wide_v WHERE ts >= " + std::to_string(lo) +
          " AND ts <= " + std::to_string(hi));
      if (!res.ok()) {
        ++errors;
        continue;
      }
      std::vector<std::tuple<SourceId, Timestamp, double>> got;
      for (const Row& row : res->rows) {
        got.emplace_back(row[0].int64_value(), row[1].timestamp_value(),
                         row[2].double_value());
      }
      std::vector<std::tuple<SourceId, Timestamp, double>> want;
      for (SourceId id = 1; id <= kSources; ++id) {
        for (int64_t i = lo_tick - 1; i <= lo_tick + len + 1; ++i) {
          const Timestamp ts = PointTs(id, i);
          if (i >= 0 && ts >= lo && ts <= hi) {
            want.emplace_back(id, ts, Value(id, i, tag));
          }
        }
      }
      const bool raced =
          seq_before % 2 == 1 || compaction_seq.load() != seq_before;
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      const bool good =
          raced ? std::adjacent_find(got.begin(), got.end()) == got.end() &&
                      std::includes(want.begin(), want.end(), got.begin(),
                                    got.end())
                : got == want;
      if (!good) ++mismatches;
      if (!raced) ++exact;
      ++answered;
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader, r);
  for (std::thread& t : readers) t.join();
  const int compactions_during = compactions.load();
  stop = true;

  EXPECT_FALSE(writer_failed.load());
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(answered.load(), kReaders * kQueriesPerReader);
  EXPECT_GT(exact.load(), 0);
  EXPECT_GE(compactions_during, 3);
  // Compacted blobs span pages, and the one-tag scans skipped bytes.
  EXPECT_GT(odh.reader()->stats().blob_bytes_skipped, 0);
}

}  // namespace
}  // namespace odh::core
