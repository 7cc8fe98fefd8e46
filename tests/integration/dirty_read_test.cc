// Dirty reads racing flushes: a query whose window ends at the raw ingest
// watermark must see every ingested point exactly once while a writer
// keeps ingesting and calling FlushAll. A historical scan lists the
// store's blobs and then collects the writer's unflushed rows; a flush
// landing between the two used to leave its blob's rows in neither (about
// one query in a hundred). Checked on the batch scan, the top-k time scan,
// aggregate pushdown and the native API, against counts and sums derived
// from the generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "sql/session.h"

namespace odh::core {
namespace {

constexpr SourceId kSources = 4;
constexpr int kQueries = 3000;
constexpr int kWindow = 50;  // Seconds per query window.

OdhOptions Opts() {
  OdhOptions options;
  options.batch_size = 16;
  options.writer_shards = 4;
  return options;
}

/// Point i of every source sits at second i with value i.
double Value(int i) { return static_cast<double>(i); }

TEST(DirtyReadTest, WatermarkQueriesRacingFlushSeeEveryPoint) {
  OdhSystem odh(Opts());
  const int type = odh.DefineSchemaType("env", {"v"}).value();
  for (SourceId id = 1; id <= kSources; ++id) {
    ODH_CHECK_OK(odh.RegisterSource(id, type, kMicrosPerSecond, true));
  }

  // Writer: one second of every source per step, a FlushAll every few
  // steps; `watermark` is the last second fully ingested.
  std::atomic<int> watermark{-1};
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_failed{false};
  std::thread writer([&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      for (SourceId id = 1; id <= kSources; ++id) {
        if (!odh.Ingest({id, i * kMicrosPerSecond, {Value(i)}}).ok()) {
          writer_failed = true;
          return;
        }
      }
      watermark.store(i, std::memory_order_release);
      if (i % 5 == 4 && !odh.FlushAll().ok()) {
        writer_failed = true;
        return;
      }
    }
  });

  // Stops and joins the writer on every exit, ASSERT returns included.
  struct JoinWriter {
    std::atomic<bool>* stop;
    std::thread* writer;
    ~JoinWriter() {
      stop->store(true);
      writer->join();
    }
  } join_writer{&stop, &writer};

  sql::Session session(odh.engine());
  int mismatches = 0;
  for (int q = 0; q < kQueries && mismatches < 5; ++q) {
    const int w = watermark.load(std::memory_order_acquire);
    if (w < 0) {
      --q;
      std::this_thread::yield();
      continue;
    }
    // The last kWindow seconds up to the raw watermark.
    const SourceId id = 1 + q % kSources;
    const int lo = std::max(0, w - kWindow + 1);
    const std::string window =
        " FROM env_v WHERE id = " + std::to_string(id) + " AND ts BETWEEN " +
        std::to_string(lo * kMicrosPerSecond) + " AND " +
        std::to_string(w * kMicrosPerSecond);
    const int64_t want_rows = w - lo + 1;
    const double want_sum = 0.5 * (w + lo) * (w - lo + 1);
    switch (q % 4) {
      case 0: {  // Aggregate pushdown.
        auto r = session.Execute("SELECT COUNT(*), SUM(v)" + window);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        if (r->rows[0][0].int64_value() != want_rows ||
            r->rows[0][1].double_value() != want_sum) {
          ADD_FAILURE() << "aggregate at watermark " << w << ": "
                        << r->rows[0][0].ToString();
          ++mismatches;
        }
        break;
      }
      case 1:    // Batch scan.
      case 2: {  // Top-k time scan over the same window.
        auto r = session.Execute(
            "SELECT ts, v" + window +
            (q % 4 == 1 ? "" : " ORDER BY ts DESC LIMIT " +
                                   std::to_string(kWindow + 10)));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        if (static_cast<int64_t>(r->rows.size()) != want_rows) {
          ADD_FAILURE() << "scan at watermark " << w << ": "
                        << r->rows.size() << " rows";
          ++mismatches;
        }
        break;
      }
      default: {  // Native API.
        auto cursor = odh.HistoricalQuery(type, id, lo * kMicrosPerSecond,
                                          w * kMicrosPerSecond);
        ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
        OperationalRecord rec;
        int64_t rows = 0;
        while ((*cursor)->Next(&rec).value()) ++rows;
        if (rows != want_rows) {
          ADD_FAILURE() << "native at watermark " << w << ": " << rows
                        << " rows";
          ++mismatches;
        }
      }
    }
  }
  EXPECT_FALSE(writer_failed.load());
  EXPECT_EQ(mismatches, 0);
}

/// A slice scan lists its segments at open, so a flush that lands in a new
/// segment mid-scan cannot show its rows twice: they were collected as
/// dirty rows at open and the new segment is not visited. The serial slice
/// scan used to stream segments as it went and returned the 20 flushed
/// rows twice (540 rows); the parallel scan always returned 520.
TEST(DirtyReadTest, SliceScanRacingAFlushIntoANewSegmentSeesEachRowOnce) {
  for (int parallelism : {0, 4}) {
    OdhOptions options = Opts();
    options.segment_span = 100 * kMicrosPerSecond;
    options.query_parallelism = parallelism;
    OdhSystem odh(options);
    const int type = odh.DefineSchemaType("env", {"v"}).value();
    for (SourceId id = 1; id <= 2; ++id) {
      ODH_CHECK_OK(odh.RegisterSource(id, type, kMicrosPerSecond, true));
    }
    auto ingest = [&](int from, int to) {
      for (int i = from; i < to; ++i) {
        for (SourceId id = 1; id <= 2; ++id) {
          ODH_CHECK_OK(odh.Ingest({id, i * kMicrosPerSecond, {Value(i)}}));
        }
      }
    };
    ingest(0, 250);
    ODH_CHECK_OK(odh.FlushAll());
    ingest(300, 310);  // Unflushed: fewer points than a batch.

    auto cursor = odh.SliceQuery(type, 0, kMaxTimestamp);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    OperationalRecord rec;
    ASSERT_TRUE((*cursor)->Next(&rec).value());
    int64_t rows = 1;
    ODH_CHECK_OK(odh.FlushAll());  // Lands in the new segment [300, 400).
    while ((*cursor)->Next(&rec).value()) ++rows;
    EXPECT_EQ(rows, 520) << "query_parallelism " << parallelism;
  }
}

}  // namespace
}  // namespace odh::core
