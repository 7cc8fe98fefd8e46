// Dirty reads racing flushes: a query whose window ends at the raw ingest
// watermark must see every ingested point exactly once while a writer
// keeps ingesting and calling FlushAll. A historical scan lists the
// store's blobs and then collects the writer's unflushed rows; a flush
// landing between the two used to leave its blob's rows in neither (about
// one query in a hundred). Checked on the row path, the vectorized path,
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
  options.sql_metadata_router = false;  // Routing off the SQL engine.
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
      case 1:    // Vectorized scan.
      case 2: {  // Row scan.
        odh.config()->SetScanPathOptions(q % 4 == 1, true);
        auto r = session.Execute("SELECT ts, v" + window);
        odh.config()->SetScanPathOptions(true, true);
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

}  // namespace
}  // namespace odh::core
