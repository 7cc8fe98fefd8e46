#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "sql/session.h"

namespace odh::core {
namespace {

/// Returns the index of `name` in the result's column list, or -1.
int ColumnIndex(const sql::QueryResult& r, const std::string& name) {
  for (size_t i = 0; i < r.columns.size(); ++i) {
    if (r.columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

/// Finds the value of a metric row by name in a `SELECT * FROM odh_metrics`
/// result; fails the test if the metric is absent.
double MetricValue(const sql::QueryResult& r, const std::string& name) {
  const int name_col = ColumnIndex(r, "name");
  const int value_col = ColumnIndex(r, "value");
  EXPECT_GE(name_col, 0);
  EXPECT_GE(value_col, 0);
  for (const Row& row : r.rows) {
    if (row[static_cast<size_t>(name_col)] == Datum::String(name)) {
      return row[static_cast<size_t>(value_col)].double_value();
    }
  }
  ADD_FAILURE() << "metric not exported: " << name;
  return 0;
}

/// 500 points for one source: the same shape as the aggregate-pushdown
/// fixture, so summary/vectorized/row paths are all reachable.
class SystemTablesTest : public ::testing::Test {
 protected:
  SystemTablesTest() {
    OdhOptions options;
    options.batch_size = 50;
    odh_ = std::make_unique<OdhSystem>(options);
    type_ = odh_->DefineSchemaType("env", {"temp", "load"}).value();
    ODH_CHECK_OK(odh_->RegisterSource(1, type_, kMicrosPerSecond, true));
    for (int i = 0; i < 500; ++i) {
      ODH_CHECK_OK(odh_->Ingest({1, i * kMicrosPerSecond, {1.0 * i, 5.0}}));
    }
    ODH_CHECK_OK(odh_->FlushAll());
  }

  std::unique_ptr<OdhSystem> odh_;
  int type_;
};

TEST_F(SystemTablesTest, MetricsTableExportsLiveInstruments) {
  auto r = odh_->engine()->Execute("SELECT name, kind, value FROM odh_metrics");
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->rows.empty());

  // Gauges sample the components' real counters.
  EXPECT_EQ(MetricValue(*r, "odh.writer.points_ingested"), 500.0);
  EXPECT_EQ(MetricValue(*r, "odh.writer.blobs_flushed"), 10.0);
  EXPECT_GT(MetricValue(*r, "odh.disk.page_writes"), 0.0);

  // The writer flush histogram appears expanded and has observations.
  EXPECT_GT(MetricValue(*r, "odh.writer.flush_micros.count"), 0.0);
  EXPECT_GE(MetricValue(*r, "odh.writer.flush_micros.p95"),
            MetricValue(*r, "odh.writer.flush_micros.p50"));

  // Constraints push through the provider like any other table.
  auto one = odh_->engine()->Execute(
      "SELECT value FROM odh_metrics "
      "WHERE name = 'odh.writer.points_ingested'");
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->rows.size(), 1u);
  EXPECT_EQ(one->rows[0][0], Datum::Double(500.0));
}

TEST_F(SystemTablesTest, QueriesTableRecordsProfiles) {
  const std::string query =
      "SELECT COUNT(*), SUM(temp) FROM env_v WHERE id = 1";
  auto direct = odh_->engine()->Execute(query);
  ASSERT_TRUE(direct.ok());

  auto log = odh_->engine()->Execute("SELECT * FROM odh_queries");
  ASSERT_TRUE(log.ok());
  const int stmt_col = ColumnIndex(*log, "statement");
  const int path_col = ColumnIndex(*log, "path");
  const int skipped_col = ColumnIndex(*log, "blobs_skipped_by_summary");
  const int total_col = ColumnIndex(*log, "total_micros");
  ASSERT_GE(stmt_col, 0);
  ASSERT_GE(path_col, 0);
  ASSERT_GE(skipped_col, 0);
  ASSERT_GE(total_col, 0);
  bool found = false;
  for (const Row& row : log->rows) {
    if (row[static_cast<size_t>(stmt_col)] != Datum::String(query)) continue;
    found = true;
    // The logged profile matches the one returned with the result.
    EXPECT_EQ(row[static_cast<size_t>(path_col)],
              Datum::String(direct->profile.path));
    EXPECT_EQ(row[static_cast<size_t>(skipped_col)],
              Datum::Int64(direct->profile.blobs_skipped_by_summary));
    EXPECT_GT(row[static_cast<size_t>(total_col)].double_value(), 0.0);
  }
  EXPECT_TRUE(found) << "statement missing from odh_queries: " << query;

  // The odh_queries scan itself is logged once it finishes.
  auto again = odh_->engine()->Execute("SELECT * FROM odh_queries");
  ASSERT_TRUE(again.ok());
  found = false;
  for (const Row& row : again->rows) {
    if (row[static_cast<size_t>(stmt_col)] ==
        Datum::String("SELECT * FROM odh_queries")) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

/// odh_queries holds the client's statements only: routing a query runs no
/// statement of its own, so the bounded ring is not shared with internal
/// metadata lookups.
TEST_F(SystemTablesTest, QueriesTableHoldsOnlyClientStatements) {
  const size_t before = odh_->engine()->RecentQueries().size();
  sql::Session session(odh_->engine());
  int n = 0;
  auto run = [&n](Result<sql::QueryResult> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ++n;
  };
  run(session.Execute("SELECT * FROM env_v WHERE id = 1"));
  run(session.Execute("SELECT COUNT(*), AVG(temp) FROM env_v WHERE id = 1"));
  run(session.Execute(
      "SELECT ts, temp FROM env_v WHERE id = 1 ORDER BY ts DESC LIMIT 3"));
  run(session.Execute("SELECT MAX(load) FROM env_v"));
  auto prepared = session.Prepare(
      "SELECT ts, temp FROM env_v WHERE id = ? ORDER BY ts DESC LIMIT 1");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  for (int i = 0; i < 3; ++i) {
    run(session.ExecutePrepared(*prepared, {Datum::Int64(1)}));
  }
  run(odh_->engine()->Execute("SELECT COUNT(*) FROM env_v WHERE id = 1"));

  const std::vector<sql::QueryProfile> recent =
      odh_->engine()->RecentQueries();
  ASSERT_LT(before + static_cast<size_t>(n), 128u)  // The ring's capacity.
      << "the ring must not wrap";
  EXPECT_EQ(recent.size(), before + static_cast<size_t>(n));
  for (const sql::QueryProfile& p : recent) {
    EXPECT_EQ(p.statement.find("odh$sources"), std::string::npos)
        << p.statement;
  }
}

TEST_F(SystemTablesTest, StorageTableReportsPartitionStats) {
  auto r = odh_->engine()->Execute(
      "SELECT * FROM odh_storage WHERE container = 'rts'");
  ASSERT_TRUE(r.ok());
  const int type_col = ColumnIndex(*r, "schema_type");
  const int name_col = ColumnIndex(*r, "type_name");
  const int blobs_col = ColumnIndex(*r, "blob_count");
  const int points_col = ColumnIndex(*r, "point_count");
  const int blob_bytes_col = ColumnIndex(*r, "blob_bytes");
  const int raw_col = ColumnIndex(*r, "raw_bytes");
  const int ratio_col = ColumnIndex(*r, "compression_ratio");
  ASSERT_EQ(r->rows.size(), 1u);
  const Row& row = r->rows[0];
  EXPECT_EQ(row[static_cast<size_t>(type_col)], Datum::Int64(type_));
  EXPECT_EQ(row[static_cast<size_t>(name_col)], Datum::String("env"));
  EXPECT_EQ(row[static_cast<size_t>(blobs_col)], Datum::Int64(10));
  EXPECT_EQ(row[static_cast<size_t>(points_col)], Datum::Int64(500));
  // Raw row-format size: 8 bytes each for ts, temp, load per point.
  EXPECT_EQ(row[static_cast<size_t>(raw_col)], Datum::Int64(500 * 24));
  const int64_t blob_bytes =
      row[static_cast<size_t>(blob_bytes_col)].int64_value();
  EXPECT_GT(blob_bytes, 0);
  EXPECT_NEAR(row[static_cast<size_t>(ratio_col)].double_value(),
              static_cast<double>(500 * 24) / static_cast<double>(blob_bytes),
              1e-9);
}

TEST_F(SystemTablesTest, ExplainProfileReturnsMetricRows) {
  auto r = odh_->engine()->Execute(
      "explain profile SELECT COUNT(*) FROM env_v WHERE id = 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->columns, (std::vector<std::string>{"metric", "value"}));
  ASSERT_EQ(r->rows.size(), 16u);
  EXPECT_EQ(r->rows[0][0], Datum::String("path"));
  EXPECT_EQ(r->rows[0][1], Datum::String("summary-pushdown"));
  bool saw_total = false;
  bool saw_parallel = false;
  bool saw_cache = false;
  bool saw_spill = false;
  for (const Row& row : r->rows) {
    if (row[0] == Datum::String("rows_returned")) {
      EXPECT_EQ(row[1], Datum::Int64(1));
    }
    if (row[0] == Datum::String("blobs_skipped_by_summary")) {
      EXPECT_EQ(row[1], Datum::Int64(10));
    }
    if (row[0] == Datum::String("segments_scanned_parallel")) {
      saw_parallel = true;  // Serial fixture: present but zero.
      EXPECT_EQ(row[1], Datum::Int64(0));
    }
    if (row[0] == Datum::String("blob_cache_hits")) {
      saw_cache = true;  // Cache disabled here: present but zero.
      EXPECT_EQ(row[1], Datum::Int64(0));
    }
    if (row[0] == Datum::String("spill_runs")) {
      saw_spill = true;  // Summary pushdown never sorts: present but zero.
      EXPECT_EQ(row[1], Datum::Int64(0));
    }
    if (row[0] == Datum::String("total_micros")) {
      saw_total = true;
      EXPECT_GT(row[1].double_value(), 0.0);
    }
  }
  EXPECT_TRUE(saw_total);
  EXPECT_TRUE(saw_parallel);
  EXPECT_TRUE(saw_cache);
  EXPECT_TRUE(saw_spill);

  // Only SELECT can be profiled.
  auto bad = odh_->engine()->Execute(
      "EXPLAIN PROFILE CREATE TABLE t (x INT)");
  EXPECT_FALSE(bad.ok());
}

TEST_F(SystemTablesTest, PerQueryCountersAreScopedToTheStatement) {
  // Two identical statements must report the same per-query counters:
  // the profile is scoped to its statement, not a view of global state.
  const std::string query =
      "SELECT SUM(temp) FROM env_v WHERE id = 1 AND temp BETWEEN 110 AND 180";
  auto first = odh_->engine()->Execute(query);
  auto second = odh_->engine()->Execute(query);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->profile.blobs_decoded, second->profile.blobs_decoded);
  EXPECT_EQ(first->profile.blobs_pruned, second->profile.blobs_pruned);
  EXPECT_EQ(first->profile.rows_scanned, second->profile.rows_scanned);
  EXPECT_GT(first->profile.blobs_decoded, 0);
}

/// Parallel scans and the decoded-blob cache share the fixture's counters:
/// these tests pin down the accounting contract — parallel workers feed the
/// same atomics, per-query counters stay scoped to their statement, and the
/// pruning/summary counters are counted exactly once no matter which driver
/// ran the scan.
class ParallelObservabilityTest : public ::testing::Test {
 protected:
  ParallelObservabilityTest() {
    OdhOptions options;
    options.batch_size = 25;
    options.segment_span = 100 * kMicrosPerSecond;  // 5 segments.
    options.query_parallelism = 4;
    options.blob_cache_bytes = 8u << 20;
    odh_ = std::make_unique<OdhSystem>(options);
    type_ = odh_->DefineSchemaType("env", {"temp", "load"}).value();
    for (SourceId id = 1; id <= 2; ++id) {
      ODH_CHECK_OK(odh_->RegisterSource(id, type_, kMicrosPerSecond, true));
    }
    for (int i = 0; i < 500; ++i) {
      for (SourceId id = 1; id <= 2; ++id) {
        ODH_CHECK_OK(odh_->Ingest(
            {id, i * kMicrosPerSecond, {1.0 * i + id, 5.0 * id}}));
      }
    }
    ODH_CHECK_OK(odh_->FlushAll());
  }

  /// Runs `sql` with the given parallelism cap and returns its profile.
  sql::QueryProfile Profiled(int parallelism, const std::string& sql) {
    odh_->config()->SetQueryParallelism(parallelism);
    auto r = odh_->engine()->Execute(sql);
    ODH_CHECK_OK(r.status());
    return r->profile;
  }

  std::unique_ptr<OdhSystem> odh_;
  int type_ = 0;
};

TEST_F(ParallelObservabilityTest, ParallelCountersMatchSerialNoDoubleCount) {
  // A range query touching 3 of the 5 segments, so both drivers prune the
  // same two segments; the parallel driver must count each pruned segment
  // and each decoded blob exactly once even though its workers share the
  // per-query atomics.
  const std::string sql =
      "SELECT ts, temp FROM env_v WHERE id = 1 AND ts >= " +
      std::to_string(120 * kMicrosPerSecond) + " AND ts <= " +
      std::to_string(380 * kMicrosPerSecond);
  const sql::QueryProfile serial = Profiled(0, sql);
  const sql::QueryProfile parallel = Profiled(4, sql);
  EXPECT_EQ(serial.rows_returned, parallel.rows_returned);
  EXPECT_EQ(serial.rows_scanned, parallel.rows_scanned);
  EXPECT_EQ(serial.blobs_pruned, parallel.blobs_pruned);
  EXPECT_EQ(serial.segments_pruned, parallel.segments_pruned);
  EXPECT_EQ(serial.blobs_skipped_by_summary,
            parallel.blobs_skipped_by_summary);
  EXPECT_EQ(serial.segments_scanned_parallel, 0);
  EXPECT_GT(parallel.segments_scanned_parallel, 0);
}

TEST_F(ParallelObservabilityTest, SliceScanPruningCountedOnceUnderParallel) {
  // No id constraint: the slice path lists surviving segments up front
  // (SliceSegments), one unit each; the pruning count must be identical
  // whether the units run inline or on the pool. The range spans two
  // segments, so the parallel run has two units to dispatch.
  const std::string sql =
      "SELECT ts, id, temp FROM env_v WHERE ts >= " +
      std::to_string(220 * kMicrosPerSecond) + " AND ts <= " +
      std::to_string(320 * kMicrosPerSecond);
  const sql::QueryProfile serial = Profiled(0, sql);
  const sql::QueryProfile parallel = Profiled(4, sql);
  EXPECT_EQ(serial.rows_returned, parallel.rows_returned);
  EXPECT_EQ(serial.segments_pruned, parallel.segments_pruned);
  EXPECT_GT(serial.segments_pruned, 0);
  EXPECT_GT(parallel.segments_scanned_parallel, 0);

  // A slice inside one segment is a single unit: it runs inline on the
  // cursor thread even under a parallelism cap, and prunes the same.
  const std::string one_segment =
      "SELECT ts, id, temp FROM env_v WHERE ts >= " +
      std::to_string(220 * kMicrosPerSecond) + " AND ts <= " +
      std::to_string(280 * kMicrosPerSecond);
  const sql::QueryProfile inline_serial = Profiled(0, one_segment);
  const sql::QueryProfile inline_capped = Profiled(4, one_segment);
  EXPECT_EQ(inline_serial.rows_returned, inline_capped.rows_returned);
  EXPECT_EQ(inline_serial.segments_pruned, inline_capped.segments_pruned);
  EXPECT_EQ(inline_capped.segments_scanned_parallel, 0);
}

TEST_F(ParallelObservabilityTest, WarmCacheRepeatDecodesNothing) {
  const std::string sql =
      "SELECT ts, temp, load FROM env_v WHERE id = 2 AND ts >= " +
      std::to_string(50 * kMicrosPerSecond) + " AND ts <= " +
      std::to_string(450 * kMicrosPerSecond);
  const sql::QueryProfile cold = Profiled(0, sql);
  ASSERT_GT(cold.blobs_decoded, 0);
  // The warm run goes parallel: cache entries are shared across execution
  // paths, so the parallel workers hit what the serial run decoded.
  const sql::QueryProfile warm = Profiled(4, sql);
  EXPECT_EQ(warm.rows_returned, cold.rows_returned);
  // Every blob the cold run decoded now hits; nothing decodes again.
  EXPECT_EQ(warm.blobs_decoded, 0);
  EXPECT_EQ(warm.blob_cache_hits, cold.blobs_decoded);

  // The instance-wide gauges see the same story.
  auto metrics = odh_->engine()->Execute("SELECT * FROM odh_metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(MetricValue(*metrics, "odh.blob_cache.hits"),
            static_cast<double>(cold.blobs_decoded));
  EXPECT_GT(MetricValue(*metrics, "odh.blob_cache.bytes"), 0.0);
  EXPECT_GT(MetricValue(*metrics, "odh.parallel_scan.tasks"), 0.0);
}

TEST_F(ParallelObservabilityTest, PerQueryCountersScopedUnderParallelism) {
  // Twin statements under the parallel driver report identical per-query
  // counters: worker tasks must not leak counts across statements. (The
  // cache warms on the first run, so compare run 2 against run 3.)
  const std::string sql =
      "SELECT ts, temp FROM env_v WHERE id = 1 AND ts >= " +
      std::to_string(100 * kMicrosPerSecond) + " AND ts <= " +
      std::to_string(400 * kMicrosPerSecond);
  (void)Profiled(4, sql);
  const sql::QueryProfile second = Profiled(4, sql);
  const sql::QueryProfile third = Profiled(4, sql);
  EXPECT_EQ(second.rows_scanned, third.rows_scanned);
  EXPECT_EQ(second.blobs_decoded, third.blobs_decoded);
  EXPECT_EQ(second.blob_cache_hits, third.blob_cache_hits);
  EXPECT_EQ(second.segments_scanned_parallel,
            third.segments_scanned_parallel);
  EXPECT_GT(second.blob_cache_hits, 0);
}

/// The observability surface must be safe to read while other threads
/// ingest and scan. The SQL runs on this thread; the system-table providers
/// snapshot their sources, so their cursors race with nothing.
TEST(ObservabilityConcurrencyTest, SystemTablesReadCleanlyDuringIngest) {
  OdhOptions options;
  options.batch_size = 64;
  OdhSystem odh(options);
  int type = odh.DefineSchemaType("env", {"temp"}).value();
  constexpr int kSources = 3;
  constexpr int kPointsPerSource = 3000;
  for (int s = 1; s <= kSources; ++s) {
    ODH_CHECK_OK(odh.RegisterSource(s, type, kMicrosPerSecond, true));
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  // One ingest thread per source (per-source monotonicity holds).
  for (int s = 1; s <= kSources; ++s) {
    workers.emplace_back([&odh, s] {
      for (int i = 0; i < kPointsPerSource; ++i) {
        ODH_CHECK_OK(odh.Ingest({s, i * kMicrosPerSecond, {1.0 * i}}));
      }
    });
  }
  // One native-scan thread hammering the read path concurrently.
  workers.emplace_back([&odh, type, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      auto cursor = odh.HistoricalQuery(type, 1, 0,
                                        kPointsPerSource * kMicrosPerSecond);
      if (!cursor.ok()) continue;
      OperationalRecord rec;
      while (true) {
        auto next = (*cursor)->Next(&rec);
        if (!next.ok() || !*next) break;
      }
    }
  });

  // Meanwhile: SQL reads of every system table plus EXPLAIN PROFILE, all
  // from this thread. Each must succeed and return live (non-empty) data
  // mid-ingest.
  for (int round = 0; round < 50; ++round) {
    auto metrics = odh.engine()->Execute("SELECT * FROM odh_metrics");
    ASSERT_TRUE(metrics.ok());
    ASSERT_FALSE(metrics->rows.empty());
    auto storage = odh.engine()->Execute("SELECT * FROM odh_storage");
    ASSERT_TRUE(storage.ok());
    ASSERT_FALSE(storage->rows.empty());
    auto profiled = odh.engine()->Execute(
        "EXPLAIN PROFILE SELECT COUNT(*) FROM env_v");
    ASSERT_TRUE(profiled.ok());
    ASSERT_FALSE(profiled->rows.empty());
    auto queries = odh.engine()->Execute("SELECT * FROM odh_queries");
    ASSERT_TRUE(queries.ok());
    ASSERT_FALSE(queries->rows.empty());
  }

  for (size_t i = 0; i + 1 < workers.size(); ++i) workers[i].join();
  done.store(true, std::memory_order_relaxed);
  workers.back().join();
  ODH_CHECK_OK(odh.FlushAll());

  // After the dust settles the gauges account for every ingested point.
  auto metrics = odh.engine()->Execute("SELECT * FROM odh_metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(MetricValue(*metrics, "odh.writer.points_ingested"),
            static_cast<double>(kSources * kPointsPerSource));
  auto count = odh.engine()->Execute("SELECT COUNT(*) FROM env_v");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0], Datum::Int64(kSources * kPointsPerSource));
}

}  // namespace
}  // namespace odh::core
