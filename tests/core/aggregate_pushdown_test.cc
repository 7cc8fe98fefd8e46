#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "relational_twin.h"

namespace odh::core {
namespace {

/// 10 RTS blobs of 50 points each for source 1: one point per second
/// (SQL timestamp literals have second granularity), temp = i
/// (integer-valued, so double sums are FP-exact), load = 5. `m_r` is the
/// relational twin: the engine's own fold over the same rows.
class AggregatePushdownTest : public ::testing::Test {
 protected:
  AggregatePushdownTest() {
    OdhOptions options;
    options.batch_size = 50;
    odh_ = std::make_unique<OdhSystem>(options);
    type_ = odh_->DefineSchemaType("m", {"temp", "load"}).value();
    ODH_CHECK_OK(odh_->RegisterSource(1, type_, kMicrosPerSecond, true));
    for (int i = 0; i < 500; ++i) {
      ODH_CHECK_OK(odh_->Ingest({1, i * kMicrosPerSecond, {1.0 * i, 5.0}}));
    }
    ODH_CHECK_OK(odh_->FlushAll());
    MakeRelationalTwin(odh_.get(), "m_v", "m_r");
  }

  std::string TsLiteral(Timestamp ts) {
    return "'" + FormatTimestamp(ts) + "'";
  }

  std::unique_ptr<OdhSystem> odh_;
  int type_;
};

TEST_F(AggregatePushdownTest, FullyCoveredAggregatesDecodeZeroBlobs) {
  odh_->reader()->ResetStats();
  auto r = odh_->engine()->Execute(
      "SELECT COUNT(*), SUM(temp), AVG(temp), MIN(temp), MAX(temp) "
      "FROM m_v WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(500));
  EXPECT_EQ(r->rows[0][1], Datum::Double(124750.0));  // sum 0..499
  EXPECT_EQ(r->rows[0][2], Datum::Double(249.5));
  EXPECT_EQ(r->rows[0][3], Datum::Double(0.0));
  EXPECT_EQ(r->rows[0][4], Datum::Double(499.0));
  const ReadStats stats = odh_->reader()->stats();
  EXPECT_EQ(stats.blobs_decoded, 0);
  EXPECT_EQ(stats.blobs_skipped_by_summary, 10);
}

TEST_F(AggregatePushdownTest, BoundaryBlobsDecodeInteriorBlobsSkip) {
  // Seconds 25..474 half-cover the first and last blob; the eight
  // interior blobs are answered from summaries alone.
  odh_->reader()->ResetStats();
  auto r = odh_->engine()->Execute(
      "SELECT COUNT(*), SUM(temp), MIN(temp), MAX(temp) FROM m_v "
      "WHERE id = 1 AND ts BETWEEN " +
      TsLiteral(25 * kMicrosPerSecond) + " AND " +
      TsLiteral(474 * kMicrosPerSecond));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(450));
  EXPECT_EQ(r->rows[0][1], Datum::Double(112275.0));  // sum 25..474
  EXPECT_EQ(r->rows[0][2], Datum::Double(25.0));
  EXPECT_EQ(r->rows[0][3], Datum::Double(474.0));
  const ReadStats stats = odh_->reader()->stats();
  EXPECT_EQ(stats.blobs_decoded, 2);
  EXPECT_EQ(stats.blobs_skipped_by_summary, 8);
}

TEST_F(AggregatePushdownTest, ProvableTagFiltersSkipFilteredBlobs) {
  // temp BETWEEN 100 AND 299 exactly covers blobs 2..5 (values 100..299):
  // those four are provable by AllMatch; the other six are pruned by
  // MayMatch. Nothing decodes.
  odh_->reader()->ResetStats();
  auto r = odh_->engine()->Execute(
      "SELECT COUNT(*), SUM(temp) FROM m_v "
      "WHERE id = 1 AND temp BETWEEN 100 AND 299");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(200));
  EXPECT_EQ(r->rows[0][1], Datum::Double(39900.0));  // sum 100..299
  const ReadStats stats = odh_->reader()->stats();
  EXPECT_EQ(stats.blobs_decoded, 0);
  EXPECT_EQ(stats.blobs_skipped_by_summary, 4);
  EXPECT_EQ(stats.blobs_pruned, 6);
}

TEST_F(AggregatePushdownTest, UnprovableTagFiltersFallBackToDecode) {
  // [110, 180] straddles blob boundaries: blobs 2 and 3 (100..199)
  // overlap but are not fully inside, so they decode; the rest prune.
  odh_->reader()->ResetStats();
  auto r = odh_->engine()->Execute(
      "SELECT COUNT(*) FROM m_v WHERE id = 1 AND temp BETWEEN 110 AND 180");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(71));
  const ReadStats stats = odh_->reader()->stats();
  EXPECT_EQ(stats.blobs_decoded, 2);
  EXPECT_EQ(stats.blobs_skipped_by_summary, 0);
  EXPECT_EQ(stats.blobs_pruned, 8);
}

TEST_F(AggregatePushdownTest, DirtyRowsMergeIntoPushedAggregates) {
  // Five unflushed records must be visible (dirty-read isolation) even
  // when every on-disk blob is answered from its summary.
  for (int i = 500; i < 505; ++i) {
    ODH_CHECK_OK(odh_->Ingest({1, i * kMicrosPerSecond, {1.0 * i, 5.0}}));
  }
  odh_->reader()->ResetStats();
  auto r = odh_->engine()->Execute(
      "SELECT COUNT(*), MAX(temp) FROM m_v WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(505));
  EXPECT_EQ(r->rows[0][1], Datum::Double(504.0));
  const ReadStats stats = odh_->reader()->stats();
  EXPECT_EQ(stats.blobs_decoded, 0);
  EXPECT_EQ(stats.blobs_skipped_by_summary, 10);
}

TEST_F(AggregatePushdownTest, PushdownOffMatchesRowAtATimeExactly) {
  const std::string query =
      "SELECT COUNT(*), SUM(temp), AVG(temp), MIN(temp), MAX(temp), "
      "COUNT(load), SUM(load) FROM m_v WHERE id = 1 AND ts BETWEEN " +
      TsLiteral(25 * kMicrosPerSecond) + " AND " +
      TsLiteral(474 * kMicrosPerSecond);
  auto pushed = odh_->engine()->Execute(query);
  auto rows =
      odh_->engine()->Execute(ReplaceAll(query, "FROM m_v", "FROM m_r"));
  ASSERT_TRUE(pushed.ok());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(pushed->profile.path, "summary-pushdown");
  EXPECT_EQ(rows->profile.path, "row-scan");
  ASSERT_EQ(pushed->rows.size(), 1u);
  ASSERT_EQ(rows->rows.size(), 1u);
  for (size_t c = 0; c < rows->rows[0].size(); ++c) {
    EXPECT_EQ(pushed->rows[0][c], rows->rows[0][c]) << "column " << c;
  }
}

TEST_F(AggregatePushdownTest, LossyBlobsAnswerValueAggregatesFromDecode) {
  // Satellite regression: quantized (lossy) blobs widen their zone maps
  // and drop the exact bit, so SUM/MIN/MAX must come from decoded values
  // — never from the pre-quantization summary, which can disagree.
  OdhOptions options;
  options.batch_size = 50;
  OdhSystem lossy(options);
  CompressionSpec spec;
  spec.max_error = 0.5;
  int type = lossy.DefineSchemaType("m", {"temp"}, spec).value();
  ODH_CHECK_OK(lossy.RegisterSource(1, type, kMicrosPerSecond, true));
  for (int i = 0; i < 500; ++i) {
    // Fractional values so quantization genuinely moves them.
    ODH_CHECK_OK(lossy.Ingest({1, i * kMicrosPerSecond, {0.3 + 1.0 * i}}));
  }
  ODH_CHECK_OK(lossy.FlushAll());
  MakeRelationalTwin(&lossy, "m_v", "m_r");

  const char* query =
      "SELECT SUM(temp), MIN(temp), MAX(temp) FROM m_v WHERE id = 1";
  lossy.reader()->ResetStats();
  auto pushed = lossy.engine()->Execute(query);
  ASSERT_TRUE(pushed.ok());
  // Value aggregates on inexact summaries: every blob decoded.
  EXPECT_EQ(lossy.reader()->stats().blobs_skipped_by_summary, 0);
  EXPECT_EQ(lossy.reader()->stats().blobs_decoded, 10);

  // The engine's fold over the decoded rows, held in the twin.
  auto scanned =
      lossy.engine()->Execute(ReplaceAll(query, "FROM m_v", "FROM m_r"));
  ASSERT_TRUE(scanned.ok());
  for (size_t c = 0; c < scanned->rows[0].size(); ++c) {
    EXPECT_EQ(pushed->rows[0][c], scanned->rows[0][c]) << "column " << c;
  }

  // Counts stay summary-answerable under lossy compression: codecs
  // preserve which values are missing, only their magnitudes move.
  lossy.reader()->ResetStats();
  auto counts = lossy.engine()->Execute(
      "SELECT COUNT(*), COUNT(temp) FROM m_v WHERE id = 1");
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts->rows[0][0], Datum::Int64(500));
  EXPECT_EQ(counts->rows[0][1], Datum::Int64(500));
  EXPECT_EQ(lossy.reader()->stats().blobs_skipped_by_summary, 10);
  EXPECT_EQ(lossy.reader()->stats().blobs_decoded, 0);
}

TEST_F(AggregatePushdownTest, PathLabelMatchesExecutedPath) {
  // Satellite regression: the path label reported by EXPLAIN/profile must
  // describe the path that actually executed. It is derived from runtime
  // evidence (which aggregator produced the result, which counters moved),
  // so a planner choice that falls back at execution time cannot leave a
  // stale label behind.
  const std::string query =
      "SELECT COUNT(*), SUM(temp) FROM m_v WHERE id = 1";
  struct Case {
    std::string sql;
    const char* label;
  };
  // The pushdown answers the plain query; an expression argument or a
  // constraint it does not absorb folds over the virtual table's batches;
  // the relational twin folds over plain rows. All three agree.
  const std::vector<Case> cases = {
      {query, "summary-pushdown"},
      {"SELECT COUNT(*), SUM(temp + 0) FROM m_v WHERE id = 1",
       "vectorized-batch"},
      {ReplaceAll(query, "id = 1", "id BETWEEN 1 AND 1"), "vectorized-batch"},
      {ReplaceAll(query, "FROM m_v", "FROM m_r"), "row-scan"}};
  std::optional<Row> first;
  for (const Case& c : cases) {
    auto r = odh_->engine()->Execute(c.sql);
    ASSERT_TRUE(r.ok()) << c.sql;
    EXPECT_EQ(r->profile.path, c.label) << c.sql;
    EXPECT_NE(r->explain.find(std::string("path: ") + c.label),
              std::string::npos)
        << "explain missing its path line:\n"
        << r->explain;
    ASSERT_EQ(r->rows.size(), 1u) << c.sql;
    if (!first.has_value()) first = r->rows[0];
    EXPECT_EQ(r->rows[0], *first) << c.sql;
    // Each label is backed by the evidence that names it.
    const std::string label = c.label;
    if (label == "summary-pushdown") {
      EXPECT_GT(r->profile.blobs_skipped_by_summary, 0);
      EXPECT_EQ(r->profile.blobs_decoded, 0);
    } else if (label == "vectorized-batch") {
      EXPECT_GT(r->profile.batches, 0);
      EXPECT_EQ(r->profile.blobs_skipped_by_summary, 0);
    } else {
      EXPECT_EQ(r->profile.batches, 0);
      EXPECT_EQ(r->profile.blobs_decoded, 0);
    }
  }

  // EXPLAIN PROFILE reports the same label in its first metric row.
  auto ep = odh_->engine()->Execute("EXPLAIN PROFILE " + query);
  ASSERT_TRUE(ep.ok());
  ASSERT_EQ(ep->columns, (std::vector<std::string>{"metric", "value"}));
  ASSERT_FALSE(ep->rows.empty());
  EXPECT_EQ(ep->rows[0][0], Datum::String("path"));
  EXPECT_EQ(ep->rows[0][1], Datum::String("summary-pushdown"));
}

/// The three ways a single-table aggregate over `m_v` can run, as queries
/// returning the same answer: the summary pushdown (`query` itself), the
/// engine's fold over the virtual table's batches (the id equality turned
/// into a range the pushdown does not absorb, so every row is re-checked)
/// and the fold over the relational twin `m_r`.
std::vector<std::string> EveryPath(const std::string& query, SourceId id) {
  const std::string eq = "id = " + std::to_string(id);
  return {query,
          ReplaceAll(query, eq,
                     "id BETWEEN " + std::to_string(id) + " AND " +
                         std::to_string(id)),
          ReplaceAll(query, "FROM m_v", "FROM m_r")};
}

TEST(ScanPathParityTest, SumAvgOverAllNullTagIsNullOnEveryPath) {
  // Satellite regression: SUM/AVG over a tag that is NULL (NaN-encoded)
  // on every matching row must return SQL NULL — not 0 and not NaN — on
  // the summary fast path, the fold over batches, and the row fold alike.
  OdhOptions options;
  options.batch_size = 50;
  OdhSystem odh(options);
  int type = odh.DefineSchemaType("m", {"temp", "load"}).value();
  ODH_CHECK_OK(odh.RegisterSource(1, type, kMicrosPerSecond, true));
  constexpr double kHole = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 200; ++i) {
    // `load` is never present; `temp` keeps the blob otherwise normal.
    ODH_CHECK_OK(odh.Ingest({1, i * kMicrosPerSecond, {1.0 * i, kHole}}));
  }
  ODH_CHECK_OK(odh.FlushAll());
  MakeRelationalTwin(&odh, "m_v", "m_r");

  const std::string aggregates =
      "SELECT COUNT(*), COUNT(load), SUM(load), AVG(load), MIN(load), "
      "MAX(load) FROM m_v WHERE id = ";
  // All-NULL tag over the whole series, then empty input: no rows match.
  for (SourceId id : {SourceId{1}, SourceId{99}}) {
    const std::vector<std::string> paths =
        EveryPath(aggregates + std::to_string(id), id);
    for (size_t p = 0; p < paths.size(); ++p) {
      auto r = odh.engine()->Execute(paths[p]);
      ASSERT_TRUE(r.ok()) << paths[p];
      ASSERT_EQ(r->rows.size(), 1u) << paths[p];
      EXPECT_EQ(r->rows[0][0], Datum::Int64(id == 1 ? 200 : 0)) << paths[p];
      EXPECT_EQ(r->rows[0][1], Datum::Int64(0)) << paths[p];
      for (size_t c = 2; c < 6; ++c) {
        EXPECT_EQ(r->rows[0][c], Datum::Null())
            << paths[p] << " col " << c;
      }
    }
  }
}

TEST(ScanPathParityTest, NaNHolesMatchAcrossVectorizedAndRowScans) {
  // Filter parity satellite: rows whose tag is missing (NaN) must behave
  // as SQL NULL on the batch scan — never matching a range predicate —
  // exactly as NULLs do in the relational twin, and aggregates must agree
  // across the pushdown, the fold over batches and the row fold.
  OdhOptions options;
  options.batch_size = 50;
  OdhSystem odh(options);
  int type = odh.DefineSchemaType("m", {"temp", "load"}).value();
  ODH_CHECK_OK(odh.RegisterSource(1, type, kMicrosPerSecond, true));
  constexpr double kHole = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 200; ++i) {
    // Every third temp reading is missing; load is never projected below.
    double temp = (i % 3 == 0) ? kHole : 1.0 * i;
    ODH_CHECK_OK(odh.Ingest({1, i * kMicrosPerSecond, {temp, 2.0 * i}}));
  }
  ODH_CHECK_OK(odh.FlushAll());
  MakeRelationalTwin(&odh, "m_v", "m_r");

  const std::vector<std::string> queries = {
      "SELECT ts, temp FROM m_v WHERE id = 1 AND temp BETWEEN 50 AND 120",
      "SELECT COUNT(*), COUNT(temp), SUM(temp), MIN(temp), MAX(temp) "
      "FROM m_v WHERE id = 1 AND temp >= 90",
      "SELECT COUNT(*) FROM m_v WHERE id = 1 AND temp < 30",
  };
  for (const std::string& query : queries) {
    const std::vector<std::string> paths = EveryPath(query, 1);
    auto reference = odh.engine()->Execute(paths.back());
    ASSERT_TRUE(reference.ok()) << paths.back();
    ASSERT_FALSE(reference->rows.empty()) << paths.back();
    for (const std::string& path : paths) {
      auto r = odh.engine()->Execute(path);
      ASSERT_TRUE(r.ok()) << path;
      ASSERT_EQ(r->rows.size(), reference->rows.size()) << path;
      for (size_t row = 0; row < r->rows.size(); ++row) {
        for (size_t c = 0; c < r->rows[row].size(); ++c) {
          EXPECT_EQ(r->rows[row][c], reference->rows[row][c])
              << path << " row " << row << " col " << c;
        }
      }
    }
  }
}

TEST(AggregatePushdownMgTest, HistoricalIdQueriesNeverUseMgSummaries) {
  // MG blobs mix sources, so a per-id historical aggregate cannot be
  // answered from the blob-level summary; a slice aggregate can.
  OdhOptions options;
  OdhSystem odh(options);
  int type = odh.DefineSchemaType("lf", {"v"}).value();
  ODH_CHECK_OK(odh.RegisterSource(101, type, 10 * kMicrosPerSecond, false));
  ODH_CHECK_OK(odh.RegisterSource(102, type, 10 * kMicrosPerSecond, false));
  for (int i = 0; i < 20; ++i) {
    ODH_CHECK_OK(odh.Ingest({101, i * 10 * kMicrosPerSecond, {1.0}}));
    ODH_CHECK_OK(odh.Ingest({102, i * 10 * kMicrosPerSecond, {2.0}}));
  }
  ODH_CHECK_OK(odh.FlushAll());

  odh.reader()->ResetStats();
  auto by_id =
      odh.engine()->Execute("SELECT COUNT(*), SUM(v) FROM lf_v WHERE id = 101");
  ASSERT_TRUE(by_id.ok());
  EXPECT_EQ(by_id->rows[0][0], Datum::Int64(20));
  EXPECT_EQ(by_id->rows[0][1], Datum::Double(20.0));
  EXPECT_EQ(odh.reader()->stats().blobs_skipped_by_summary, 0);
  EXPECT_GT(odh.reader()->stats().blobs_decoded, 0);

  odh.reader()->ResetStats();
  auto slice = odh.engine()->Execute("SELECT COUNT(*), SUM(v) FROM lf_v");
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->rows[0][0], Datum::Int64(40));
  EXPECT_EQ(slice->rows[0][1], Datum::Double(60.0));
  EXPECT_EQ(odh.reader()->stats().blobs_decoded, 0);
  EXPECT_GT(odh.reader()->stats().blobs_skipped_by_summary, 0);
}

}  // namespace
}  // namespace odh::core
