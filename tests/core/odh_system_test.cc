#include "core/odh.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/logging.h"
#include "common/random.h"

namespace odh::core {
namespace {

OdhOptions TestOptions() {
  OdhOptions options;
  options.batch_size = 16;
  options.mg_group_size = 8;
  return options;
}

/// End-to-end fixture: one high-frequency environment schema type plus a
/// relational sensor_info table (the paper's running example).
class OdhSystemTest : public ::testing::Test {
 protected:
  OdhSystemTest() : odh_(TestOptions()) {
    type_ = odh_.DefineSchemaType("environ_data",
                                  {"temperature", "wind"}).value();
    for (SourceId id = 1; id <= 4; ++id) {
      ODH_CHECK_OK(odh_.RegisterSource(id, type_, kMicrosPerSecond, true));
    }
    Exec("CREATE TABLE sensor_info (id BIGINT, area VARCHAR)");
    Exec("INSERT INTO sensor_info VALUES (1,'S1'), (2,'S1'), (3,'S2'), "
         "(4,'S2')");
    // 100 seconds of data for each sensor.
    for (int i = 0; i < 100; ++i) {
      for (SourceId id = 1; id <= 4; ++id) {
        OperationalRecord r{id, i * kMicrosPerSecond,
                            {20.0 + id + 0.01 * i, 3.0 * id}};
        ODH_CHECK_OK(odh_.Ingest(r));
      }
    }
    ODH_CHECK_OK(odh_.FlushAll());
  }

  sql::QueryResult Exec(const std::string& sql) {
    auto result = odh_.engine()->Execute(sql);
    if (!result.ok()) {
      ADD_FAILURE() << sql << " -> " << result.status().ToString();
      return sql::QueryResult{};
    }
    return std::move(result).value();
  }

  OdhSystem odh_;
  int type_;
};

TEST_F(OdhSystemTest, VirtualTableExposesAllData) {
  sql::QueryResult r = Exec("SELECT COUNT(*) FROM environ_data_v");
  EXPECT_EQ(r.rows[0][0], Datum::Int64(400));
}

TEST_F(OdhSystemTest, HistoricalQueryThroughSql) {
  sql::QueryResult r = Exec("SELECT * FROM environ_data_v WHERE id = 2");
  EXPECT_EQ(r.rows.size(), 100u);
  for (const Row& row : r.rows) EXPECT_EQ(row[0], Datum::Int64(2));
}

TEST_F(OdhSystemTest, SliceQueryThroughSql) {
  sql::QueryResult r = Exec(
      "SELECT id, ts, temperature FROM environ_data_v WHERE ts BETWEEN "
      "'1970-01-01 00:00:10' AND '1970-01-01 00:00:19'");
  EXPECT_EQ(r.rows.size(), 4u * 10);
}

TEST_F(OdhSystemTest, PaperFusionQuery) {
  // The paper's §3 example: virtual table joined with sensor_info.
  sql::QueryResult r = Exec(
      "SELECT ts, temperature, wind FROM environ_data_v a, sensor_info b "
      "WHERE a.id = b.id AND b.area = 'S1' AND ts BETWEEN "
      "'1970-01-01 00:00:00' AND '1970-01-01 00:00:49'");
  // Sensors 1 and 2, 50 seconds each.
  EXPECT_EQ(r.rows.size(), 100u);
}

TEST_F(OdhSystemTest, TagValuesSurviveRoundTrip) {
  sql::QueryResult r = Exec(
      "SELECT temperature, wind FROM environ_data_v WHERE id = 3 AND "
      "ts = '1970-01-01 00:00:42'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].double_value(), 20.0 + 3 + 0.42);
  EXPECT_DOUBLE_EQ(r.rows[0][1].double_value(), 9.0);
}

TEST_F(OdhSystemTest, AggregationOverVirtualTable) {
  sql::QueryResult r = Exec(
      "SELECT id, AVG(wind) FROM environ_data_v GROUP BY id ORDER BY id");
  ASSERT_EQ(r.rows.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(r.rows[i][1].double_value(), 3.0 * (i + 1));
  }
}

TEST_F(OdhSystemTest, DirtyReadSeesUnflushedData) {
  OperationalRecord r{1, 200 * kMicrosPerSecond, {99.0, 98.0}};
  ODH_CHECK_OK(odh_.Ingest(r));  // Stays in the writer buffer (batch 16).
  sql::QueryResult q = Exec(
      "SELECT temperature FROM environ_data_v WHERE id = 1 AND ts > "
      "'1970-01-01 00:03:00'");
  ASSERT_EQ(q.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(q.rows[0][0].double_value(), 99.0);
}

TEST_F(OdhSystemTest, NativeHistoricalMatchesSql) {
  auto cursor = odh_.HistoricalQuery(type_, 2, 0, kMaxTimestamp).value();
  int count = 0;
  OperationalRecord record;
  double temp_sum = 0;
  while (cursor->Next(&record).value()) {
    EXPECT_EQ(record.id, 2);
    temp_sum += record.tags[0];
    ++count;
  }
  EXPECT_EQ(count, 100);
  sql::QueryResult r =
      Exec("SELECT SUM(temperature) FROM environ_data_v WHERE id = 2");
  EXPECT_NEAR(r.rows[0][0].double_value(), temp_sum, 1e-9);
}

TEST_F(OdhSystemTest, NativeSliceMatchesSql) {
  Timestamp lo = 10 * kMicrosPerSecond, hi = 12 * kMicrosPerSecond;
  auto cursor = odh_.SliceQuery(type_, lo, hi).value();
  int count = 0;
  OperationalRecord record;
  while (cursor->Next(&record).value()) ++count;
  EXPECT_EQ(count, 12);  // 4 sensors x 3 seconds.
}

TEST_F(OdhSystemTest, WantedTagsLimitDecoding) {
  auto cursor =
      odh_.HistoricalQuery(type_, 1, 0, kMaxTimestamp, {1}).value();
  OperationalRecord record;
  ASSERT_TRUE(cursor->Next(&record).value());
  EXPECT_TRUE(std::isnan(record.tags[0]));  // temperature not decoded.
  EXPECT_FALSE(std::isnan(record.tags[1]));
}

TEST_F(OdhSystemTest, ProjectionPushdownReducesBlobBytes) {
  odh_.reader()->ResetStats();
  Exec("SELECT wind FROM environ_data_v WHERE id = 1");
  int64_t narrow = odh_.reader()->stats().blob_bytes_read;
  // blob_bytes_read counts whole blobs fetched; the tag-oriented saving
  // shows up in decode work, which we proxy by comparing a full-row query's
  // decoded output. Here we simply check both paths return data and the
  // stats counter moves.
  EXPECT_GT(narrow, 0);
}

/// The paper's per-query SQL metadata lookup, reached through the router's
/// bench seam: it answers as the in-memory route does, and each route runs
/// its own statement against odh$sources.
TEST_F(OdhSystemTest, SqlRouterModeWorksAndCountsLookups) {
  OdhSystem odh(TestOptions());
  int type = odh.DefineSchemaType("t", {"v"}).value();
  int other = odh.DefineSchemaType("u", {"v"}).value();
  ODH_CHECK_OK(odh.RegisterSource(1, type, kMicrosPerSecond, true));
  ODH_CHECK_OK(odh.RegisterSource(2, other, kMicrosPerSecond, true));
  for (int i = 0; i < 20; ++i) {
    ODH_CHECK_OK(odh.Ingest({1, i * kMicrosPerSecond, {1.0 * i}}));
    ODH_CHECK_OK(odh.Ingest({2, i * kMicrosPerSecond, {1.0 * i}}));
  }
  ODH_CHECK_OK(odh.FlushAll());
  odh.router()->SetSqlMetadataLookup(true);
  auto router_statements = [&odh] {
    int n = 0;
    for (const sql::QueryProfile& p : odh.engine()->RecentQueries()) {
      if (p.statement.find("odh$sources") != std::string::npos) ++n;
    }
    return n;
  };
  const int64_t lookups = odh.router()->lookups();
  auto r = odh.engine()->Execute("SELECT COUNT(*) FROM t_v WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(20));
  EXPECT_EQ(odh.router()->lookups(), lookups + 1);
  EXPECT_EQ(router_statements(), 1);
  // Another type's source answers empty, as on the in-memory route.
  auto empty = odh.engine()->Execute("SELECT COUNT(*) FROM t_v WHERE id = 2");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->rows[0][0], Datum::Int64(0));
  EXPECT_TRUE(odh.HistoricalQuery(type, 2, 0, kMaxTimestamp)
                  .status()
                  .IsNotFound());
  EXPECT_EQ(router_statements(), 3);

  odh.router()->SetSqlMetadataLookup(false);
  r = odh.engine()->Execute("SELECT COUNT(*) FROM t_v WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(20));
  EXPECT_EQ(router_statements(), 3);
}

TEST_F(OdhSystemTest, UnregisteredSourceHistoricalFails) {
  EXPECT_FALSE(odh_.HistoricalQuery(type_, 99, 0, kMaxTimestamp).ok());
}

/// A source registered under another schema type holds no rows of this
/// one: every virtual-table path answers empty, as for an unregistered id,
/// and the native historical query fails as it does for one.
TEST_F(OdhSystemTest, AnotherSchemaTypesSourceAnswersEmpty) {
  int other = odh_.DefineSchemaType("other", {"v"}).value();
  ODH_CHECK_OK(odh_.RegisterSource(5, other, kMicrosPerSecond, true));
  for (int i = 0; i < 40; ++i) {
    ODH_CHECK_OK(odh_.Ingest({5, i * kMicrosPerSecond, {1.0 * i}}));
  }
  ODH_CHECK_OK(odh_.FlushAll());
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM other_v WHERE id = 5").rows[0][0],
            Datum::Int64(40));
  for (SourceId id : {SourceId{5}, SourceId{99}}) {
    SCOPED_TRACE(id);
    const std::string where = " WHERE id = " + std::to_string(id);
    EXPECT_TRUE(Exec("SELECT * FROM environ_data_v" + where).rows.empty());
    EXPECT_TRUE(Exec("SELECT ts, wind FROM environ_data_v" + where +
                     " ORDER BY ts DESC LIMIT 1")
                    .rows.empty());
    sql::QueryResult agg =
        Exec("SELECT COUNT(*), AVG(temperature), MAX(wind) "
             "FROM environ_data_v" + where);
    ASSERT_EQ(agg.rows.size(), 1u);
    EXPECT_EQ(agg.rows[0][0], Datum::Int64(0));
    EXPECT_TRUE(agg.rows[0][1].is_null());
    EXPECT_TRUE(agg.rows[0][2].is_null());
    EXPECT_TRUE(odh_.HistoricalQuery(type_, id, 0, kMaxTimestamp)
                    .status()
                    .IsNotFound());
  }
}

/// Two conjuncts on one column must both hold: the planner may not let an
/// `=` overwrite or outrank the other conjunct. Counts are literal, not
/// parity with a relational twin (the twin shares the planner).
TEST_F(OdhSystemTest, ContradictoryConjunctsOnOneColumnReturnNoRows) {
  const char* kContradictions[] = {
      "id = 1 AND id = 2",
      "id = 2 AND id = 1",
      "id = 1 AND id >= 2",
      "id >= 2 AND id = 1",
      "ts = '1970-01-01 00:00:42' AND ts > '1970-01-01 00:00:50'",
      "ts > '1970-01-01 00:00:50' AND ts = '1970-01-01 00:00:42'",
      "id = 3 AND ts = '1970-01-01 00:00:42' AND ts < '1970-01-01 00:00:42'",
      // Crossing bounds intersect to an empty range.
      "ts > '1970-01-01 00:00:50' AND ts < '1970-01-01 00:00:40'",
      "id = 2 AND ts >= '1970-01-01 00:00:42' AND ts < '1970-01-01 00:00:42'",
      "id > 3 AND id < 2",
  };
  for (const char* where : kContradictions) {
    SCOPED_TRACE(where);
    const std::string tail = std::string(" FROM environ_data_v WHERE ") + where;
    EXPECT_EQ(Exec("SELECT COUNT(*)" + tail).rows[0][0], Datum::Int64(0));
    EXPECT_TRUE(Exec("SELECT *" + tail).rows.empty());
    EXPECT_TRUE(Exec("SELECT ts" + tail + " ORDER BY ts DESC LIMIT 1")
                    .rows.empty());
  }
  // Redundant conjuncts keep every row they both admit.
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM environ_data_v WHERE id = 1 AND "
                 "id = 1").rows[0][0],
            Datum::Int64(100));
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM environ_data_v WHERE id = 1 AND "
                 "id >= 1").rows[0][0],
            Datum::Int64(100));
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM environ_data_v WHERE "
                 "ts = '1970-01-01 00:00:42' AND "
                 "ts >= '1970-01-01 00:00:42'").rows[0][0],
            Datum::Int64(4));
}

TEST_F(OdhSystemTest, CostModelScalesWithRangeAndTags) {
  OdhCostModel* model = odh_.cost_model();
  auto full = model->EstimateHistorical(type_, 1, 0, kMaxTimestamp, 1.0);
  auto half = model->EstimateHistorical(type_, 1, 0,
                                        50 * kMicrosPerSecond, 1.0);
  EXPECT_GT(full.bytes, 0);
  EXPECT_LT(half.bytes, full.bytes);
  auto one_tag = model->EstimateHistorical(type_, 1, 0, kMaxTimestamp, 0.5);
  EXPECT_LT(one_tag.bytes, full.bytes);
  auto slice = model->EstimateSlice(type_, 0, kMaxTimestamp, 1.0);
  EXPECT_GT(slice.bytes, full.bytes);  // All sources vs one.
}

TEST(OdhStorageTest, StorageSmallerThanRelationalBaseline) {
  // Enough data that fixed page overheads wash out: 8 sensors x 2000 s.
  OdhSystem odh_(TestOptions());
  int type_ = odh_.DefineSchemaType("environ_data",
                                    {"temperature", "wind"}).value();
  for (SourceId id = 1; id <= 8; ++id) {
    ODH_CHECK_OK(odh_.RegisterSource(id, type_, kMicrosPerSecond, true));
  }
  for (int i = 0; i < 2000; ++i) {
    for (SourceId id = 1; id <= 8; ++id) {
      ODH_CHECK_OK(odh_.Ingest({id, i * kMicrosPerSecond,
                                {20.0 + id + 0.01 * i, 3.0 * id}}));
    }
  }
  ODH_CHECK_OK(odh_.FlushAll());

  // Same data into an RDB-profile relational table with the paper's two
  // indexes; ODH storage must be several times smaller.
  relational::Database rdb(relational::EngineProfile::Rdb());
  relational::Table* table =
      rdb.CreateTable("obs", relational::Schema(
                                 {{"ts", DataType::kTimestamp},
                                  {"id", DataType::kInt64},
                                  {"temperature", DataType::kDouble},
                                  {"wind", DataType::kDouble}}))
          .value();
  ODH_CHECK_OK(table->AddIndex({"by_ts", {0}}));
  ODH_CHECK_OK(table->AddIndex({"by_id", {1}}));
  for (int i = 0; i < 2000; ++i) {
    for (SourceId id = 1; id <= 8; ++id) {
      table
          ->Insert({Datum::Time(i * kMicrosPerSecond), Datum::Int64(id),
                    Datum::Double(20.0 + id + 0.01 * i),
                    Datum::Double(3.0 * id)})
          .value();
    }
  }
  ODH_CHECK_OK(table->Commit());
  EXPECT_LT(odh_.storage_bytes() * 2, rdb.TotalBytesStored());
}

TEST_F(OdhSystemTest, LowFrequencyEndToEnd) {
  OdhSystem odh(TestOptions());
  int type = odh.DefineSchemaType("meters", {"kwh"}).value();
  for (SourceId id = 0; id < 20; ++id) {
    ODH_CHECK_OK(
        odh.RegisterSource(id, type, 15 * kMicrosPerMinute, true));
  }
  for (int reading = 0; reading < 4; ++reading) {
    for (SourceId id = 0; id < 20; ++id) {
      ODH_CHECK_OK(odh.Ingest(
          {id, reading * 15 * kMicrosPerMinute, {100.0 * id + reading}}));
    }
  }
  ODH_CHECK_OK(odh.FlushAll());
  EXPECT_GT(odh.writer()->stats().mg_blobs, 0);
  // Slice: one reading round across all meters.
  auto r = odh.engine()->Execute(
      "SELECT COUNT(*) FROM meters_v WHERE ts = '1970-01-01 00:15:00'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(20));
  // Historical: one meter across readings (served from MG before reorg).
  auto h = odh.engine()->Execute(
      "SELECT COUNT(*), MAX(kwh) FROM meters_v WHERE id = 7");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->rows[0][0], Datum::Int64(4));
  EXPECT_DOUBLE_EQ(h->rows[0][1].double_value(), 703.0);
}

class OdhPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OdhPropertyTest, SqlAndNativeAgreeOnRandomWorkload) {
  OdhOptions options;
  options.batch_size = 7;  // Awkward batch size exercises partial blobs.
  options.mg_group_size = 3;
  OdhSystem odh(options);
  int type = odh.DefineSchemaType("rand", {"x", "y", "z"}).value();
  Random rng(GetParam());
  const int num_sources = 6;
  std::vector<Timestamp> clocks(num_sources, 0);
  for (SourceId id = 0; id < num_sources; ++id) {
    bool high = rng.OneIn(2);
    ODH_CHECK_OK(odh.RegisterSource(
        id, type, high ? kMicrosPerSecond / 10 : 20 * kMicrosPerMinute,
        rng.OneIn(2)));
  }
  int64_t expected_total = 0;
  std::map<SourceId, int> per_source;
  for (int i = 0; i < 500; ++i) {
    SourceId id = static_cast<SourceId>(rng.Uniform(num_sources));
    clocks[id] += rng.Uniform(2 * kMicrosPerMinute) + 1;
    OperationalRecord r{id, clocks[id],
                        {rng.NextDouble(), rng.NextDouble(),
                         rng.OneIn(3) ? std::nan("") : rng.NextDouble()}};
    ODH_CHECK_OK(odh.Ingest(r));
    ++expected_total;
    ++per_source[id];
  }
  if (rng.OneIn(2)) ODH_CHECK_OK(odh.FlushAll());

  auto total = odh.engine()->Execute("SELECT COUNT(*) FROM rand_v");
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total->rows[0][0], Datum::Int64(expected_total));

  for (const auto& [id, expected] : per_source) {
    auto cursor = odh.HistoricalQuery(type, id, 0, kMaxTimestamp).value();
    int count = 0;
    OperationalRecord rec;
    while (cursor->Next(&rec).value()) {
      EXPECT_EQ(rec.id, id);
      ++count;
    }
    EXPECT_EQ(count, expected) << "source " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OdhPropertyTest,
                         ::testing::Values(101, 102, 103, 104, 105));

}  // namespace
}  // namespace odh::core
