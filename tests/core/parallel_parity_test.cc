// Parallel-vs-serial twin parity: every query of a bench-shaped workload
// must return the same answer with query_parallelism 0 and N. Scan rows
// are compared EXACTLY in emission order — the parallel merge promises a
// byte-identical stream, not just the same set — while aggregate doubles
// get a relative tolerance (partial-accumulator merge reassociates sums).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "sql/session.h"

namespace odh::core {
namespace {

constexpr Timestamp kSpan = 100 * kMicrosPerSecond;
constexpr int kSeconds = 500;
constexpr Timestamp kMeterStep = 15 * kMicrosPerMinute;
constexpr int kMeterReadings = 8;

bool DatumsClose(const Datum& a, const Datum& b) {
  if (a.is_double() && b.is_double()) {
    const double x = a.double_value();
    const double y = b.double_value();
    if (x == y) return true;
    if (std::isnan(x) && std::isnan(y)) return true;
    return std::fabs(x - y) <=
           1e-9 * std::max(std::fabs(x), std::fabs(y));
  }
  return a == b;
}

/// Two types in one historian, bench-shaped: a segmented env type whose
/// history spans five segments of RTS + IRTS blobs, and a metered type
/// left half-reorganized so queries cross an MG + RTS structure boundary.
class ParallelParityTest : public ::testing::Test {
 protected:
  static OdhOptions Opts() {
    OdhOptions options;
    options.batch_size = 25;
    options.segment_span = kSpan;
    options.query_parallelism = 4;
    options.mg_group_size = 4;
    return options;
  }

  ParallelParityTest() : odh_(Opts()) {
    env_ = odh_.DefineSchemaType("env", {"temperature", "wind"}).value();
    for (SourceId id = 1; id <= 2; ++id) {
      ODH_CHECK_OK(odh_.RegisterSource(id, env_, kMicrosPerSecond, true));
    }
    for (SourceId id = 3; id <= 4; ++id) {
      ODH_CHECK_OK(odh_.RegisterSource(id, env_, kMicrosPerSecond, false));
    }
    for (int i = 0; i < kSeconds; ++i) {
      for (SourceId id = 1; id <= 4; ++id) {
        Timestamp ts = static_cast<Timestamp>(i) * kMicrosPerSecond;
        if (id >= 3) ts += (i % 7) * 1000;
        ODH_CHECK_OK(
            odh_.Ingest({id, ts, {20.0 + id + 0.01 * i, 1.0 * id}}));
      }
    }

    meters_ = odh_.DefineSchemaType("meters", {"kwh"}).value();
    for (SourceId id = 11; id <= 18; ++id) {
      ODH_CHECK_OK(odh_.RegisterSource(id, meters_, kMeterStep, true));
    }
    for (int r = 0; r < kMeterReadings; ++r) {
      for (SourceId id = 11; id <= 18; ++id) {
        ODH_CHECK_OK(
            odh_.Ingest({id, r * kMeterStep, {id * 10.0 + r}}));
      }
    }
    ODH_CHECK_OK(odh_.FlushAll());
    // Reorganize only the first half of the meter history: queries now
    // stitch RTS (old readings) and MG (recent readings) together.
    ODH_CHECK_OK(
        odh_.Reorganize(meters_, (kMeterReadings / 2) * kMeterStep)
            .status());
  }

  /// Materializes `sql` through a throwaway Session.
  std::vector<Row> Materialize(const std::string& sql) {
    auto r = odh_.engine()->Execute(sql);
    ODH_CHECK_OK(r.status());
    return std::move(r->rows);
  }

  /// Streams `sql` row by row through sql::Session::ExecuteStreaming.
  std::vector<Row> Stream(const std::string& sql) {
    sql::Session session(odh_.engine());
    auto stream = session.ExecuteStreaming(sql);
    ODH_CHECK_OK(stream.status());
    std::vector<Row> rows;
    Row row;
    while ((*stream)->Next(&row).value()) rows.push_back(row);
    return rows;
  }

  static void ExpectRowsEqual(const std::vector<Row>& got,
                              const std::vector<Row>& want,
                              const std::string& context) {
    ASSERT_EQ(got.size(), want.size()) << context;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].size(), want[i].size()) << context << " row " << i;
      for (size_t c = 0; c < got[i].size(); ++c) {
        EXPECT_TRUE(DatumsClose(got[i][c], want[i][c]))
            << context << " row " << i << " col " << c << ": "
            << got[i][c].ToString() << " vs " << want[i][c].ToString();
      }
    }
  }

  OdhSystem odh_;
  int env_ = 0;
  int meters_ = 0;
};

std::vector<std::string> BenchQuerySet() {
  const auto ts = [](int seconds) {
    return std::to_string(static_cast<Timestamp>(seconds) *
                          kMicrosPerSecond);
  };
  return {
      // TQ1-shaped: full per-source history (RTS, all segments).
      "SELECT id, ts, temperature, wind FROM env_v WHERE id = 1",
      // Jittery source -> IRTS path.
      "SELECT id, ts, temperature FROM env_v WHERE id = 4",
      // TQ2-shaped: per-source range, interior segment subset.
      "SELECT ts, temperature FROM env_v WHERE id = 2 AND ts >= " +
          ts(120) + " AND ts <= " + ts(380),
      // Slice: no id, all sources interleaved by timestamp.
      "SELECT id, ts, wind FROM env_v WHERE ts >= " + ts(150) +
          " AND ts <= " + ts(250),
      // Single-tag projection with a value predicate.
      "SELECT id, ts, temperature FROM env_v WHERE temperature > 23.5",
      // AQ1/AQ3-shaped aggregates (per source and global-range).
      "SELECT COUNT(*), SUM(temperature), AVG(temperature) FROM env_v "
      "WHERE id = 3",
      "SELECT MIN(temperature), MAX(wind), COUNT(*) FROM env_v "
      "WHERE ts >= " + ts(100) + " AND ts <= " + ts(400),
      // The same shapes with a constraint the pushdown does not absorb:
      // the engine folds the rows of a (parallel) batch scan.
      "SELECT COUNT(*), SUM(temperature), AVG(temperature) FROM env_v "
      "WHERE id BETWEEN 3 AND 3",
      "SELECT MIN(temperature), MAX(wind), COUNT(*) FROM env_v "
      "WHERE ts >= " + ts(100) + " AND ts <= " + ts(400) + " AND id >= 2",
      // LIMIT short-circuits the parallel merge mid-stream.
      "SELECT id, ts, temperature FROM env_v WHERE ts >= " + ts(50) +
          " LIMIT 17",
      // Metered type: MG + RTS structure boundary in one scan.
      "SELECT id, ts, kwh FROM meters_v WHERE id = 12",
      "SELECT id, ts, kwh FROM meters_v",
      "SELECT COUNT(*), SUM(kwh) FROM meters_v WHERE id = 15",
  };
}

TEST_F(ParallelParityTest, ParallelMatchesSerialOnBenchQuerySet) {
  for (const std::string& sql : BenchQuerySet()) {
    odh_.config()->SetQueryParallelism(0);
    const std::vector<Row> serial = Materialize(sql);
    odh_.config()->SetQueryParallelism(4);
    const std::vector<Row> parallel = Materialize(sql);
    ExpectRowsEqual(parallel, serial, sql);
  }
}

TEST_F(ParallelParityTest, StreamedEqualsMaterializedUnderParallelism) {
  odh_.config()->SetQueryParallelism(4);
  for (const std::string& sql : BenchQuerySet()) {
    ExpectRowsEqual(Stream(sql), Materialize(sql), sql + " [stream]");
  }
}

TEST_F(ParallelParityTest, SummaryPushdownAggregatesUnaffected) {
  const std::string sql =
      "SELECT COUNT(*), SUM(temperature), MIN(wind), MAX(wind) "
      "FROM env_v WHERE id = 1";
  odh_.config()->SetQueryParallelism(0);
  const std::vector<Row> serial = Materialize(sql);
  odh_.config()->SetQueryParallelism(4);
  ExpectRowsEqual(Materialize(sql), serial, sql + " [pushdown]");
}

TEST_F(ParallelParityTest, NativeCursorsEmitIdenticalStreams) {
  auto drain = [](Result<std::unique_ptr<RecordCursor>> cursor) {
    ODH_CHECK_OK(cursor.status());
    std::vector<std::string> lines;
    OperationalRecord rec;
    while ((*cursor)->Next(&rec).value()) {
      std::string line =
          std::to_string(rec.id) + "@" + std::to_string(rec.ts);
      for (double v : rec.tags) line += "," + std::to_string(v);
      lines.push_back(std::move(line));
    }
    return lines;
  };
  const Timestamp lo = 80 * kMicrosPerSecond;
  const Timestamp hi = 420 * kMicrosPerSecond;
  for (SourceId id : {SourceId{1}, SourceId{3}}) {
    odh_.config()->SetQueryParallelism(0);
    const auto serial = drain(odh_.HistoricalQuery(env_, id, lo, hi));
    odh_.config()->SetQueryParallelism(4);
    EXPECT_EQ(drain(odh_.HistoricalQuery(env_, id, lo, hi)), serial)
        << "id " << id;
  }
  odh_.config()->SetQueryParallelism(0);
  const auto serial_slice = drain(odh_.SliceQuery(env_, lo, hi));
  odh_.config()->SetQueryParallelism(4);
  EXPECT_EQ(drain(odh_.SliceQuery(env_, lo, hi)), serial_slice);

  odh_.config()->SetQueryParallelism(0);
  const auto serial_mg = drain(odh_.SliceQuery(meters_, 0, kMaxTimestamp));
  odh_.config()->SetQueryParallelism(4);
  EXPECT_EQ(drain(odh_.SliceQuery(meters_, 0, kMaxTimestamp)), serial_mg);
}

TEST_F(ParallelParityTest, DirtyRowsMergeIdenticallyMidStream) {
  // Unflushed points after the last segment must appear in both modes, in
  // the same position of the emission order.
  for (int i = kSeconds; i < kSeconds + 5; ++i) {
    ODH_CHECK_OK(odh_.Ingest(
        {1, static_cast<Timestamp>(i) * kMicrosPerSecond, {99.0, 0.0}}));
  }
  const std::string sql =
      "SELECT id, ts, temperature FROM env_v WHERE id = 1";
  odh_.config()->SetQueryParallelism(0);
  const std::vector<Row> serial = Materialize(sql);
  EXPECT_EQ(serial.size(), static_cast<size_t>(kSeconds + 5));
  odh_.config()->SetQueryParallelism(4);
  ExpectRowsEqual(Materialize(sql), serial, sql + " [dirty]");
}

TEST_F(ParallelParityTest, AbandonedStreamShutsDownWorkersCleanly) {
  // Destroying a stream mid-scan (the LIMIT/cancel shape) must tear down
  // parked and in-flight workers without hanging or touching freed state.
  odh_.config()->SetQueryParallelism(4);
  for (int rows_taken : {0, 1, 7}) {
    sql::Session session(odh_.engine());
    auto stream = session.ExecuteStreaming(
        "SELECT id, ts, temperature, wind FROM env_v");
    ODH_CHECK_OK(stream.status());
    Row row;
    for (int i = 0; i < rows_taken; ++i) {
      ASSERT_TRUE((*stream)->Next(&row).value());
    }
    // Stream destroyed here with most of the scan unconsumed.
  }
  // The system remains fully usable afterwards.
  auto r = odh_.engine()->Execute("SELECT COUNT(*) FROM env_v");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(4 * kSeconds));
}

/// Regression: a native cursor that stops after one row decodes the same
/// number of blobs with a read pool and a parallelism cap of 1 as without
/// a pool. The serial driver used to decode every queued blob eagerly on
/// the pool (4 against 1 here); units now run inline, one blob per batch.
TEST(ParallelParityInlineTest, EarlyStopDecodesNoMoreWithAPool) {
  auto blobs_decoded_by_one_row = [](int read_parallelism,
                                     int query_parallelism) {
    OdhOptions options;
    options.batch_size = 25;
    options.read_parallelism = read_parallelism;
    options.query_parallelism = query_parallelism;
    OdhSystem odh(options);
    const int type = odh.DefineSchemaType("env", {"v"}).value();
    ODH_CHECK_OK(odh.RegisterSource(1, type, kMicrosPerSecond, true));
    for (int i = 0; i < 90; ++i) {
      ODH_CHECK_OK(odh.Ingest({1, i * kMicrosPerSecond, {1.0 * i}}));
    }
    ODH_CHECK_OK(odh.FlushAll());  // Four blobs: 25 + 25 + 25 + 15 points.
    {
      auto cursor = odh.HistoricalQuery(type, 1, 0, kMaxTimestamp);
      ODH_CHECK_OK(cursor.status());
      OperationalRecord rec;
      EXPECT_TRUE((*cursor)->Next(&rec).value());
    }
    return odh.reader()->stats().blobs_decoded;
  };
  const int64_t no_pool = blobs_decoded_by_one_row(0, 0);
  EXPECT_EQ(no_pool, 1);
  EXPECT_EQ(blobs_decoded_by_one_row(2, 1), no_pool);
}

}  // namespace
}  // namespace odh::core
