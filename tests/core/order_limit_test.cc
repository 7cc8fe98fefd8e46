// Differential suite for the order-limit hint (top-k time scans): every
// `ORDER BY ts [ASC|DESC] LIMIT k` must return exactly what the same
// SELECT without LIMIT returns (that statement gets no hint, so it runs
// the full stable sort) truncated to k — ties and their order included —
// and what the relational engine returns over the same rows. The data is
// built to hit every window edge: blobs straddling segment boundaries,
// duplicate timestamps within a source, a source writing late into older
// segments, a source absent from the newest segment, an MG source, and
// dirty rows above the newest segment; the store is checked segmented and
// flat, after compaction and after retention, serial and parallel, with
// the blob cache on and off. Separate cases pin the stopping rule's cost
// counters and a compaction + retention drop landing between two windows
// of an open cursor.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "sql/session.h"

namespace odh::core {
namespace {

constexpr Timestamp kSpan = 100 * kMicrosPerSecond;
constexpr int kSeconds = 700;  // 7 segments.
constexpr int kLateLag = 250;  // Source 5 trails the others by this much.
constexpr int kAbsentAfter = 580;  // Source 6 stops before the last segment.
constexpr int kDirtySeconds = 5;

Timestamp Sec(int64_t s) { return s * kMicrosPerSecond; }

struct Config {
  const char* name;
  bool segmented;
  int query_parallelism;
  bool cache;
  enum class Mutation { kNone, kCompaction, kRetention } mutation;
  bool vectorized = true;  // False: the row cursor serves every scan.
};

// Test discovery names each case after the printed parameter; the default
// printer would dump the struct's bytes (a pointer and padding), which
// change from run to run.
void PrintTo(const Config& c, std::ostream* os) { *os << c.name; }

OdhOptions OptionsFor(const Config& c) {
  OdhOptions options;
  options.batch_size = 30;  // 30-s blobs straddle the 100-s boundaries.
  options.segment_span = c.segmented ? kSpan : 0;
  options.query_parallelism = c.query_parallelism;
  options.blob_cache_bytes = c.cache ? (8u << 20) : 0;
  options.sql_metadata_router = false;
  options.mg_group_size = 4;
  return options;
}

double Temperature(SourceId id, int i, int copy) {
  return 20.0 + id + 0.01 * i + 0.001 * copy;
}

/// Ingests one second of every source: 1-2 regular (RTS), 3 jittery
/// (IRTS), 4 with each timestamp twice (IRTS, equal-ts ties), 5 trailing
/// kLateLag behind, 6 only up to kAbsentAfter, 7 at 0.1 Hz (MG).
Status IngestSecond(OdhSystem* odh, int i) {
  for (SourceId id : {1, 2}) {
    ODH_RETURN_IF_ERROR(
        odh->Ingest({id, Sec(i), {Temperature(id, i, 0), 1.0 * id}}));
  }
  ODH_RETURN_IF_ERROR(odh->Ingest(
      {3, Sec(i) + (i % 7) * 1000, {Temperature(3, i, 0), 3.0}}));
  if (i % 2 == 0) {
    for (int copy = 0; copy < 2; ++copy) {
      ODH_RETURN_IF_ERROR(
          odh->Ingest({4, Sec(i), {Temperature(4, i, copy), 4.0}}));
    }
  }
  if (i >= kLateLag) {
    const int late = i - kLateLag;
    ODH_RETURN_IF_ERROR(
        odh->Ingest({5, Sec(late), {Temperature(5, late, 0), 5.0}}));
  }
  if (i < kAbsentAfter) {
    ODH_RETURN_IF_ERROR(
        odh->Ingest({6, Sec(i), {Temperature(6, i, 0), 6.0}}));
  }
  if (i % 10 == 0) {
    ODH_RETURN_IF_ERROR(
        odh->Ingest({7, Sec(i), {Temperature(7, i, 0), 7.0}}));
  }
  return Status::OK();
}

int Define(OdhSystem* odh) {
  const int type = odh->DefineSchemaType("env", {"temperature", "wind"})
                       .value();
  for (SourceId id = 1; id <= 6; ++id) {
    ODH_CHECK_OK(odh->RegisterSource(id, type, kMicrosPerSecond,
                                     /*regular=*/id <= 2));
  }
  ODH_CHECK_OK(odh->RegisterSource(7, type, 10 * kMicrosPerSecond, true));
  return type;
}

/// Full history, flushed every 50 s, then source 5's late tail (it lands
/// in segments that already have newer neighbours), then the mutation,
/// then a few unflushed seconds above the newest segment.
void Build(OdhSystem* odh, int type, Config::Mutation mutation) {
  for (int i = 0; i < kSeconds; ++i) {
    ODH_CHECK_OK(IngestSecond(odh, i));
    if ((i + 1) % 50 == 0) ODH_CHECK_OK(odh->FlushAll());
  }
  for (int late = kSeconds - kLateLag; late < kSeconds; ++late) {
    ODH_CHECK_OK(
        odh->Ingest({5, Sec(late), {Temperature(5, late, 0), 5.0}}));
  }
  ODH_CHECK_OK(odh->FlushAll());
  if (mutation == Config::Mutation::kCompaction) {
    ODH_CHECK_OK(odh->CompactSegments(type).status());
  } else if (mutation == Config::Mutation::kRetention) {
    ODH_CHECK(*odh->SetRetention(type, Sec(320)) > 0);
  }
  for (int i = kSeconds; i < kSeconds + kDirtySeconds; ++i) {
    for (SourceId id : {1, 3, 4}) {
      ODH_CHECK_OK(
          odh->Ingest({id, Sec(i), {Temperature(id, i, 0), 1.0 * id}}));
    }
  }
}

std::vector<std::string> Render(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string line;
    for (const Datum& d : row) line += d.ToString() + "|";
    out.push_back(std::move(line));
  }
  return out;
}

std::vector<Row> Query(sql::Session* session, const std::string& q) {
  auto r = session->Execute(q);
  ODH_CHECK_OK(r.status());
  return std::move(r->rows);
}

class OrderLimitTest : public ::testing::TestWithParam<Config> {
 protected:
  OrderLimitTest() : odh_(OptionsFor(GetParam())), session_(odh_.engine()) {
    type_ = Define(&odh_);
    Build(&odh_, type_, GetParam().mutation);
    odh_.config()->SetScanPathOptions(GetParam().vectorized, true);
    // The relational twin holds exactly the rows the historian serves.
    ODH_CHECK_OK(session_
                     .Execute("CREATE TABLE env_r (id BIGINT, ts TIMESTAMP, "
                              "temperature DOUBLE)")
                     .status());
    auto insert = session_.Prepare("INSERT INTO env_r VALUES (?, ?, ?)");
    ODH_CHECK_OK(insert.status());
    for (const Row& row :
         Query(&session_, "SELECT id, ts, temperature FROM env_v")) {
      ODH_CHECK_OK(session_.ExecutePrepared(*insert, row).status());
    }
  }

  /// Runs every k of interest for one WHERE clause and direction.
  void CheckQuery(const std::string& where, bool descending) {
    const std::string dir = descending ? " DESC" : " ASC";
    const std::string select = "SELECT id, ts, temperature FROM ";
    const std::string base = select + "env_v" + where + " ORDER BY ts" + dir;
    const std::vector<Row> oracle = Query(&session_, base);
    const std::vector<std::string> expected = Render(oracle);

    // Rows inside the first window visited: the newest segment's range
    // for DESC, everything below the second segment's start for ASC.
    const std::vector<SegmentInfo> segs =
        odh_.store()->SegmentInfos(type_);
    int64_t first_window = static_cast<int64_t>(oracle.size());
    if (segs.size() >= 2) {
      first_window = 0;
      for (const Row& row : oracle) {
        const Timestamp ts = row[1].timestamp_value();
        if (descending ? ts >= segs.back().lo : ts < segs[1].lo) {
          ++first_window;
        }
      }
    }
    const int64_t total = static_cast<int64_t>(oracle.size());
    std::vector<int64_t> ks = {0, 1, first_window + 1, total + 5};
    if (first_window > 0) {
      ks.push_back(first_window - 1);
      ks.push_back(first_window);
    }
    for (int64_t k : ks) {
      const std::string q = base + " LIMIT " + std::to_string(k);
      const size_t n = static_cast<size_t>(std::min(k, total));
      EXPECT_EQ(Render(Query(&session_, q)),
                std::vector<std::string>(expected.begin(),
                                         expected.begin() + n))
          << q;
    }

    // The relational engine (which ignores the hint) over the same rows,
    // with every column as a key so ties cannot differ between engines.
    const std::string keys =
        " ORDER BY ts" + dir + ", id, temperature LIMIT " +
        std::to_string(first_window + 1);
    EXPECT_EQ(Render(Query(&session_, select + "env_v" + where + keys)),
              Render(Query(&session_, select + "env_r" + where + keys)))
        << where << keys;
  }

  OdhSystem odh_;
  sql::Session session_;
  int type_ = 0;
};

TEST_P(OrderLimitTest, MatchesFullSortPrefixAndRelationalEngine) {
  const std::string hi = std::to_string(Sec(650));
  const std::string lo = std::to_string(Sec(120));
  const std::vector<std::string> wheres = {
      // Historical: regular + dirty, duplicate timestamps, late writes,
      // absent from the newest segment, MG.
      " WHERE id = 1",
      " WHERE id = 4",
      " WHERE id = 5",
      " WHERE id = 6",
      " WHERE id = 7",
      " WHERE id = 3 AND ts <= " + hi,
      // A tag predicate no newest row passes: no early stop allowed.
      " WHERE id = 1 AND temperature < 25",
      // Slice scans.
      "",
      " WHERE ts <= " + hi,
      " WHERE ts BETWEEN " + lo + " AND " + hi,
      " WHERE temperature < 25",
  };
  for (const std::string& where : wheres) {
    for (bool descending : {true, false}) {
      SCOPED_TRACE(where + (descending ? " DESC" : " ASC"));
      CheckQuery(where, descending);
    }
  }
}

TEST_P(OrderLimitTest, DataCoversTheWindowEdges) {
  const std::vector<SegmentInfo> segs = odh_.store()->SegmentInfos(type_);
  if (!GetParam().segmented) {
    ASSERT_EQ(segs.size(), 1u);
    return;
  }
  ASSERT_GE(segs.size(), 4u);
  // Some blob spills past its segment's nominal end.
  bool straddles = false;
  for (const SegmentInfo& seg : segs) straddles |= seg.max_ts >= seg.hi;
  EXPECT_TRUE(straddles);
  // Dirty rows lie above everything flushed.
  std::vector<OperationalRecord> dirty;
  ASSERT_TRUE(odh_.writer()
                  ->CollectDirty(type_, -1, Sec(kSeconds), kMaxTimestamp,
                                 &dirty)
                  .ok());
  EXPECT_EQ(dirty.size(), 3u * kDirtySeconds);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, OrderLimitTest,
    ::testing::Values(
        Config{"SegmentedSerial", true, 0, false, Config::Mutation::kNone},
        Config{"SegmentedRowPath", true, 4, true, Config::Mutation::kNone,
               /*vectorized=*/false},
        Config{"SegmentedParallel", true, 4, false, Config::Mutation::kNone},
        Config{"SegmentedSerialCache", true, 0, true,
               Config::Mutation::kNone},
        Config{"SegmentedParallelCache", true, 4, true,
               Config::Mutation::kNone},
        Config{"Compacted", true, 4, true, Config::Mutation::kCompaction},
        Config{"Retained", true, 0, false, Config::Mutation::kRetention},
        Config{"FlatSerial", false, 0, false, Config::Mutation::kNone},
        Config{"FlatParallelCache", false, 4, true,
               Config::Mutation::kNone}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return std::string(info.param.name);
    });

/// The profile row `name` of EXPLAIN PROFILE `sql`.
int64_t ProfileRow(OdhSystem* odh, const std::string& sql,
                   const std::string& name) {
  auto r = odh->engine()->Execute("EXPLAIN PROFILE " + sql);
  ODH_CHECK_OK(r.status());
  for (const Row& row : r->rows) {
    if (row[0] == Datum::String(name)) return row[1].int64_value();
  }
  ADD_FAILURE() << "no profile row " << name;
  return -1;
}

TEST(OrderLimitCostTest, LatestValueReadsOneSegment) {
  Config c{"", true, 0, false, Config::Mutation::kNone};
  OdhSystem odh(OptionsFor(c));
  const int type = Define(&odh);
  Build(&odh, type, c.mutation);
  ASSERT_EQ(odh.store()->SegmentInfos(type).size(), 7u);

  // Source 2 has no dirty rows: its newest window is one segment's range.
  const std::string latest =
      "SELECT ts, temperature FROM env_v WHERE id = 2 ORDER BY ts DESC "
      "LIMIT 1";
  sql::Session session(odh.engine());
  auto explained = session.Execute(latest);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained->explain.find("order-limit pushdown: ts DESC LIMIT 1"),
            std::string::npos)
      << explained->explain;

  EXPECT_GE(ProfileRow(&odh, latest, "segments_pruned"), 5);
  EXPECT_LE(ProfileRow(&odh, latest, "rows_scanned"), 100);
  EXPECT_GT(ProfileRow(&odh, latest, "rows_scanned"), 0);

  const int64_t lookups = odh.router()->lookups();
  auto r = odh.engine()->Execute(latest);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0], Datum::Time(Sec(kSeconds - 1)));
  EXPECT_EQ(odh.router()->lookups(), lookups + 1);

  // A hint the provider ignores (a tag column here) is not reported.
  auto by_tag = session.Execute(
      "SELECT ts FROM env_v WHERE id = 2 ORDER BY temperature DESC LIMIT 1");
  ASSERT_TRUE(by_tag.ok()) << by_tag.status().ToString();
  EXPECT_EQ(by_tag->explain.find("order-limit pushdown"), std::string::npos)
      << by_tag->explain;

  // Without a LIMIT nothing is pushed and the whole history is read.
  auto full =
      session.Execute("SELECT ts FROM env_v WHERE id = 2 ORDER BY ts DESC");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->explain.find("order-limit pushdown"), std::string::npos);
  EXPECT_EQ(ProfileRow(&odh, "SELECT ts FROM env_v WHERE id = 2 ORDER BY ts "
                             "DESC",
                       "rows_scanned"),
            kSeconds);
}

/// A compaction and a retention drop land between two windows of an open
/// top-k cursor: the later windows read the new layout, the answer is the
/// post-mutation one, and nothing is read twice or lost.
TEST(OrderLimitCostTest, CompactionAndRetentionBetweenWindows) {
  for (SourceId id : {SourceId{2}, SourceId{-1}}) {
    SCOPED_TRACE(id);
    Config c{"", true, 4, true, Config::Mutation::kNone};
    OdhSystem odh(OptionsFor(c));
    const int type = Define(&odh);
    Build(&odh, type, c.mutation);
    auto provider = odh.engine()->catalog()->Resolve("env_v");
    ASSERT_TRUE(provider.ok());

    sql::ScanSpec spec;
    if (id >= 0) {
      sql::ColumnConstraint eq;
      eq.column = 0;
      eq.equals = Datum::Int64(id);
      spec.constraints.push_back(eq);
    }
    spec.order_limit = sql::OrderLimitHint{1, /*descending=*/true,
                                           /*limit=*/1000000};
    auto cursor = (*provider)->Scan(spec);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

    // Drain exactly the newest window: the rows at or above the newest
    // segment's start, dirty rows included. The next pull opens window 2.
    const Timestamp newest = odh.store()->SegmentInfos(type).back().lo;
    sql::Session session(odh.engine());
    const std::string where =
        id >= 0 ? " WHERE id = " + std::to_string(id) + " AND" : " WHERE";
    const int64_t first_window =
        Query(&session, "SELECT COUNT(*) FROM env_v" + where +
                            " ts >= " + std::to_string(newest))[0][0]
            .int64_value();
    ASSERT_GT(first_window, 0);
    std::vector<Row> rows;
    Row row;
    for (int64_t i = 0; i < first_window; ++i) {
      auto more = (*cursor)->Next(&row);
      ASSERT_TRUE(more.ok());
      ASSERT_TRUE(*more);
      EXPECT_GE(row[1].timestamp_value(), newest);
      rows.push_back(row);
    }

    auto compacted = odh.CompactSegments(type);
    ASSERT_TRUE(compacted.ok());
    EXPECT_GT(compacted->segments_compacted, 0);
    auto dropped = odh.SetRetention(type, Sec(320));
    ASSERT_TRUE(dropped.ok());
    EXPECT_GT(*dropped, 0);

    while (true) {
      auto more = (*cursor)->Next(&row);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!*more) break;
      EXPECT_LT(row[1].timestamp_value(), newest);
      rows.push_back(row);
    }

    // The post-mutation answer (full scan, no hint): compaction rewrote
    // the windows read after it, retention removed the oldest, and the
    // newest window is untouched by both. Compared as multisets, since
    // compaction may reorder equal-timestamp rows of different sources.
    std::string q = "SELECT * FROM env_v";
    if (id >= 0) q += " WHERE id = " + std::to_string(id);
    std::vector<std::string> expected =
        Render(Query(&session, q + " ORDER BY ts DESC"));
    std::vector<std::string> got = Render(rows);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

}  // namespace
}  // namespace odh::core
