// Projection parity: a scan that asks for one tag must return exactly the
// rows, timestamps and values of that tag that a scan of every tag
// returns. Series decodes leave unrequested columns empty (they read as
// all-missing), so this pins that every consumer of a decoded batch —
// historical and slice scans, the top-k window loop, the engine's fold
// and the reader's aggregate decode — treats an empty column exactly like
// the full one it stands for. Covered serial and parallel, with the blob
// cache on and off, on an LD-shaped type (17 sparse tags, MG and
// reorganized RTS/IRTS) and a TD-shaped one (regular and jittered
// sources).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/odh.h"
#include "sql/session.h"

namespace odh::core {
namespace {

constexpr Timestamp kSec = kMicrosPerSecond;
constexpr int kLdTags = 17;
constexpr int kTdTags = 4;
constexpr int kSeconds = 240;

struct Variant {
  bool parallel;
  bool cache;
};

std::string Name(const ::testing::TestParamInfo<Variant>& info) {
  return std::string(info.param.parallel ? "Parallel" : "Serial") +
         (info.param.cache ? "Cache" : "NoCache");
}

bool DatumsClose(const Datum& a, const Datum& b) {
  if (a.is_double() && b.is_double()) {
    const double x = a.double_value();
    const double y = b.double_value();
    if (x == y) return true;
    return std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y));
  }
  return a == b;
}

class ProjectionParityTest : public ::testing::TestWithParam<Variant> {
 protected:
  static OdhOptions Opts(const Variant& v) {
    OdhOptions options;
    options.batch_size = 40;
    options.segment_span = 60 * kSec;
    options.mg_group_size = 8;
    options.query_parallelism = v.parallel ? 4 : 0;
    options.read_parallelism = v.parallel ? 4 : 0;
    options.blob_cache_bytes = v.cache ? (8 << 20) : 0;
    return options;
  }

  ProjectionParityTest() : odh_(Opts(GetParam())) {
    std::vector<std::string> ld_tags;
    for (int t = 0; t < kLdTags; ++t) ld_tags.push_back("l" + std::to_string(t));
    ld_ = odh_.DefineSchemaType("ld", ld_tags).value();
    td_ = odh_.DefineSchemaType("td", {"price", "chrg", "qty", "fee"}).value();
    // LD: 24 low-frequency stations (MG), about one record every 5 s, each
    // reporting a random subset of the 17 tags.
    for (SourceId id = 100; id < 124; ++id) {
      ODH_CHECK_OK(odh_.RegisterSource(id, ld_, 5 * kSec, false));
    }
    // TD: four regular 4 Hz sources and one jittered one.
    for (SourceId id = 1; id <= 5; ++id) {
      ODH_CHECK_OK(odh_.RegisterSource(id, td_, kSec / 4, true));
    }
    Random rng(2024);
    for (Timestamp ms = 0; ms < kSeconds * 1000; ms += 250) {
      const Timestamp ts = ms * 1000;
      for (SourceId id = 1; id <= 5; ++id) {
        const Timestamp jitter = id == 5 ? (ms / 250 % 7) * 3000 : 0;
        std::vector<double> tags(kTdTags);
        for (int t = 0; t < kTdTags; ++t) {
          tags[t] = 100.0 * id + t + 0.001 * static_cast<double>(ms);
        }
        ODH_CHECK_OK(odh_.Ingest({id, ts + jitter, tags}));
      }
      if (ms % 5000 == 0) {
        for (SourceId id = 100; id < 124; ++id) {
          std::vector<double> tags(kLdTags, std::nan(""));
          for (int t = 0; t < kLdTags; ++t) {
            if (rng.Uniform(10) < 6) tags[t] = rng.NextDouble() * 50 - 10;
          }
          ODH_CHECK_OK(odh_.Ingest(
              {id, ts + static_cast<Timestamp>(rng.Uniform(4000)) * 1000,
               tags}));
        }
      }
    }
    ODH_CHECK_OK(odh_.FlushAll());
    // Half of the LD history leaves MG, so scans cross MG and series
    // blobs; then every sealed segment of both types is compacted.
    ODH_CHECK_OK(odh_.Reorganize(ld_, (kSeconds / 2) * kSec).status());
    ODH_CHECK_OK(odh_.CompactSegments(ld_).status());
    ODH_CHECK_OK(odh_.CompactSegments(td_).status());
    // A few unflushed rows ride along as the dirty tail.
    ODH_CHECK_OK(odh_.Ingest({2, kSeconds * kSec, {1, 2, 3, 4}}));
  }

  std::vector<Row> Query(const std::string& sql) {
    auto r = odh_.engine()->Execute(sql);
    ODH_CHECK_OK(r.status());
    return std::move(r->rows);
  }

  /// Runs `projected` (selecting id, ts, <tag>) and `star` (the same query
  /// with SELECT *), and checks the projected rows equal the star rows cut
  /// down to those columns, in emission order.
  void ExpectSameRows(const std::string& projected, const std::string& star,
                      int tag_column) {
    const std::vector<Row> got = Query(projected);
    const std::vector<Row> all = Query(star);
    ASSERT_EQ(got.size(), all.size()) << projected;
    ASSERT_FALSE(got.empty()) << projected;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].size(), 3u);
      const Row want = {all[i][0], all[i][1], all[i][tag_column]};
      for (size_t c = 0; c < 3; ++c) {
        ASSERT_TRUE(got[i][c] == want[c])
            << projected << " row " << i << " col " << c << ": "
            << got[i][c].ToString() << " vs " << want[c].ToString();
      }
    }
  }

  /// Per-id COUNT, SUM, MIN, MAX of one column of `rows`, folded in row
  /// order (NULLs skipped), as the engine's GROUP BY would return them.
  static std::map<int64_t, Row> FoldById(const std::vector<Row>& rows,
                                         int tag_column) {
    struct Acc {
      int64_t count = 0;
      double sum = 0, min = 0, max = 0;
    };
    std::map<int64_t, Acc> accs;
    for (const Row& r : rows) {
      Acc& a = accs[r[0].int64_value()];
      if (r[tag_column].is_null()) continue;
      const double v = r[tag_column].double_value();
      a.min = a.count == 0 ? v : std::min(a.min, v);
      a.max = a.count == 0 ? v : std::max(a.max, v);
      a.sum += v;
      ++a.count;
    }
    std::map<int64_t, Row> out;
    for (const auto& [id, a] : accs) {
      out[id] = {Datum::Int64(id), Datum::Int64(a.count),
                 a.count > 0 ? Datum::Double(a.sum) : Datum::Null(),
                 a.count > 0 ? Datum::Double(a.min) : Datum::Null(),
                 a.count > 0 ? Datum::Double(a.max) : Datum::Null()};
    }
    return out;
  }

  static std::string Ts(int seconds) {
    return std::to_string(static_cast<Timestamp>(seconds) * kSec);
  }

  OdhSystem odh_;
  int ld_ = 0;
  int td_ = 0;
};

TEST_P(ProjectionParityTest, HistoricalScans) {
  for (int t : {0, 3}) {
    const std::string name = t == 0 ? "price" : "fee";
    for (int id : {1, 5}) {
      const std::string where = " FROM td_v WHERE id = " + std::to_string(id);
      ExpectSameRows("SELECT id, ts, " + name + where, "SELECT *" + where,
                     2 + t);
    }
  }
  for (int t : {4, 16}) {
    const std::string where = " FROM ld_v WHERE id = 107";
    ExpectSameRows("SELECT id, ts, l" + std::to_string(t) + where,
                   "SELECT *" + where, 2 + t);
  }
}

TEST_P(ProjectionParityTest, SliceScans) {
  const std::string range = " WHERE ts >= " + Ts(50) + " AND ts <= " + Ts(190);
  ExpectSameRows("SELECT id, ts, l5 FROM ld_v" + range,
                 "SELECT * FROM ld_v" + range, 2 + 5);
  ExpectSameRows("SELECT id, ts, chrg FROM td_v" + range,
                 "SELECT * FROM td_v" + range, 2 + 1);
  // A pushed tag predicate runs its range kernel on the projected column.
  ExpectSameRows("SELECT id, ts, l9 FROM ld_v" + range + " AND l9 > 5",
                 "SELECT * FROM ld_v" + range + " AND l9 > 5", 2 + 9);
}

TEST_P(ProjectionParityTest, TopKTimeScans) {
  for (const char* order : {" ORDER BY ts DESC LIMIT 30",
                            " ORDER BY ts LIMIT 45"}) {
    const std::string range =
        " WHERE ts >= " + Ts(20) + " AND ts <= " + Ts(230) + order;
    ExpectSameRows("SELECT id, ts, l12 FROM ld_v" + range,
                   "SELECT * FROM ld_v" + range, 2 + 12);
    ExpectSameRows("SELECT id, ts, qty FROM td_v" + range,
                   "SELECT * FROM td_v" + range, 2 + 2);
  }
}

TEST_P(ProjectionParityTest, AggregateFolds) {
  struct Case {
    std::string table;
    std::string tag;
    int column;
  };
  for (const Case& c : {Case{"ld_v", "l3", 2 + 3}, Case{"td_v", "fee", 2 + 3}}) {
    const std::string range =
        " WHERE ts >= " + Ts(35) + " AND ts <= " + Ts(205);
    // GROUP BY: the engine folds the rows of a one-tag batch scan.
    const std::vector<Row> grouped =
        Query("SELECT id, COUNT(" + c.tag + "), SUM(" + c.tag + "), MIN(" +
              c.tag + "), MAX(" + c.tag + ") FROM " + c.table + range +
              " GROUP BY id");
    const std::map<int64_t, Row> want =
        FoldById(Query("SELECT * FROM " + c.table + range), c.column);
    ASSERT_EQ(grouped.size(), want.size()) << c.table;
    for (const Row& row : grouped) {
      auto it = want.find(row[0].int64_value());
      ASSERT_NE(it, want.end());
      for (size_t k = 0; k < row.size(); ++k) {
        EXPECT_TRUE(DatumsClose(row[k], it->second[k]))
            << c.table << " id " << row[0].ToString() << " col " << k << ": "
            << row[k].ToString() << " vs " << it->second[k].ToString();
      }
    }
    // Pushdown: boundary blobs decode only the aggregated tag.
    const std::vector<Row> pushed =
        Query("SELECT COUNT(" + c.tag + "), SUM(" + c.tag + "), MIN(" + c.tag +
              "), MAX(" + c.tag + ") FROM " + c.table + range);
    ASSERT_EQ(pushed.size(), 1u);
    int64_t count = 0;
    double sum = 0, min = 0, max = 0;
    for (const auto& [id, r] : want) {
      (void)id;
      const int64_t n = r[1].int64_value();
      if (n == 0) continue;
      min = count == 0 ? r[3].double_value() : std::min(min, r[3].double_value());
      max = count == 0 ? r[4].double_value() : std::max(max, r[4].double_value());
      sum += r[2].double_value();
      count += n;
    }
    EXPECT_EQ(pushed[0][0], Datum::Int64(count)) << c.table;
    EXPECT_TRUE(DatumsClose(pushed[0][1], Datum::Double(sum))) << c.table;
    EXPECT_TRUE(DatumsClose(pushed[0][2], Datum::Double(min))) << c.table;
    EXPECT_TRUE(DatumsClose(pushed[0][3], Datum::Double(max))) << c.table;
  }
}

TEST_P(ProjectionParityTest, NativeBatchesHoldOnlyTheRequestedTag) {
  OdhReader* reader = odh_.reader();
  auto drain = [](Result<std::unique_ptr<RecordBatchCursor>> cursor) {
    ODH_CHECK_OK(cursor.status());
    std::vector<RecordBatch> out;
    RecordBatch batch;
    while ((*cursor)->Next(&batch).value()) out.push_back(batch);
    return out;
  };
  const int tag = 11;
  const std::vector<RecordBatch> one =
      drain(reader->OpenSliceBatches(ld_, 30 * kSec, 200 * kSec, {tag}));
  const std::vector<RecordBatch> all =
      drain(reader->OpenSliceBatches(ld_, 30 * kSec, 200 * kSec, {}));
  ASSERT_EQ(one.size(), all.size());
  size_t empty_columns = 0;
  for (size_t b = 0; b < one.size(); ++b) {
    ASSERT_EQ(one[b].rows(), all[b].rows()) << b;
    ASSERT_EQ(one[b].timestamps, all[b].timestamps) << b;
    for (size_t i = 0; i < one[b].rows(); ++i) {
      ASSERT_EQ(one[b].id_at(i), all[b].id_at(i));
      const double got = one[b].columns[tag][i];
      const double want = all[b].columns[tag][i];
      ASSERT_TRUE(got == want || (std::isnan(got) && std::isnan(want)));
    }
    // Other columns: empty (series blobs) or all-missing (MG blobs and
    // dirty rows, which arrive as records).
    for (int t = 0; t < kLdTags; ++t) {
      if (t == tag) continue;
      const std::vector<double>& col = one[b].columns[t];
      if (col.empty()) {
        ++empty_columns;
        continue;
      }
      for (double v : col) ASSERT_TRUE(std::isnan(v)) << b << " tag " << t;
    }
  }
  EXPECT_GT(empty_columns, 0u);
}

INSTANTIATE_TEST_SUITE_P(Variants, ProjectionParityTest,
                         ::testing::Values(Variant{false, false},
                                           Variant{false, true},
                                           Variant{true, false},
                                           Variant{true, true}),
                         Name);

}  // namespace
}  // namespace odh::core
