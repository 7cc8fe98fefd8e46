#include "sql/vectorized.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace odh::sql {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Replays a fixed list of batches; used to drive the adapter directly.
class FakeBatchCursor : public BatchCursor {
 public:
  explicit FakeBatchCursor(std::vector<ColumnBatch> batches)
      : batches_(std::move(batches)) {}

  Result<bool> Next(ColumnBatch* batch) override {
    if (pos_ >= batches_.size()) return false;
    *batch = batches_[pos_++];
    return true;
  }

 private:
  std::vector<ColumnBatch> batches_;
  size_t pos_ = 0;
};

ColumnBatch MakeBatch(SourceId id, std::vector<Timestamp> ts,
                      std::vector<std::vector<double>> tags) {
  ColumnBatch b;
  b.uniform_id = id;
  b.timestamps = std::move(ts);
  b.tags = std::move(tags);
  return b;
}

std::vector<Row> Drain(RowCursor* cursor, size_t at_most = SIZE_MAX) {
  std::vector<Row> rows;
  Row row;
  while (rows.size() < at_most) {
    auto more = cursor->Next(&row);
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !*more) break;
    rows.push_back(row);
  }
  return rows;
}

// FilterByRange --------------------------------------------------------------

TEST(FilterByRangeTest, InclusiveAndExclusiveBounds) {
  ColumnBatch b = MakeBatch(1, {0, 1, 2, 3}, {{1.0, 2.0, 3.0, 4.0}});
  FilterByRange(b.tags[0], 2.0, 3.0, false, false, &b);
  ASSERT_FALSE(b.sel_all);
  EXPECT_EQ(b.sel, (std::vector<int32_t>{1, 2}));

  ColumnBatch e = MakeBatch(1, {0, 1, 2, 3}, {{1.0, 2.0, 3.0, 4.0}});
  FilterByRange(e.tags[0], 2.0, 3.0, true, true, &e);
  EXPECT_TRUE(e.sel.empty());
  EXPECT_FALSE(e.sel_all);
}

TEST(FilterByRangeTest, AllPassingStaysSelAll) {
  ColumnBatch b = MakeBatch(1, {0, 1}, {{1.0, 2.0}});
  FilterByRange(b.tags[0], 0.0, 10.0, false, false, &b);
  EXPECT_TRUE(b.sel_all);
  EXPECT_EQ(b.selected(), 2u);
}

TEST(FilterByRangeTest, NaNNeverMatches) {
  ColumnBatch b = MakeBatch(1, {0, 1, 2}, {{1.0, kNaN, 3.0}});
  // The whole real line: only the NaN row drops.
  FilterByRange(b.tags[0], -1e300, 1e300, false, false, &b);
  EXPECT_EQ(b.sel, (std::vector<int32_t>{0, 2}));
}

TEST(FilterByRangeTest, IntersectsExistingSelection) {
  ColumnBatch b = MakeBatch(1, {0, 1, 2, 3}, {{1.0, 2.0, 3.0, 4.0},
                                              {9.0, 5.0, 9.0, 5.0}});
  FilterByRange(b.tags[0], 2.0, 4.0, false, false, &b);  // rows 1,2,3
  FilterByRange(b.tags[1], 5.0, 5.0, false, false, &b);  // rows 1,3
  EXPECT_EQ(b.sel, (std::vector<int32_t>{1, 3}));
}

TEST(FilterByRangeTest, UnprojectedColumnMatchesNothing) {
  ColumnBatch b = MakeBatch(1, {0, 1}, {{}});  // tag 0 unprojected
  FilterByRange(b.tags[0], -1e300, 1e300, false, false, &b);
  EXPECT_FALSE(b.sel_all);
  EXPECT_EQ(b.selected(), 0u);
}

/// Parity satellite: the kernel must agree with a scalar NULL-aware
/// re-check on every combination of NaN holes and bound exclusivity.
TEST(FilterByRangeTest, MatchesScalarSemanticsOnNaNHoles) {
  std::vector<double> col;
  for (int i = 0; i < 64; ++i) {
    col.push_back(i % 5 == 0 ? kNaN : 0.5 * i - 7.0);
  }
  for (bool min_ex : {false, true}) {
    for (bool max_ex : {false, true}) {
      ColumnBatch b;
      b.timestamps.assign(col.size(), 0);
      b.tags = {col};
      FilterByRange(col, -3.0, 11.0, min_ex, max_ex, &b);
      std::vector<int32_t> expect;
      for (size_t i = 0; i < col.size(); ++i) {
        const double v = col[i];
        if (std::isnan(v)) continue;  // NULL never satisfies a predicate.
        if (min_ex ? v <= -3.0 : v < -3.0) continue;
        if (max_ex ? v >= 11.0 : v > 11.0) continue;
        expect.push_back(static_cast<int32_t>(i));
      }
      ASSERT_FALSE(b.sel_all);
      EXPECT_EQ(b.sel, expect) << "min_ex=" << min_ex << " max_ex=" << max_ex;
    }
  }
}

// BatchRowAdapter ------------------------------------------------------------

TEST(BatchRowAdapterTest, SkipsEmptyAndFilteredOutBatches) {
  ColumnBatch filtered = MakeBatch(7, {10, 11}, {{1.0, 2.0}});
  filtered.sel_all = false;  // everything filtered away
  std::vector<ColumnBatch> batches = {
      MakeBatch(7, {}, {}),              // zero-row batch
      MakeBatch(7, {20}, {{5.0}}),       // one survivor
      filtered,                          // selected() == 0
      MakeBatch(7, {30}, {{6.0}}),
  };
  auto rows = Drain(
      MakeBatchRowAdapter(std::make_unique<FakeBatchCursor>(batches)).get());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], Datum::Time(20));
  EXPECT_EQ(rows[1][1], Datum::Time(30));
}

TEST(BatchRowAdapterTest, MidBatchStopAndResume) {
  // A LIMIT stops pulling mid-batch; the adapter must keep its position
  // and hand out the remaining rows if the caller comes back.
  std::vector<ColumnBatch> batches = {
      MakeBatch(1, {0, 1, 2}, {{10.0, 11.0, 12.0}})};
  auto cursor =
      MakeBatchRowAdapter(std::make_unique<FakeBatchCursor>(batches));
  auto first = Drain(cursor.get(), 1);  // LIMIT 1
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0][2], Datum::Double(10.0));
  auto rest = Drain(cursor.get());
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0][2], Datum::Double(11.0));
  EXPECT_EQ(rest[1][2], Datum::Double(12.0));
}

TEST(BatchRowAdapterTest, NullsFromNaNAndUnprojectedColumns) {
  // tag 0 projected with a NaN hole, tag 1 unprojected (empty).
  std::vector<ColumnBatch> batches = {
      MakeBatch(3, {0, 1}, {{1.5, kNaN}, {}})};
  auto rows = Drain(
      MakeBatchRowAdapter(std::make_unique<FakeBatchCursor>(batches)).get());
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[0].size(), 4u);  // id, ts, tag0, tag1
  EXPECT_EQ(rows[0][0], Datum::Int64(3));
  EXPECT_EQ(rows[0][2], Datum::Double(1.5));
  EXPECT_TRUE(rows[0][3].is_null());
  EXPECT_TRUE(rows[1][2].is_null());
  EXPECT_TRUE(rows[1][3].is_null());
}

TEST(BatchRowAdapterTest, SelectionVectorAndPerRowIds) {
  ColumnBatch b = MakeBatch(-1, {0, 1, 2}, {{1.0, 2.0, 3.0}});
  b.ids = {100, 200, 300};
  b.sel = {0, 2};
  b.sel_all = false;
  std::vector<ColumnBatch> batches = {b};
  auto rows = Drain(
      MakeBatchRowAdapter(std::make_unique<FakeBatchCursor>(batches)).get());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Datum::Int64(100));
  EXPECT_EQ(rows[1][0], Datum::Int64(300));
  EXPECT_EQ(rows[1][2], Datum::Double(3.0));
}

}  // namespace
}  // namespace odh::sql
