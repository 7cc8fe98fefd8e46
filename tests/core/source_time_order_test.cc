// A regular source's points come back in time order even when some of its
// batches are stored as IRTS: the writer stores a one-point (or jittered)
// batch of a regular source as IRTS, so the source's RTS and IRTS blobs
// interleave in time. A historical scan must emit them in begin order, and
// compaction must not merge the source's IRTS blobs into one blob that
// spans RTS blobs lying between them.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "sql/session.h"

namespace odh::core {
namespace {

constexpr Timestamp kSec = kMicrosPerSecond;

class SourceTimeOrderTest : public ::testing::TestWithParam<bool> {
 protected:
  static OdhOptions Opts() {
    OdhOptions options;
    options.segment_span = 20 * kSec;
    return options;
  }

  /// One regular source with 1-s points over [0, 120) s, a FlushAll every
  /// 3 s and a compaction every 20 s. With `jitter`, every seventh point
  /// lands 300 ms late, so its whole batch is stored as IRTS.
  SourceTimeOrderTest() : odh_(Opts()) {
    type_ = odh_.DefineSchemaType("meter", {"v"}).value();
    ODH_CHECK_OK(odh_.RegisterSource(1, type_, kSec, /*regular=*/true));
    for (int i = 0; i < 120; ++i) {
      Timestamp ts = i * kSec;
      if (GetParam() && i % 7 == 3) ts += 300'000;
      ODH_CHECK_OK(odh_.Ingest({1, ts, {static_cast<double>(i)}}));
      if (i % 3 == 0) ODH_CHECK_OK(odh_.FlushAll());
      if (i % 20 == 0) ODH_CHECK_OK(odh_.CompactSegments(type_).status());
    }
    ODH_CHECK_OK(odh_.FlushAll());
  }

  static void ExpectAscending(const std::vector<Timestamp>& ts,
                              const std::string& context) {
    ASSERT_EQ(ts.size(), 60u) << context;
    for (size_t i = 1; i < ts.size(); ++i) {
      ASSERT_LT(ts[i - 1], ts[i]) << context << " at " << i;
    }
  }

  OdhSystem odh_;
  int type_ = 0;
};

TEST_P(SourceTimeOrderTest, HistoricalScansReturnAscendingTimestamps) {
  const Timestamp lo = 40 * kSec;
  const Timestamp hi = 99 * kSec + 500'000;
  // The scenario is live: the window holds both structures.
  ASSERT_FALSE(odh_.store()->GetRts(type_, 1, lo, hi).value().empty());
  ASSERT_FALSE(odh_.store()->GetIrts(type_, 1, lo, hi).value().empty());

  auto cursor = odh_.HistoricalQuery(type_, 1, lo, hi);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<Timestamp> native;
  OperationalRecord rec;
  while ((*cursor)->Next(&rec).value()) native.push_back(rec.ts);
  ExpectAscending(native, "HistoricalQuery");

  auto rows = odh_.engine()->Execute(
      "SELECT ts FROM meter_v WHERE id = 1 AND ts >= " + std::to_string(lo) +
      " AND ts <= " + std::to_string(hi));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<Timestamp> sql;
  for (const Row& row : rows->rows) sql.push_back(row[0].timestamp_value());
  ExpectAscending(sql, "SELECT ts");
}

TEST_P(SourceTimeOrderTest, CompactedIrtsBlobsNeverSpanRtsBlobs) {
  const std::vector<BlobRecord> rts =
      odh_.store()->GetRts(type_, 1, kMinTimestamp, kMaxTimestamp).value();
  const std::vector<BlobRecord> irts =
      odh_.store()->GetIrts(type_, 1, kMinTimestamp, kMaxTimestamp).value();
  ASSERT_FALSE(irts.empty());
  for (const BlobRecord& i : irts) {
    for (const BlobRecord& r : rts) {
      EXPECT_FALSE(r.begin > i.begin && r.begin < i.end)
          << "IRTS [" << i.begin << ", " << i.end << "] spans RTS ["
          << r.begin << ", " << r.end << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, SourceTimeOrderTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Jittered")
                                             : std::string("OnePoint");
                         });

}  // namespace
}  // namespace odh::core
