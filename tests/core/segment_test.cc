// Time-partitioned segments end to end: routing, manifest-first pruning
// (the segments_pruned counters at every level), background compaction
// (lossless, footprint-shrinking, answer-preserving) and retention drops
// (O(1) metadata ops driven through ALTER TABLE ... RETENTION), all
// against a flat (segment_span == 0) twin running the identical workload
// — the segmented store must never change an answer, only its cost.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "relational_twin.h"
#include "sql/session.h"
#include "storage/segment.h"

namespace odh::core {
namespace {

constexpr int kSeconds = 600;
constexpr Timestamp kSpan = 100 * kMicrosPerSecond;  // 6 segments.
constexpr SourceId kFirstRegular = 1, kLastRegular = 4;    // RTS.
constexpr SourceId kFirstJittery = 5, kLastJittery = 6;    // IRTS.

OdhOptions Opts(Timestamp span) {
  OdhOptions options;
  options.batch_size = 25;
  options.segment_span = span;
  return options;
}

int Define(OdhSystem* sys) {
  int type = sys->DefineSchemaType("env", {"temperature", "wind"}).value();
  for (SourceId id = kFirstRegular; id <= kLastRegular; ++id) {
    ODH_CHECK_OK(sys->RegisterSource(id, type, kMicrosPerSecond, true));
  }
  for (SourceId id = kFirstJittery; id <= kLastJittery; ++id) {
    ODH_CHECK_OK(sys->RegisterSource(id, type, kMicrosPerSecond, false));
  }
  return type;
}

Status IngestAll(OdhSystem* sys) {
  for (int i = 0; i < kSeconds; ++i) {
    for (SourceId id = kFirstRegular; id <= kLastJittery; ++id) {
      Timestamp ts = static_cast<Timestamp>(i) * kMicrosPerSecond;
      if (id >= kFirstJittery) ts += (i % 7) * 1000;  // Jitter -> IRTS.
      OperationalRecord r{id, ts, {20.0 + id + 0.01 * i, 1.0 * id}};
      ODH_RETURN_IF_ERROR(sys->Ingest(r));
    }
    if ((i + 1) % 50 == 0) ODH_RETURN_IF_ERROR(sys->FlushAll());
  }
  return sys->FlushAll();
}

/// Streams `sql` and returns one line per row, sorted (segment scans and
/// flat scans may emit the same rows in different physical orders).
std::vector<std::string> QuerySorted(OdhSystem* sys, const std::string& sql) {
  sql::Session session(sys->engine());
  auto stream = session.ExecuteStreaming(sql);
  ODH_CHECK_OK(stream.status());
  std::vector<std::string> rows;
  Row row;
  while ((*stream)->Next(&row).value()) {
    std::string line;
    for (const Datum& d : row) line += d.ToString() + "|";
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

int64_t CountRows(OdhSystem* sys, const std::string& sql) {
  auto r = sys->engine()->Execute(sql);
  ODH_CHECK_OK(r.status());
  ODH_CHECK(r->rows.size() == 1 && r->rows[0][0].is_int64());
  return r->rows[0][0].int64_value();
}

/// The segments_pruned row of EXPLAIN PROFILE for `sql`.
int64_t ProfiledSegmentsPruned(OdhSystem* sys, const std::string& sql) {
  auto r = sys->engine()->Execute("EXPLAIN PROFILE " + sql);
  ODH_CHECK_OK(r.status());
  for (const Row& row : r->rows) {
    if (row[0] == Datum::String("segments_pruned")) {
      return row[1].int64_value();
    }
  }
  ODH_CHECK(false);  // The profile always carries the row.
  return -1;
}

class SegmentTest : public ::testing::Test {
 protected:
  SegmentTest() : segmented_(Opts(kSpan)), flat_(Opts(0)) {
    type_ = Define(&segmented_);
    Define(&flat_);
    ODH_CHECK_OK(IngestAll(&segmented_));
    ODH_CHECK_OK(IngestAll(&flat_));
  }

  OdhSystem segmented_;
  OdhSystem flat_;
  int type_ = 0;
};

TEST_F(SegmentTest, RoutingMatchesFloorDivisionKeys) {
  std::vector<SegmentInfo> segs = segmented_.store()->SegmentInfos(type_);
  ASSERT_EQ(segs.size(), 6u);  // 600s of data over 100s segments.
  int64_t prev_key = INT64_MIN;
  for (const SegmentInfo& seg : segs) {
    EXPECT_GT(seg.key, prev_key);  // Key order == time order.
    prev_key = seg.key;
    EXPECT_EQ(seg.lo, seg.key * kSpan);
    EXPECT_EQ(seg.hi, seg.lo + kSpan);
    // Blobs are routed by begin timestamp: the data can spill past the
    // nominal hi (a blob straddling the boundary) but never start early.
    EXPECT_GE(seg.min_ts, seg.lo);
    EXPECT_EQ(seg.key, storage::SegmentKeyFor(seg.min_ts, kSpan));
    EXPECT_GT(seg.blob_count, 0);
  }

  // The flat twin: exactly one unbounded segment, pre-segment behavior.
  std::vector<SegmentInfo> flat = flat_.store()->SegmentInfos(type_);
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat[0].key, 0);
  EXPECT_EQ(flat[0].hi, INT64_MAX);
}

TEST_F(SegmentTest, SegmentedAnswersMatchFlatAnswers) {
  const std::string queries[] = {
      "SELECT id, ts, temperature, wind FROM env_v",
      "SELECT ts, temperature FROM env_v WHERE id = 2",
      "SELECT id, ts, wind FROM env_v WHERE ts BETWEEN 150000000 AND "
      "450000000",
      "SELECT COUNT(*), AVG(temperature) FROM env_v WHERE id = 3",
      "SELECT COUNT(*) FROM env_v WHERE ts >= 550000000",
  };
  for (const std::string& sql : queries) {
    EXPECT_EQ(QuerySorted(&segmented_, sql), QuerySorted(&flat_, sql))
        << sql;
  }
}

TEST_F(SegmentTest, RecentWindowQueryPrunesColdSegments) {
  // Last 50 seconds: 5 of the 6 segments are disjoint from the window.
  const std::string sql =
      "SELECT ts, temperature FROM env_v WHERE id = 1 AND ts >= 550000000";
  const int64_t store_before = segmented_.store()->segments_pruned();
  const int64_t reader_before = segmented_.reader()->stats().segments_pruned;
  const int64_t pruned = ProfiledSegmentsPruned(&segmented_, sql);
  EXPECT_GE(pruned, 5);
  EXPECT_GE(segmented_.store()->segments_pruned() - store_before, 5);
  EXPECT_GE(segmented_.reader()->stats().segments_pruned - reader_before, 5);

  // The flat layout has nothing to prune — and must say so.
  EXPECT_EQ(ProfiledSegmentsPruned(&flat_, sql), 0);
  EXPECT_EQ(flat_.store()->segments_pruned(), 0);
}

TEST_F(SegmentTest, PrunedSegmentsBlobsAppearInNoBlobCounter) {
  // Disjointness is decided on the manifest alone: the pruned segments'
  // blobs must not show up as examined, decoded or blob-pruned (that
  // would be double counting — and page reads).
  const std::string sql =
      "SELECT COUNT(*) FROM env_v WHERE id = 1 AND ts >= 550000000";
  auto r = segmented_.engine()->Execute("EXPLAIN PROFILE " + sql);
  ASSERT_TRUE(r.ok());
  int64_t segments_pruned = -1, blobs_decoded = -1, blobs_pruned = -1;
  for (const Row& row : r->rows) {
    if (row[0] == Datum::String("segments_pruned")) {
      segments_pruned = row[1].int64_value();
    } else if (row[0] == Datum::String("blobs_decoded")) {
      blobs_decoded = row[1].int64_value();
    } else if (row[0] == Datum::String("blobs_pruned")) {
      blobs_pruned = row[1].int64_value();
    }
  }
  EXPECT_GE(segments_pruned, 5);
  // Only the last segment's blobs were ever candidates: 4 RTS blobs for
  // this id (25-point blobs over 100 seconds).
  EXPECT_LE(blobs_decoded + blobs_pruned, 4);
}

TEST_F(SegmentTest, NativeHistoricalQueryPrunes) {
  const int64_t before = segmented_.reader()->stats().segments_pruned;
  auto cursor = segmented_.HistoricalQuery(type_, /*id=*/1,
                                           550 * kMicrosPerSecond,
                                           kMaxTimestamp);
  ASSERT_TRUE(cursor.ok());
  OperationalRecord rec;
  int64_t rows = 0;
  while ((*cursor)->Next(&rec).value()) ++rows;
  EXPECT_EQ(rows, 50);
  EXPECT_GE(segmented_.reader()->stats().segments_pruned - before, 5);
}

TEST_F(SegmentTest, CompactionMergesBlobsAndPreservesEveryAnswer) {
  const std::string all = "SELECT id, ts, temperature, wind FROM env_v";
  std::vector<std::string> before = QuerySorted(&segmented_, all);
  const int64_t blobs_before =
      segmented_.store()->rts_stats(type_).blob_count +
      segmented_.store()->irts_stats(type_).blob_count;

  auto report = segmented_.CompactSegments(type_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // 5 sealed segments (the 6th is still ingesting).
  EXPECT_EQ(report->segments_compacted, 5);
  EXPECT_EQ(segmented_.store()->segments_compacted(), 5);
  EXPECT_LT(report->blobs_after, report->blobs_before);
  EXPECT_GT(report->blobs_after, 0);

  // Each compacted segment holds 100s of data: 4 contiguous 25-point RTS
  // blobs per source merge into one 100-point blob, and likewise IRTS.
  const int64_t blobs_after =
      segmented_.store()->rts_stats(type_).blob_count +
      segmented_.store()->irts_stats(type_).blob_count;
  EXPECT_EQ(blobs_before - blobs_after,
            report->blobs_before - report->blobs_after);
  EXPECT_LE(blobs_after, blobs_before - 5 * (kLastJittery - kFirstRegular));

  // Compaction is lossless re-encoding: the exact answer set survives.
  EXPECT_EQ(QuerySorted(&segmented_, all), before);
  // Point counts are untouched (rewrite, not retention).
  EXPECT_EQ(segmented_.store()->rts_stats(type_).point_count,
            flat_.store()->rts_stats(type_).point_count);

  // Manifests: the rewritten segments moved to the cold tier with a
  // bumped generation; the ingesting segment stayed hot.
  std::vector<SegmentInfo> segs = segmented_.store()->SegmentInfos(type_);
  ASSERT_EQ(segs.size(), 6u);
  for (size_t i = 0; i + 1 < segs.size(); ++i) {
    EXPECT_EQ(segs[i].tier, storage::SegmentTier::kCold) << i;
    EXPECT_EQ(segs[i].generation, 1) << i;
  }
  EXPECT_EQ(segs.back().tier, storage::SegmentTier::kHot);
  EXPECT_EQ(segs.back().generation, 0);

  // A second pass finds nothing hot and sealed: compaction converges.
  auto again = segmented_.CompactSegments(type_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->segments_compacted, 0);
}

TEST_F(SegmentTest, BackgroundCompactionMatchesSynchronous) {
  // Async submission through the compactor (inline fallback without a
  // pool) must land in the same state as the synchronous call.
  const std::string all = "SELECT id, ts, temperature, wind FROM env_v";
  std::vector<std::string> before = QuerySorted(&segmented_, all);
  ASSERT_TRUE(segmented_.FlushAll().ok());
  segmented_.compactor()->CompactSealedAsync(type_);
  segmented_.compactor()->WaitIdle();
  ASSERT_TRUE(segmented_.compactor()->last_status().ok());
  EXPECT_EQ(segmented_.compactor()->last_report().segments_compacted, 5);
  EXPECT_EQ(QuerySorted(&segmented_, all), before);
}

TEST_F(SegmentTest, SqlRetentionDropsOnlyExpiredSegments) {
  const int64_t total = CountRows(&segmented_, "SELECT COUNT(*) FROM env_v");
  // 200 seconds of the 600 ingested: segments whose data lies entirely
  // before max_ts - 200s drop; the segment containing the cutoff stays.
  sql::Session session(segmented_.engine());
  auto r = session.Execute("ALTER TABLE env_v RETENTION 200 SECONDS");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(segmented_.store()->retention(type_), 200 * kMicrosPerSecond);
  EXPECT_GT(segmented_.store()->segments_dropped(), 0);

  const Timestamp cutoff =
      (kSeconds - 1) * kMicrosPerSecond - 200 * kMicrosPerSecond;
  // Nothing inside the retention window may be lost...
  const std::string recent = "SELECT COUNT(*) FROM env_v WHERE ts >= " +
                             std::to_string(cutoff);
  EXPECT_EQ(CountRows(&segmented_, recent), CountRows(&flat_, recent));
  // ...and whole expired segments are gone.
  EXPECT_LT(CountRows(&segmented_, "SELECT COUNT(*) FROM env_v"), total);

  // Parity over the post-drop store: the batch scan, the batch scan with
  // a constraint the pushdown does not absorb (every row re-checked), and
  // the relational twin of the survivors agree on the window.
  const std::string window =
      "SELECT id, ts, temperature FROM env_v WHERE ts BETWEEN " +
      std::to_string(cutoff - 50 * kMicrosPerSecond) + " AND " +
      std::to_string(cutoff + 50 * kMicrosPerSecond);
  MakeRelationalTwin(&segmented_, "env_v", "env_r");
  const std::vector<std::string> answer = QuerySorted(&segmented_, window);
  EXPECT_FALSE(answer.empty());
  EXPECT_EQ(QuerySorted(&segmented_, window + " AND id >= 0"), answer);
  EXPECT_EQ(QuerySorted(&segmented_,
                        ReplaceAll(window, "FROM env_v", "FROM env_r")),
            answer);
}

TEST_F(SegmentTest, RetentionDropIsMetadataNotScan) {
  // Dropping history must not read the history: the drop is a WAL record
  // plus catalog work, never a scan-and-delete of the dropped pages.
  ASSERT_TRUE(segmented_.store()->SetRetention(
      type_, 150 * kMicrosPerSecond).ok());
  segmented_.ResetIoStats();
  auto dropped = segmented_.ApplyRetention(type_);
  ASSERT_TRUE(dropped.ok());
  EXPECT_GE(*dropped, 4);
  const storage::IoStats io = segmented_.io_stats();
  EXPECT_LT(io.page_reads, 64) << "retention drop scanned the dropped data";
}

TEST_F(SegmentTest, RetentionGuardsAndUnits) {
  // Negative intervals and unknown units fail in the parser; unknown
  // tables fail in the handler; a flat store never drops.
  sql::Session session(segmented_.engine());
  EXPECT_FALSE(session.Execute("ALTER TABLE env_v RETENTION -5").ok());
  EXPECT_FALSE(
      session.Execute("ALTER TABLE env_v RETENTION 5 FORTNIGHTS").ok());
  EXPECT_FALSE(session.Execute("ALTER TABLE nope_v RETENTION 5").ok());

  ASSERT_TRUE(
      session.Execute("ALTER TABLE env_v RETENTION 3 MINUTES").ok());
  EXPECT_EQ(segmented_.store()->retention(type_),
            3 * 60 * kMicrosPerSecond);
  // A bare integer is microseconds; 0 clears the window.
  ASSERT_TRUE(session.Execute("ALTER TABLE env_v RETENTION 0").ok());
  EXPECT_EQ(segmented_.store()->retention(type_), 0);

  // The flat twin accepts the statement but can never drop its single
  // unbounded segment.
  sql::Session flat_session(flat_.engine());
  ASSERT_TRUE(
      flat_session.Execute("ALTER TABLE env_v RETENTION 1 SECOND").ok());
  EXPECT_EQ(flat_.store()->segments_dropped(), 0);
  EXPECT_EQ(CountRows(&flat_, "SELECT COUNT(*) FROM env_v"),
            int64_t{kSeconds} * (kLastJittery - kFirstRegular + 1));
}

TEST_F(SegmentTest, DropConcurrentWithOpenStreamIsSafe) {
  // A stream opened before the drop holds no table iterator (chunked
  // cursor contract): dropping segments under it must neither crash nor
  // corrupt — later chunks simply skip the dropped range.
  sql::Session session(segmented_.engine());
  auto stream =
      session.ExecuteStreaming("SELECT id, ts, temperature FROM env_v");
  ASSERT_TRUE(stream.ok());
  Row row;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*stream)->Next(&row).value());
  }
  auto dropped = segmented_.SetRetention(type_, 100 * kMicrosPerSecond);
  ASSERT_TRUE(dropped.ok());
  ASSERT_GT(*dropped, 0);
  int64_t rows_after = 0;
  Result<bool> more = true;
  while ((more = (*stream)->Next(&row)).ok() && more.value()) {
    ASSERT_EQ(row.size(), 3u);
    ++rows_after;
  }
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  // The stream saw a prefix of the old data plus the surviving suffix —
  // never garbage, never a crash. It cannot have emitted more rows than
  // existed before the drop.
  EXPECT_LE(rows_after + 10,
            int64_t{kSeconds} * (kLastJittery - kFirstRegular + 1));
}

TEST_F(SegmentTest, StorageSystemTableListsSegments) {
  auto r = segmented_.engine()->Execute(
      "SELECT segment_key, tier, blob_count FROM odh_storage "
      "WHERE container = 'segment'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 6u);
  for (const Row& row : r->rows) {
    EXPECT_EQ(row[1], Datum::String("hot"));
    EXPECT_GT(row[2].int64_value(), 0);
  }
  // The aggregate rows keep their historical shape for old consumers.
  auto agg = segmented_.engine()->Execute(
      "SELECT blob_count FROM odh_storage WHERE container = 'rts'");
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->rows.size(), 1u);
}

}  // namespace
}  // namespace odh::core
