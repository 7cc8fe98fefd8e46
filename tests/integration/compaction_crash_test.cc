// Crash safety of the segment lifecycle: compaction rewrites and
// retention drops are WAL-logged episodes, so a power cut at ANY page
// write during them must recover to a consistent store — exactly one of
// {old segment, compacted segment} survives, and a dropped segment stays
// dropped. Compaction is lossless, so whichever side survives, the SQL
// answer set must equal the never-crashed reference bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "sql/session.h"
#include "storage/fault_policy.h"

namespace odh::core {
namespace {

using storage::FaultPolicy;
using storage::SimDisk;

constexpr int kSeconds = 400;
constexpr Timestamp kSpan = 100 * kMicrosPerSecond;  // 4 segments.
constexpr SourceId kFirstRegular = 1, kLastRegular = 6;
constexpr SourceId kFirstJittery = 7, kLastJittery = 8;

OdhOptions Opts() {
  OdhOptions options;
  options.batch_size = 25;
  options.segment_span = kSpan;
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
      if (id >= kFirstJittery) ts += (i % 7) * 1000;
      OperationalRecord r{id, ts, {20.0 + id + 0.01 * i, 1.0 * id}};
      ODH_RETURN_IF_ERROR(sys->Ingest(r));
    }
    if ((i + 1) % 50 == 0) ODH_RETURN_IF_ERROR(sys->FlushAll());
  }
  return sys->FlushAll();
}

std::vector<std::string> QueryAllSorted(OdhSystem* sys) {
  sql::Session session(sys->engine());
  auto stream = session.ExecuteStreaming(
      "SELECT id, ts, temperature, wind FROM env_v");
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

TEST(CompactionCrashTest, CrashAtEverySampledWriteRecoversConsistent) {
  // Reference: the same workload, never compacted, never crashed.
  OdhSystem reference(Opts());
  Define(&reference);
  ASSERT_TRUE(IngestAll(&reference).ok());
  const std::vector<std::string> want = QueryAllSorted(&reference);

  // Measure how many page writes a full compaction issues, so the crash
  // sweep can cover the whole episode including its WAL sync tail.
  int64_t total_writes = 0;
  {
    OdhSystem probe(Opts());
    int type = Define(&probe);
    ASSERT_TRUE(IngestAll(&probe).ok());
    probe.ResetIoStats();
    auto report = probe.CompactSegments(type);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->segments_compacted, 3);  // Last of 4 still hot.
    total_writes = probe.io_stats().page_writes;
    ASSERT_GT(total_writes, 0);

    // Sanity: the compacted probe answers identically (lossless).
    EXPECT_EQ(QueryAllSorted(&probe), want);
  }

  // Crash points across the episode: early (before any sync — the old
  // segments must survive), middle (between episodes — a mix), and late
  // (after the final commit — the compacted form must survive).
  std::vector<int64_t> crash_points;
  for (int64_t k = 1; k <= total_writes; k = std::max(k + 1, k * 3 / 2)) {
    crash_points.push_back(k);
  }
  bool saw_uncommitted = false, saw_superseded = false;
  for (int64_t k : crash_points) {
    OdhSystem victim(Opts());
    int type = Define(&victim);
    ASSERT_TRUE(IngestAll(&victim).ok());
    FaultPolicy policy;
    policy.CrashAtWrite(static_cast<int>(k));
    victim.database()->disk()->set_fault_policy(&policy);
    auto report = victim.CompactSegments(type);
    ASSERT_FALSE(report.ok()) << "crash point " << k
                              << " did not interrupt compaction";
    ASSERT_TRUE(victim.database()->disk()->crashed());

    std::unique_ptr<SimDisk> rebooted =
        victim.database()->disk()->CloneDurable();
    OdhSystem recovered(Opts());
    Define(&recovered);
    auto rec = recovered.Recover(rebooted.get());
    ASSERT_TRUE(rec.ok()) << "crash point " << k << ": "
                          << rec.status().ToString();
    saw_uncommitted |= rec->uncommitted_episode_records > 0;
    saw_superseded |= rec->records_superseded > 0;

    // Exactly-one semantics, observed through the data: whichever of the
    // old/new segment generations survived, the answers are the
    // reference's — compaction never changes a bit of the data.
    EXPECT_EQ(QueryAllSorted(&recovered), want) << "crash point " << k;
  }
  // The sweep covered both failure shapes: an episode cut before its
  // commit (discarded, old segment kept) and one that committed (its
  // replacement supersedes the original records).
  EXPECT_TRUE(saw_uncommitted);
  EXPECT_TRUE(saw_superseded);
}

TEST(CompactionCrashTest, RetentionDropSurvivesReboot) {
  OdhSystem victim(Opts());
  int type = Define(&victim);
  ASSERT_TRUE(IngestAll(&victim).ok());
  auto dropped = victim.SetRetention(type, 150 * kMicrosPerSecond);
  ASSERT_TRUE(dropped.ok());
  ASSERT_GT(*dropped, 0);
  const std::vector<std::string> want = QueryAllSorted(&victim);

  // Power cut after the drop: the kSegmentDrop record was synced before
  // the tables went away, so recovery must NOT resurrect dropped data.
  std::unique_ptr<SimDisk> rebooted =
      victim.database()->disk()->CloneDurable();
  OdhSystem recovered(Opts());
  Define(&recovered);
  auto rec = recovered.Recover(rebooted.get());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_GT(rec->records_superseded, 0u);
  EXPECT_EQ(QueryAllSorted(&recovered), want);
}

TEST(CompactionCrashTest, CompactedStoreSurvivesReboot) {
  OdhSystem victim(Opts());
  int type = Define(&victim);
  ASSERT_TRUE(IngestAll(&victim).ok());
  auto report = victim.CompactSegments(type);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->segments_compacted, 3);
  const std::vector<std::string> want = QueryAllSorted(&victim);

  std::unique_ptr<SimDisk> rebooted =
      victim.database()->disk()->CloneDurable();
  OdhSystem recovered(Opts());
  Define(&recovered);
  auto rec = recovered.Recover(rebooted.get());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  // The committed episodes replay: original small blobs superseded, the
  // merged replacements in their place.
  EXPECT_GT(rec->records_superseded, 0u);
  EXPECT_EQ(QueryAllSorted(&recovered), want);
}

TEST(CompactionCrashTest, CompactionKeepsMgBlobsAcrossRecovery) {
  // A 1-s source (RTS) beside a 0.1-Hz one (MG) in each 100-s segment.
  // Compaction rewrites only the series blobs, so a committed episode
  // must not take the segment's MG blobs with it on replay.
  OdhSystem victim(Opts());
  int type = victim.DefineSchemaType("env", {"temperature", "wind"}).value();
  ODH_CHECK_OK(victim.RegisterSource(1, type, kMicrosPerSecond, true));
  ODH_CHECK_OK(victim.RegisterSource(2, type, 10 * kMicrosPerSecond, true));
  for (int i = 0; i < kSeconds; ++i) {
    const Timestamp ts = static_cast<Timestamp>(i) * kMicrosPerSecond;
    ODH_CHECK_OK(victim.Ingest(OperationalRecord{1, ts, {20.0 + i, 1.0}}));
    if (i % 10 == 0) {
      ODH_CHECK_OK(victim.Ingest(OperationalRecord{2, ts, {5.0 + i, 2.0}}));
    }
    if ((i + 1) % 50 == 0) ODH_CHECK_OK(victim.FlushAll());
  }
  ODH_CHECK_OK(victim.FlushAll());
  auto report = victim.CompactSegments(type);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->segments_compacted, 3);
  const std::vector<std::string> want = QueryAllSorted(&victim);
  ASSERT_EQ(want.size(), 440u);

  std::unique_ptr<SimDisk> rebooted =
      victim.database()->disk()->CloneDurable();
  OdhSystem recovered(Opts());
  int rtype = recovered.DefineSchemaType("env", {"temperature", "wind"}).value();
  ODH_CHECK_OK(recovered.RegisterSource(1, rtype, kMicrosPerSecond, true));
  ODH_CHECK_OK(
      recovered.RegisterSource(2, rtype, 10 * kMicrosPerSecond, true));
  auto rec = recovered.Recover(rebooted.get());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_GT(rec->records_superseded, 0u);
  EXPECT_EQ(QueryAllSorted(&recovered), want);
}

}  // namespace
}  // namespace odh::core
