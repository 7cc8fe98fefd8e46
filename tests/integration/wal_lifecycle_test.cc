// The store WAL's lifecycle in the segmented layout: retention drops and
// compaction commits free whole log files below the lowest position any
// live segment (or replication stream) still needs, so the live log stays
// bounded by the retention window instead of growing with run length.
// Freed records are never needed again: recovery after a crash anywhere in
// a retention cycle finds every acknowledged write, an active replica
// streams through releases, and a replica that comes back below the head
// is told to re-bootstrap. The unsegmented layout never frees anything.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/odh.h"
#include "core/replica.h"
#include "net/replication.h"
#include "net/server.h"
#include "sql/session.h"
#include "storage/fault_policy.h"

namespace odh::core {
namespace {

using storage::FaultPolicy;
using storage::SimDisk;

constexpr Timestamp kSec = kMicrosPerSecond;
constexpr Timestamp kSpan = 10 * kSec;
constexpr int kSources = 40;  // 20 Hz each: RTS blobs.
constexpr int kHz = 20;
constexpr SourceId kFirstSlow = 101, kLastSlow = 104;  // 0.5 Hz: MG blobs.

OdhOptions Opts(Timestamp span = kSpan) {
  OdhOptions options;
  options.segment_span = span;
  options.batch_size = 64;
  return options;
}

int Define(OdhSystem* sys) {
  int type = sys->DefineSchemaType("env", {"temperature", "wind"}).value();
  for (SourceId id = 1; id <= kSources; ++id) {
    ODH_CHECK_OK(sys->RegisterSource(id, type, kSec / kHz, true));
  }
  for (SourceId id = kFirstSlow; id <= kLastSlow; ++id) {
    ODH_CHECK_OK(sys->RegisterSource(id, type, 2 * kSec, true));
  }
  return type;
}

/// Ingests stream seconds [from, to) — noisy values on the fast sources,
/// so blobs do not compress away and each segment's log spans several WAL
/// files, and a point every other second on the slow ones — flushing every
/// second. Returns the first error.
Status Ingest(OdhSystem* sys, int from, int to) {
  for (int s = from; s < to; ++s) {
    for (int k = 0; k < kHz; ++k) {
      const Timestamp ts = s * kSec + k * (kSec / kHz);
      for (SourceId id = 1; id <= kSources; ++id) {
        Random rng(static_cast<uint64_t>(ts) * 131 + id);
        ODH_RETURN_IF_ERROR(sys->Ingest(
            OperationalRecord{id, ts, {rng.UniformDouble(0, 100),
                                       rng.UniformDouble(-5, 5)}}));
      }
    }
    if (s % 2 == 0) {
      for (SourceId id = kFirstSlow; id <= kLastSlow; ++id) {
        ODH_RETURN_IF_ERROR(sys->Ingest(
            OperationalRecord{id, s * kSec, {1.0 * s, 2.0 * id}}));
      }
    }
    ODH_RETURN_IF_ERROR(sys->FlushAll());
  }
  return Status::OK();
}

/// One retention cycle at a segment boundary: compact what sealed, then
/// drop what expired (the order ingest_steady uses).
Status Maintain(OdhSystem* sys, int type) {
  ODH_RETURN_IF_ERROR(sys->CompactSegments(type).status());
  return sys->ApplyRetention(type).status();
}

std::set<std::string> Rows(OdhSystem* sys) {
  sql::Session session(sys->engine());
  auto result = session.Execute("SELECT id, ts FROM env_v");
  ODH_CHECK_OK(result.status());
  std::set<std::string> rows;
  for (const Row& row : result->rows) {
    rows.insert(row[0].ToString() + "|" +
                std::to_string(row[1].timestamp_value()));
  }
  return rows;
}

double Metric(OdhSystem* sys, const std::string& name) {
  for (const common::MetricSample& s : sys->metrics()->Collect()) {
    if (s.name == name) return s.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1;
}

std::unique_ptr<OdhSystem> Reboot(OdhSystem* victim, RecoveryReport* report) {
  std::unique_ptr<SimDisk> clone = victim->database()->disk()->CloneDurable();
  auto recovered = std::make_unique<OdhSystem>(Opts());
  Define(recovered.get());
  auto rec = recovered->Recover(clone.get());
  ODH_CHECK_OK(rec.status());
  *report = *rec;
  return recovered;
}

/// For the replication cases: a segmented primary with retention behind a
/// replication server, and a replica applier to tail it.
class WalLifecycleTest : public ::testing::Test {
 protected:
  void StartPrimary() {
    primary_ = std::make_unique<OdhSystem>(Opts());
    type_ = Define(primary_.get());
    ODH_CHECK_OK(primary_->SetRetention(type_, 2 * kSpan).status());
    source_ = std::make_unique<net::ReplicationSource>(primary_->store());
    net::ServerOptions options;
    options.role = net::ServerRole::kPrimary;
    options.replication = source_.get();
    server_ = std::make_unique<net::HistorianServer>(
        primary_->engine(), options, primary_->metrics());
    auto port = server_->Start();
    ODH_CHECK_OK(port.status());
    port_ = *port;
    replica_ = std::make_unique<OdhSystem>(Opts());
    Define(replica_.get());
    applier_ = std::make_unique<ReplicaApplier>(replica_->store());
  }

  void TearDown() override {
    if (client_) client_->Stop();
    if (server_) server_->Stop();
  }

  void StartClient() {
    net::ReplicationClientOptions options;
    options.retry.initial_backoff_ms = 1;
    options.retry.max_backoff_ms = 8;
    client_ = std::make_unique<net::ReplicationClient>(
        "127.0.0.1", port_, applier_.get(), options);
    ODH_CHECK_OK(client_->Start());
  }

  /// Runs stream seconds [from, to) with a retention cycle per segment.
  void Cycles(int from, int to) {
    for (int s = from; s < to; s += 10) {
      ODH_CHECK_OK(Ingest(primary_.get(), s, s + 10));
      ODH_CHECK_OK(Maintain(primary_.get(), type_));
    }
  }

  std::unique_ptr<OdhSystem> primary_;
  std::unique_ptr<OdhSystem> replica_;
  std::unique_ptr<net::ReplicationSource> source_;
  std::unique_ptr<net::HistorianServer> server_;
  std::unique_ptr<ReplicaApplier> applier_;
  std::unique_ptr<net::ReplicationClient> client_;
  int type_ = 0;
  int port_ = 0;
};

TEST_F(WalLifecycleTest, RetentionKeepsTheLiveLogBounded) {
  constexpr int kCycles = 20;
  OdhSystem sys(Opts());
  const int type = Define(&sys);
  ASSERT_TRUE(sys.SetRetention(type, 3 * kSpan).ok());
  const int span_s = static_cast<int>(kSpan / kSec);
  uint64_t max_live = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    ASSERT_TRUE(Ingest(&sys, cycle * span_s, (cycle + 1) * span_s).ok());
    ASSERT_TRUE(Maintain(&sys, type).ok());
    if (cycle >= 5) max_live = std::max(max_live, sys.store()->wal()->live_bytes());
  }
  const Wal* wal = sys.store()->wal();
  const uint64_t per_segment = wal->synced_bytes() / kCycles;
  const uint64_t file_bytes =
      OdhStore::kWalFilePages * sys.database()->disk()->page_size();
  // Each segment's log spans several files, so whole-file release can
  // track the retention window closely.
  ASSERT_GT(per_segment, 2 * file_bytes);
  // Live: the three retained segments, the ingesting one, the compaction
  // episodes rewriting the sealed ones and a partly dead first file.
  EXPECT_LT(max_live, 8 * per_segment);
  EXPECT_LT(wal->live_bytes(), wal->synced_bytes() / 2);
  EXPECT_GT(wal->head_lsn(), 0u);
  EXPECT_GT(wal->bytes_released(), 0u);
  EXPECT_EQ(wal->bytes_released() + wal->live_bytes(), wal->synced_bytes());

  // The same figures through the metrics surface.
  EXPECT_EQ(Metric(&sys, "odh.wal.live_bytes"),
            static_cast<double>(wal->live_bytes()));
  EXPECT_EQ(Metric(&sys, "odh.wal.head_lsn"),
            static_cast<double>(wal->head_lsn()));
  EXPECT_EQ(Metric(&sys, "odh.wal.bytes_released"),
            static_cast<double>(wal->bytes_released()));

  // The freed prefix is gone from the disk, and recovery starts at the
  // head yet restores every retained row.
  std::vector<std::string> files = sys.database()->disk()->ListFiles();
  EXPECT_EQ(std::count(files.begin(), files.end(),
                       std::string(OdhStore::kWalFileName) + ".0"),
            0);
  RecoveryReport report;
  auto recovered = Reboot(&sys, &report);
  EXPECT_EQ(report.wal_head_lsn, wal->head_lsn());
  EXPECT_EQ(report.torn_bytes_dropped, 0u);
  EXPECT_EQ(Rows(recovered.get()), Rows(&sys));
}

TEST_F(WalLifecycleTest, CrashSweepOverRetentionAndReleaseKeepsAckedWrites) {
  constexpr int kPrefixSeconds = 40;  // Four segments, releases included.
  auto prepare = [](OdhSystem* sys) {
    const int type = Define(sys);
    ODH_CHECK_OK(sys->SetRetention(type, 2 * kSpan).status());
    for (int s = 0; s < kPrefixSeconds; s += 10) {
      ODH_CHECK_OK(Ingest(sys, s, s + 10));
      ODH_CHECK_OK(Maintain(sys, type));
    }
    return type;
  };
  // The swept phase: a segment of ingest, its retention cycle (compaction
  // commit, drop, release) and two more flushed seconds, so crash points
  // also land after the release. `acked_to` ends past the last second
  // whose FlushAll returned OK.
  auto final_phase = [](OdhSystem* sys, int type, int* acked_to) {
    *acked_to = kPrefixSeconds;
    for (int s = kPrefixSeconds; s < kPrefixSeconds + 12; ++s) {
      ODH_RETURN_IF_ERROR(Ingest(sys, s, s + 1));
      *acked_to = s + 1;
      if (s == kPrefixSeconds + 9) ODH_RETURN_IF_ERROR(Maintain(sys, type));
    }
    return Status::OK();
  };

  // Probe: the never-crashed phase, and how many page writes it issues
  // (pool evictions, flushes, compaction and retention).
  std::set<std::string> before, after;
  int64_t total_writes = 0;
  {
    OdhSystem probe(Opts());
    const int type = prepare(&probe);
    ASSERT_GT(probe.store()->wal()->head_lsn(), 0u);
    before = Rows(&probe);
    const uint64_t head_before = probe.store()->wal()->head_lsn();
    probe.ResetIoStats();
    int acked_to = 0;
    ASSERT_TRUE(final_phase(&probe, type, &acked_to).ok());
    ASSERT_GT(probe.store()->wal()->head_lsn(), head_before);
    total_writes = probe.io_stats().page_writes;
    after = Rows(&probe);
  }
  ASSERT_GT(total_writes, 0);

  // Geometric samples over the phase plus every one of its last writes
  // (the flushes after the release).
  std::set<int64_t> crash_points;
  for (int64_t k = 1; k <= total_writes; k = std::max(k + 1, k * 5 / 4)) {
    crash_points.insert(k);
  }
  for (int64_t k = std::max<int64_t>(1, total_writes - 4); k <= total_writes;
       ++k) {
    crash_points.insert(k);
  }
  int crashed_after_release = 0;
  for (int64_t k : crash_points) {
    OdhSystem victim(Opts());
    const int type = prepare(&victim);
    const uint64_t head_before = victim.store()->wal()->head_lsn();
    FaultPolicy policy;
    policy.CrashAtWrite(static_cast<uint64_t>(k));
    victim.database()->disk()->set_fault_policy(&policy);
    int acked_to = 0;
    ASSERT_FALSE(final_phase(&victim, type, &acked_to).ok())
        << "crash point " << k;
    const uint64_t head_at_crash = victim.store()->wal()->head_lsn();
    crashed_after_release += head_at_crash > head_before;

    RecoveryReport report;
    auto recovered = Reboot(&victim, &report);
    EXPECT_EQ(report.wal_head_lsn, head_at_crash) << "crash point " << k;
    const std::set<std::string> got = Rows(recovered.get());
    // Every acknowledged row the completed run still holds is back, and
    // nothing that was never written appears.
    for (const std::string& row : after) {
      const int64_t ts = std::stoll(row.substr(row.find('|') + 1));
      if (ts >= acked_to * kSec && before.count(row) == 0) continue;
      ASSERT_EQ(got.count(row), 1u) << "crash point " << k << " lost " << row;
    }
    for (const std::string& row : got) {
      ASSERT_TRUE(before.count(row) > 0 || after.count(row) > 0)
          << "crash point " << k << " invented " << row;
    }
  }
  EXPECT_GT(crashed_after_release, 0);
}

TEST_F(WalLifecycleTest, FlatLayoutNeverReleases) {
  OdhSystem sys(Opts(/*span=*/0));
  const int type = Define(&sys);
  ASSERT_TRUE(sys.SetRetention(type, 2 * kSpan).ok());
  for (int cycle = 0; cycle < 6; ++cycle) {
    ASSERT_TRUE(Ingest(&sys, cycle * 10, (cycle + 1) * 10).ok());
    ASSERT_TRUE(Maintain(&sys, type).ok());
  }
  const Wal* wal = sys.store()->wal();
  EXPECT_EQ(wal->head_lsn(), 0u);
  EXPECT_EQ(wal->bytes_released(), 0u);
  EXPECT_EQ(wal->live_bytes(), wal->synced_bytes());
  EXPECT_EQ(Metric(&sys, "odh.wal.bytes_released"), 0.0);
  // One flat file, no rolled files and no head marker.
  for (const std::string& f : sys.database()->disk()->ListFiles()) {
    if (f.rfind(OdhStore::kWalFileName, 0) == 0) {
      EXPECT_EQ(f, OdhStore::kWalFileName);
    }
  }
}

TEST_F(WalLifecycleTest, ActiveReplicaStreamsThroughReleases) {
  StartPrimary();
  Cycles(0, 30);
  StartClient();
  Cycles(30, 120);
  ASSERT_TRUE(client_->WaitForLsn(primary_->store()->durable_lsn(), 20000));
  ODH_CHECK_OK(client_->fatal_error());
  // The log was freed while the stream ran, and the replica holds what
  // the primary holds.
  EXPECT_GT(primary_->store()->wal()->head_lsn(), 0u);
  EXPECT_GT(primary_->store()->wal()->bytes_released(), 0u);
  EXPECT_EQ(Rows(replica_.get()), Rows(primary_.get()));
}

TEST_F(WalLifecycleTest, OfflineReplicaBelowTheHeadIsToldToRebootstrap) {
  StartPrimary();
  Cycles(0, 20);
  StartClient();
  ASSERT_TRUE(client_->WaitForLsn(primary_->store()->durable_lsn(), 20000));
  client_->Stop();
  const uint64_t applied = applier_->applied_lsn();

  // While the replica is away, releases move the head past its position.
  Cycles(20, 100);
  ASSERT_GT(primary_->store()->wal()->head_lsn(), applied);

  StartClient();
  Status fatal;
  for (int i = 0; i < 2000 && fatal.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fatal = client_->fatal_error();
  }
  EXPECT_EQ(fatal.code(), StatusCode::kOutOfRange) << fatal.ToString();
  EXPECT_NE(fatal.ToString().find("re-bootstrap"), std::string::npos)
      << fatal.ToString();
  EXPECT_EQ(applier_->applied_lsn(), applied);
}

}  // namespace
}  // namespace odh::core
