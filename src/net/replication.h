#ifndef ODH_NET_REPLICATION_H_
#define ODH_NET_REPLICATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/result.h"
#include "core/replica.h"
#include "core/store.h"
#include "net/fault.h"
#include "net/retry_policy.h"
#include "net/transport.h"

namespace odh::sql {
class SqlEngine;
}  // namespace odh::sql

namespace odh::net {

struct ReplicationSourceOptions {
  /// Payload-byte budget per kReplWalBatch / kReplSnapshotChunk frame.
  size_t max_batch_bytes = 256 * 1024;
  /// Heartbeat cadence while the subscriber is caught up.
  int heartbeat_interval_ms = 50;
  /// Sleep between WAL polls when there is nothing new to ship.
  int poll_interval_ms = 2;
  /// Deadline for writing one frame to a subscriber; a replica that stops
  /// draining its socket is cut, never allowed to pin the source.
  int write_deadline_ms = 10000;
};

/// Primary side of WAL shipping: serves one subscriber per call, on the
/// caller's thread (HistorianServer hands replication connections here
/// from their session workers, so subscriber count is bounded by the
/// server's admission control like any other session).
///
/// Stream contract: subscribe at LSN 0 gets a snapshot (Begin/Chunk*/End,
/// a consistent image of the store with the End frame's base_lsn naming
/// the WAL position it reflects), then an endless sequence of WAL batches
/// — each tagged [start_lsn, end_lsn) so the subscriber can detect
/// duplicates and gaps — interleaved with heartbeats carrying the durable
/// LSN and data watermark whenever there is nothing to ship. Subscribing
/// at a non-zero LSN skips the snapshot and resumes batches from there
/// (the reconnect path). A stream pins the WAL at the position it still
/// has to ship; a subscribe below the log head (records freed while the
/// subscriber was away) fails with kOutOfRange: re-bootstrap from LSN 0.
class ReplicationSource {
 public:
  ReplicationSource(core::OdhStore* store,
                    ReplicationSourceOptions options = {},
                    common::MetricsRegistry* metrics = nullptr);

  ReplicationSource(const ReplicationSource&) = delete;
  ReplicationSource& operator=(const ReplicationSource&) = delete;

  /// Streams to one subscriber until its socket breaks or `cancel`
  /// returns true. Returns OK on a cancelled/closed stream, an error for
  /// anything that poisons the stream (WAL corruption, bad subscribe
  /// position).
  Status Serve(Transport* transport, uint64_t from_lsn,
               const std::function<bool()>& cancel);

  int64_t snapshots_served() const {
    return snapshots_served_.load(std::memory_order_relaxed);
  }
  int64_t batches_shipped() const {
    return batches_shipped_.load(std::memory_order_relaxed);
  }
  int64_t records_shipped() const {
    return records_shipped_.load(std::memory_order_relaxed);
  }

 private:
  /// Sends the bootstrap image; `pin` receives the WAL pin taken at its
  /// base LSN.
  Status SendSnapshot(Transport* transport, uint64_t* resume_lsn,
                      uint64_t* pin);

  core::OdhStore* store_;
  ReplicationSourceOptions options_;

  std::atomic<int64_t> snapshots_served_{0};
  std::atomic<int64_t> batches_shipped_{0};
  std::atomic<int64_t> records_shipped_{0};

  common::Counter* snapshots_metric_ = nullptr;
  common::Counter* batches_metric_ = nullptr;
  common::Counter* records_metric_ = nullptr;
};

struct ReplicationClientOptions {
  /// Reconnect/deadline/backoff policy — the SAME value object net::Client
  /// uses, reused verbatim (rpc_deadline_ms bounds each stream read;
  /// heartbeats make that a liveness check on the primary).
  RetryPolicy retry;
  /// Batches applied between local WAL flushes; 1 = flush every batch
  /// (maximum durability, the chaos-test setting).
  int flush_every_batches = 1;
  /// Test hook: fault policy for the subscriber transport.
  FaultPolicy* fault_policy = nullptr;
};

/// Replica side: a background tail loop that subscribes to a primary,
/// feeds the stream into a core::ReplicaApplier, and reconnects with the
/// RetryPolicy's backoff whenever the connection drops — resuming from
/// the applier's LSN, which survives both reconnects and replica crashes
/// (it is re-derived from the replica's own recovered WAL).
///
/// Promotion is just Stop(): the tail loop ends, the applier's store
/// stops receiving the stream, and a read-write server can be started
/// over the same engine.
class ReplicationClient {
 public:
  ReplicationClient(std::string host, int port, core::ReplicaApplier* applier,
                    ReplicationClientOptions options = {});
  ~ReplicationClient();

  ReplicationClient(const ReplicationClient&) = delete;
  ReplicationClient& operator=(const ReplicationClient&) = delete;

  /// Spawns the tail loop. One Start per client.
  Status Start();
  /// Ends the tail loop and joins it. Idempotent.
  void Stop();

  /// Registers odh.repl.* gauges (applied/durable LSN, lag bytes,
  /// staleness, records applied, reconnects) so replica lag shows up in
  /// the odh_metrics table next to everything else.
  void RegisterGauges(common::MetricsRegistry* metrics);

  /// Forwards to the applier — the primary-kill chaos test acks a write
  /// only once this returns true for the write's durable LSN.
  bool WaitForLsn(uint64_t lsn, int timeout_ms) {
    return applier_->WaitForLsn(lsn, timeout_ms);
  }

  int64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// A fatal stream error (kDataLoss gap, corrupt record) that reconnects
  /// cannot fix; the loop parks after recording it.
  Status fatal_error() const;

  core::ReplicaApplier* applier() const { return applier_; }

 private:
  void TailLoop();
  /// One connect/subscribe/apply cycle; returns when the stream breaks.
  Status RunOnce();

  std::string host_;
  int port_;
  core::ReplicaApplier* applier_;
  ReplicationClientOptions options_;

  std::thread tail_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> reconnects_{0};
  /// Successful subscribes (tail thread writes, TailLoop reads to decide
  /// when to restart the backoff schedule).
  std::atomic<int64_t> subscribes_{0};
  /// Tail-thread-only: whether any subscribe ever succeeded.
  bool ever_connected_ = false;

  mutable std::mutex fatal_mu_;
  Status fatal_error_;
};

/// Installs `applier` as `engine`'s replication-info provider, so every
/// session's query profile (and EXPLAIN PROFILE) carries the replica's
/// lag watermark. `applier` must outlive the engine's sessions.
void ExposeReplicationLag(core::ReplicaApplier* applier,
                          sql::SqlEngine* engine);

}  // namespace odh::net

#endif  // ODH_NET_REPLICATION_H_
