#include "net/replication.h"

#include "sql/engine.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/backoff.h"
#include "net/wire.h"

namespace odh::net {

using common::Deadline;
using common::ExponentialBackoff;

namespace {

/// Same transient/permanent split net::Client applies: only errors that a
/// fresh connection could cure are worth a reconnect.
bool RetryableStreamError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kIoError:
      return true;
    default:
      return false;
  }
}

}  // namespace

// ReplicationSource ----------------------------------------------------------

ReplicationSource::ReplicationSource(core::OdhStore* store,
                                     ReplicationSourceOptions options,
                                     common::MetricsRegistry* metrics)
    : store_(store), options_(options) {
  if (options_.max_batch_bytes == 0) options_.max_batch_bytes = 64 * 1024;
  if (metrics != nullptr) {
    snapshots_metric_ = metrics->GetCounter("repl.snapshots_served");
    batches_metric_ = metrics->GetCounter("repl.batches_shipped");
    records_metric_ = metrics->GetCounter("repl.records_shipped");
  }
}

Status ReplicationSource::SendSnapshot(Transport* transport,
                                       uint64_t* resume_lsn) {
  ODH_ASSIGN_OR_RETURN(core::OdhStore::ReplicationSnapshot snap,
                       store_->SnapshotForReplication());
  const Deadline dl = Deadline::AfterMillisOrInfinite(options_.write_deadline_ms);
  ODH_RETURN_IF_ERROR(transport->SendFrame(
      FrameType::kReplSnapshotBegin,
      Slice(EncodeReplSnapshotBegin(snap.base_lsn, snap.records.size())),
      dl));
  std::vector<std::string> chunk;
  size_t chunk_bytes = 0;
  auto flush_chunk = [&]() -> Status {
    if (chunk.empty()) return Status::OK();
    Status sent = transport->SendFrame(
        FrameType::kReplSnapshotChunk, Slice(EncodeReplSnapshotChunk(chunk)),
        Deadline::AfterMillisOrInfinite(options_.write_deadline_ms));
    records_shipped_.fetch_add(static_cast<int64_t>(chunk.size()),
                               std::memory_order_relaxed);
    if (records_metric_ != nullptr) {
      records_metric_->Add(static_cast<int64_t>(chunk.size()));
    }
    chunk.clear();
    chunk_bytes = 0;
    return sent;
  };
  for (std::string& record : snap.records) {
    chunk_bytes += record.size();
    chunk.push_back(std::move(record));
    if (chunk_bytes >= options_.max_batch_bytes) {
      ODH_RETURN_IF_ERROR(flush_chunk());
    }
  }
  ODH_RETURN_IF_ERROR(flush_chunk());
  // Counted once the whole image is on the wire, before the end frame: a
  // subscriber may apply the snapshot and report its LSN before this
  // thread returns from sending the end frame.
  snapshots_served_.fetch_add(1, std::memory_order_relaxed);
  if (snapshots_metric_ != nullptr) snapshots_metric_->Add(1);
  ODH_RETURN_IF_ERROR(transport->SendFrame(
      FrameType::kReplSnapshotEnd, Slice(EncodeReplSnapshotEnd(snap.base_lsn)),
      Deadline::AfterMillisOrInfinite(options_.write_deadline_ms)));
  *resume_lsn = snap.base_lsn;
  return Status::OK();
}

Status ReplicationSource::Serve(Transport* transport, uint64_t from_lsn,
                                const std::function<bool()>& cancel) {
  uint64_t pos = from_lsn;
  if (pos == 0) {
    Status snapped = SendSnapshot(transport, &pos);
    // A subscriber hanging up mid-snapshot is a normal end of stream;
    // anything else (store iteration failure) poisons the serve.
    if (!snapped.ok()) {
      return RetryableStreamError(snapped) ? Status::OK() : snapped;
    }
  } else if (pos > store_->durable_lsn()) {
    return Status::OutOfRange(
        "subscribe lsn " + std::to_string(pos) +
        " is beyond this primary's durable log — stale or wrong primary");
  }

  auto last_heartbeat = std::chrono::steady_clock::now() -
                        std::chrono::milliseconds(options_.heartbeat_interval_ms);
  while (!cancel() && transport->valid()) {
    Result<core::Wal::TailChunk> chunk =
        store_->ReadWal(pos, options_.max_batch_bytes);
    ODH_RETURN_IF_ERROR(chunk.status());
    if (!chunk->records.empty()) {
      Status sent = transport->SendFrame(
          FrameType::kReplWalBatch,
          Slice(EncodeReplWalBatch(pos, chunk->next_lsn, chunk->records)),
          Deadline::AfterMillisOrInfinite(options_.write_deadline_ms));
      if (!sent.ok()) {
        return RetryableStreamError(sent) ? Status::OK() : sent;
      }
      batches_shipped_.fetch_add(1, std::memory_order_relaxed);
      records_shipped_.fetch_add(static_cast<int64_t>(chunk->records.size()),
                                 std::memory_order_relaxed);
      if (batches_metric_ != nullptr) batches_metric_->Add(1);
      if (records_metric_ != nullptr) {
        records_metric_->Add(static_cast<int64_t>(chunk->records.size()));
      }
      pos = chunk->next_lsn;
      continue;  // More may be waiting: keep shipping back to back.
    }
    // Caught up. Heartbeat on cadence so the replica can bound staleness
    // (and notice a dead primary by the heartbeats stopping).
    const auto now = std::chrono::steady_clock::now();
    if (now - last_heartbeat >=
        std::chrono::milliseconds(options_.heartbeat_interval_ms)) {
      last_heartbeat = now;
      Status sent = transport->SendFrame(
          FrameType::kReplHeartbeat,
          Slice(EncodeReplHeartbeat(store_->durable_lsn(),
                                    store_->MaxIngestedTimestamp())),
          Deadline::AfterMillisOrInfinite(options_.write_deadline_ms));
      if (!sent.ok()) {
        return RetryableStreamError(sent) ? Status::OK() : sent;
      }
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.poll_interval_ms));
  }
  return Status::OK();
}

// ReplicationClient ----------------------------------------------------------

ReplicationClient::ReplicationClient(std::string host, int port,
                                     core::ReplicaApplier* applier,
                                     ReplicationClientOptions options)
    : host_(std::move(host)),
      port_(port),
      applier_(applier),
      options_(std::move(options)) {
  if (options_.flush_every_batches < 1) options_.flush_every_batches = 1;
}

ReplicationClient::~ReplicationClient() { Stop(); }

Status ReplicationClient::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("replication client already started");
  }
  tail_thread_ = std::thread([this] { TailLoop(); });
  return Status::OK();
}

void ReplicationClient::Stop() {
  stopping_.store(true, std::memory_order_release);
  if (tail_thread_.joinable()) tail_thread_.join();
}

Status ReplicationClient::fatal_error() const {
  std::lock_guard<std::mutex> lock(fatal_mu_);
  return fatal_error_;
}

void ReplicationClient::RegisterGauges(common::MetricsRegistry* metrics) {
  metrics->RegisterGauge("odh.repl.applied_lsn", [this] {
    return static_cast<double>(applier_->applied_lsn());
  });
  metrics->RegisterGauge("odh.repl.primary_durable_lsn", [this] {
    return static_cast<double>(applier_->primary_durable_lsn());
  });
  metrics->RegisterGauge("odh.repl.lag_bytes", [this] {
    return static_cast<double>(applier_->lag_bytes());
  });
  metrics->RegisterGauge("odh.repl.staleness_micros", [this] {
    return static_cast<double>(applier_->staleness_micros());
  });
  metrics->RegisterGauge("odh.repl.records_applied", [this] {
    return static_cast<double>(applier_->records_applied());
  });
  metrics->RegisterGauge("odh.repl.reconnects", [this] {
    return static_cast<double>(reconnects());
  });
}

Status ReplicationClient::RunOnce() {
  const RetryPolicy& retry = options_.retry;
  if (options_.fault_policy != nullptr) {
    NetFaultDecision fault = options_.fault_policy->OnConnect();
    if (fault.kind == NetFaultDecision::Kind::kStall) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(fault.stall_millis));
    } else if (fault.kind != NetFaultDecision::Kind::kNone) {
      return Status::Unavailable("injected connect fault");
    }
  }
  Deadline connect_dl =
      Deadline::AfterMillisOrInfinite(retry.connect_timeout_ms);
  ODH_ASSIGN_OR_RETURN(int fd, ConnectWithDeadline(host_, port_, connect_dl));
  Transport transport(fd, options_.fault_policy);

  ODH_RETURN_IF_ERROR(transport.SendFrame(
      FrameType::kHello, Slice(EncodeHello(kProtocolVersion)), connect_dl));
  Frame frame;
  ODH_ASSIGN_OR_RETURN(bool got, transport.ReadFrame(&frame, connect_dl));
  if (!got) return Status::IoError("primary closed during handshake");
  if (frame.type == FrameType::kRejected) {
    RejectCode code = RejectCode::kUnknown;
    std::string reason;
    DecodeRejected(Slice(frame.payload), &code, &reason);
    switch (code) {
      case RejectCode::kTooManySessions:
      case RejectCode::kDraining:
      case RejectCode::kMemoryPressure:
        return Status::ResourceExhausted("primary rejected subscriber: " +
                                         reason);
      default:
        return Status::FailedPrecondition("primary rejected subscriber: " +
                                          reason);
    }
  }
  uint32_t version = 0;
  uint64_t session_id = 0;
  if (frame.type != FrameType::kWelcome ||
      !DecodeWelcome(Slice(frame.payload), &version, &session_id)) {
    return Status::IoError("bad handshake reply from primary");
  }

  const uint64_t from_lsn = applier_->applied_lsn();
  ODH_RETURN_IF_ERROR(transport.SendFrame(
      FrameType::kReplSubscribe, Slice(EncodeReplSubscribe(from_lsn)),
      Deadline::AfterMillisOrInfinite(retry.rpc_deadline_ms)));
  if (ever_connected_) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  ever_connected_ = true;
  subscribes_.fetch_add(1, std::memory_order_relaxed);

  uint64_t snapshot_base = 0;
  bool in_snapshot = false;
  int batches_since_flush = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    // Heartbeats arrive every heartbeat_interval_ms, so the rpc deadline
    // doubles as a primary-liveness bound: a silent primary times the
    // read out and the tail loop reconnects.
    Result<bool> more = transport.ReadFrame(
        &frame, Deadline::AfterMillisOrInfinite(retry.rpc_deadline_ms));
    ODH_RETURN_IF_ERROR(more.status());
    if (!more.value()) return Status::IoError("primary closed the stream");
    switch (frame.type) {
      case FrameType::kReplSnapshotBegin: {
        uint64_t record_count = 0;
        if (!DecodeReplSnapshotBegin(Slice(frame.payload), &snapshot_base,
                                     &record_count)) {
          return Status::Corruption("bad snapshot-begin frame");
        }
        if (from_lsn != 0) {
          return Status::Corruption("unsolicited snapshot on a resume");
        }
        in_snapshot = true;
        applier_->BeginSnapshot();
        break;
      }
      case FrameType::kReplSnapshotChunk: {
        std::vector<std::string> records;
        if (!in_snapshot ||
            !DecodeReplSnapshotChunk(Slice(frame.payload), &records)) {
          return Status::Corruption("bad snapshot chunk");
        }
        applier_->AddSnapshotRecords(std::move(records));
        break;
      }
      case FrameType::kReplSnapshotEnd: {
        uint64_t base = 0;
        if (!in_snapshot ||
            !DecodeReplSnapshotEnd(Slice(frame.payload), &base) ||
            base != snapshot_base) {
          return Status::Corruption("bad snapshot end");
        }
        in_snapshot = false;
        ODH_RETURN_IF_ERROR(applier_->FinishSnapshot(base));
        break;
      }
      case FrameType::kReplWalBatch: {
        uint64_t start_lsn = 0, end_lsn = 0;
        std::vector<std::string> records;
        if (in_snapshot || !DecodeReplWalBatch(Slice(frame.payload),
                                               &start_lsn, &end_lsn,
                                               &records)) {
          return Status::Corruption("bad wal batch frame");
        }
        ODH_RETURN_IF_ERROR(
            applier_->ApplyWalBatch(start_lsn, end_lsn, records));
        if (++batches_since_flush >= options_.flush_every_batches) {
          ODH_RETURN_IF_ERROR(applier_->Flush());
          batches_since_flush = 0;
        }
        break;
      }
      case FrameType::kReplHeartbeat: {
        uint64_t durable = 0;
        int64_t watermark = 0;
        if (!DecodeReplHeartbeat(Slice(frame.payload), &durable,
                                 &watermark)) {
          return Status::Corruption("bad heartbeat frame");
        }
        applier_->ObserveHeartbeat(durable, watermark);
        // Idle moment: make the applied prefix durable (no-op when
        // nothing new arrived since the last flush).
        ODH_RETURN_IF_ERROR(applier_->Flush());
        batches_since_flush = 0;
        break;
      }
      case FrameType::kError: {
        Status remote;
        if (!DecodeError(Slice(frame.payload), &remote)) {
          return Status::IoError("bad error frame from primary");
        }
        return remote;
      }
      default:
        return Status::Corruption("unexpected frame in replication stream");
    }
  }
  return Status::OK();  // Stop() requested.
}

void ReplicationClient::TailLoop() {
  ExponentialBackoff backoff(options_.retry.initial_backoff_ms,
                             options_.retry.max_backoff_ms,
                             options_.retry.backoff_seed);
  while (!stopping_.load(std::memory_order_acquire)) {
    const int64_t subscribes_before =
        subscribes_.load(std::memory_order_relaxed);
    Status status = RunOnce();
    if (stopping_.load(std::memory_order_acquire)) break;
    if (status.ok()) continue;
    if (!RetryableStreamError(status)) {
      // A gap, corruption, or rejection reconnecting cannot cure: park the
      // loop and surface the error through fatal_error(). (Resuming needs
      // operator action — typically wiping the replica and
      // re-bootstrapping from LSN 0.)
      std::lock_guard<std::mutex> lock(fatal_mu_);
      fatal_error_ = status;
      return;
    }
    // A successful subscribe happened this cycle: the link was healthy
    // for a while, so start the next backoff schedule fresh.
    if (subscribes_.load(std::memory_order_relaxed) != subscribes_before) {
      backoff = ExponentialBackoff(options_.retry.initial_backoff_ms,
                                   options_.retry.max_backoff_ms,
                                   options_.retry.backoff_seed);
    }
    // Sleep the backoff in small slices so Stop() stays responsive.
    int64_t remaining_ms = backoff.NextDelayMillis();
    while (remaining_ms > 0 && !stopping_.load(std::memory_order_acquire)) {
      const int64_t slice = remaining_ms < 5 ? remaining_ms : 5;
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      remaining_ms -= slice;
    }
  }
}

void ExposeReplicationLag(core::ReplicaApplier* applier,
                          sql::SqlEngine* engine) {
  engine->set_replication_info_provider([applier] {
    sql::SqlEngine::ReplicationInfo info;
    info.is_replica = true;
    info.applied_lsn = applier->applied_lsn();
    info.primary_durable_lsn = applier->primary_durable_lsn();
    info.lag_bytes = applier->lag_bytes();
    info.watermark_micros = applier->applied_watermark();
    info.staleness_micros = applier->staleness_micros();
    return info;
  });
}

}  // namespace odh::net
