#include "core/replica.h"

#include <chrono>
#include <utility>

namespace odh::core {

void ReplicaApplier::BeginSnapshot() { snapshot_records_.clear(); }

void ReplicaApplier::AddSnapshotRecords(std::vector<std::string> payloads) {
  for (std::string& payload : payloads) {
    snapshot_records_.push_back(std::move(payload));
  }
}

Status ReplicaApplier::FinishSnapshot(uint64_t base_lsn) {
  std::vector<std::string> records = std::move(snapshot_records_);
  snapshot_records_.clear();
  for (const std::string& payload : records) {
    ODH_RETURN_IF_ERROR(ApplyRecord(payload));
  }
  if (in_episode_) {
    return Status::Corruption("snapshot ended inside a compaction episode");
  }
  ODH_RETURN_IF_ERROR(Flush());
  SetAppliedLsn(base_lsn);
  return Status::OK();
}

Status ReplicaApplier::ApplyWalBatch(uint64_t start_lsn, uint64_t end_lsn,
                                     const std::vector<std::string>& payloads) {
  const uint64_t applied = applied_lsn();
  if (end_lsn <= applied) return Status::OK();  // Duplicate after reconnect.
  if (start_lsn > applied) {
    return Status::DataLoss(
        "replication gap: batch starts at lsn " + std::to_string(start_lsn) +
        " but only " + std::to_string(applied) + " bytes are applied");
  }
  if (start_lsn < applied) {
    // A batch straddling the applied position would re-apply a prefix;
    // the source always resumes exactly at the subscriber's LSN, so this
    // is a protocol violation, not a benign overlap.
    return Status::DataLoss("replication batch overlaps applied prefix");
  }
  for (const std::string& payload : payloads) {
    ODH_RETURN_IF_ERROR(ApplyRecord(payload));
  }
  SetAppliedLsn(end_lsn);
  if (end_lsn > primary_durable_lsn()) {
    primary_durable_lsn_.store(end_lsn, std::memory_order_release);
  }
  return Status::OK();
}

void ReplicaApplier::ObserveHeartbeat(uint64_t durable_lsn,
                                      int64_t watermark_micros) {
  if (durable_lsn > primary_durable_lsn()) {
    primary_durable_lsn_.store(durable_lsn, std::memory_order_release);
  }
  if (watermark_micros > primary_watermark()) {
    primary_watermark_.store(watermark_micros, std::memory_order_release);
  }
}

Status ReplicaApplier::Flush() {
  for (int schema_type : touched_types_) {
    ODH_RETURN_IF_ERROR(store_->Sync(schema_type));
  }
  touched_types_.clear();
  return Status::OK();
}

bool ReplicaApplier::WaitForLsn(uint64_t lsn, int timeout_ms) {
  std::unique_lock<std::mutex> lock(lsn_mu_);
  return lsn_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                          [&] { return applied_lsn() >= lsn; });
}

void ReplicaApplier::SetAppliedLsn(uint64_t lsn) {
  {
    std::lock_guard<std::mutex> lock(lsn_mu_);
    applied_lsn_.store(lsn, std::memory_order_release);
  }
  lsn_cv_.notify_all();
}

void ReplicaApplier::AdvanceWatermark(int64_t end_ts) {
  if (end_ts > applied_watermark()) {
    applied_watermark_.store(end_ts, std::memory_order_release);
  }
}

Status ReplicaApplier::ApplyPut(const WalRecord& rec) {
  switch (rec.kind) {
    case WalRecord::Kind::kRts:
      return store_->PutRts(rec.schema_type, rec.id_or_group, rec.begin,
                            rec.end, rec.interval, rec.n, rec.blob,
                            rec.zone_map);
    case WalRecord::Kind::kIrts:
      return store_->PutIrts(rec.schema_type, rec.id_or_group, rec.begin,
                             rec.end, rec.n, rec.blob, rec.zone_map);
    case WalRecord::Kind::kMg:
      return store_->PutMg(rec.schema_type, rec.id_or_group, rec.begin,
                           rec.end, rec.n, rec.blob, rec.zone_map);
    default:
      return Status::Internal("ApplyPut on a non-put record");
  }
}

Status ReplicaApplier::CommitCompaction() {
  in_episode_ = false;
  std::vector<BlobRecord> rts = std::move(episode_rts_);
  std::vector<BlobRecord> irts = std::move(episode_irts_);
  episode_rts_.clear();
  episode_irts_.clear();

  // The swap can race the replica's own background compactor bumping the
  // segment version; re-snapshot and retry a few times before giving up.
  for (int attempt = 0; attempt < 8; ++attempt) {
    Result<SegmentSnapshot> snap =
        store_->SnapshotSegment(episode_schema_, episode_key_);
    if (snap.status().IsNotFound()) {
      // The segment never materialized locally (bootstrap snapshot already
      // contained the compacted form, so nothing routed rows here). The
      // replacement blobs ARE the segment's content: apply them as puts.
      for (const BlobRecord& r : rts) {
        ODH_RETURN_IF_ERROR(store_->PutRts(episode_schema_, r.id, r.begin,
                                           r.end, r.interval, r.n, r.blob,
                                           r.zone_map));
      }
      for (const BlobRecord& r : irts) {
        ODH_RETURN_IF_ERROR(store_->PutIrts(episode_schema_, r.id, r.begin,
                                            r.end, r.n, r.blob, r.zone_map));
      }
      return Status::OK();
    }
    ODH_RETURN_IF_ERROR(snap.status());
    Status swapped = store_->SwapCompactedSegment(
        episode_schema_, episode_key_, snap->manifest.version, rts, irts);
    if (!swapped.IsAborted()) return swapped;
  }
  return Status::Aborted("replicated compaction kept racing local writes");
}

Status ReplicaApplier::ApplyRecord(const std::string& payload) {
  WalRecord rec;
  if (!WalRecord::Decode(Slice(payload), &rec)) {
    return Status::Corruption("undecodable replicated WAL record");
  }
  touched_types_.insert(rec.schema_type);
  records_applied_.fetch_add(1, std::memory_order_release);

  if (in_episode_) {
    // Between CompactBegin and CompactCommit only replacement kRts/kIrts
    // records (for the episode's segment) are legal.
    switch (rec.kind) {
      case WalRecord::Kind::kRts:
      case WalRecord::Kind::kIrts: {
        BlobRecord blob;
        blob.id = rec.id_or_group;
        blob.begin = rec.begin;
        blob.end = rec.end;
        blob.interval = rec.interval;
        blob.n = rec.n;
        blob.blob = std::move(rec.blob);
        blob.zone_map = std::move(rec.zone_map);
        (rec.kind == WalRecord::Kind::kRts ? episode_rts_ : episode_irts_)
            .push_back(std::move(blob));
        return Status::OK();
      }
      case WalRecord::Kind::kSegmentCompactCommit:
        return CommitCompaction();
      default:
        return Status::Corruption(
            "unexpected record kind inside a compaction episode");
    }
  }

  switch (rec.kind) {
    case WalRecord::Kind::kRts:
    case WalRecord::Kind::kIrts:
    case WalRecord::Kind::kMg: {
      ODH_RETURN_IF_ERROR(ApplyPut(rec));
      AdvanceWatermark(rec.end);
      return Status::OK();
    }
    case WalRecord::Kind::kMgDelete:
      return store_->DeleteMgByContent(rec.schema_type, rec.id_or_group,
                                       rec.begin, rec.end, rec.n);
    case WalRecord::Kind::kSegmentCompactBegin:
      in_episode_ = true;
      episode_schema_ = rec.schema_type;
      episode_key_ = rec.id_or_group;
      episode_rts_.clear();
      episode_irts_.clear();
      return Status::OK();
    case WalRecord::Kind::kSegmentCompactCommit:
      return Status::Corruption("compaction commit without a begin");
    case WalRecord::Kind::kSegmentDrop:
      return store_->ApplyReplicatedDrop(rec.schema_type, rec.id_or_group,
                                         rec.begin, rec.end);
  }
  return Status::Internal("unreachable");
}

}  // namespace odh::core
