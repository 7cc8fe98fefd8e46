#include "core/compactor.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "core/value_blob.h"
#include "core/zone_map.h"

namespace odh::core {
namespace {

/// Sort key for merge planning: runs are only ever formed from consecutive
/// blobs of the same source, so group by id first, then time.
bool ByIdThenBegin(const BlobRecord& a, const BlobRecord& b) {
  return a.id != b.id ? a.id < b.id : a.begin < b.begin;
}

}  // namespace

Result<CompactionReport> SegmentCompactor::CompactSealed(int schema_type) {
  CompactionReport report;
  for (int64_t key : store_->SealedHotSegments(schema_type)) {
    ODH_ASSIGN_OR_RETURN(bool swapped,
                         CompactSegment(schema_type, key, &report));
    if (swapped) {
      ++report.segments_compacted;
    } else {
      ++report.segments_skipped;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_report_ = report;
    last_status_ = Status::OK();
  }
  return report;
}

void SegmentCompactor::CompactSealedAsync(int schema_type) {
  if (pool_ == nullptr) {
    (void)CompactSealed(schema_type);
    return;
  }
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  pool_->Submit([this, schema_type] {
    Result<CompactionReport> result = CompactSealed(schema_type);
    if (!result.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      last_status_ = result.status();
    }
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  });
}

void SegmentCompactor::WaitIdle() const {
  while (inflight_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

CompactionReport SegmentCompactor::last_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_report_;
}

Status SegmentCompactor::last_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_status_;
}

Result<bool> SegmentCompactor::CompactSegment(int schema_type, int64_t key,
                                              CompactionReport* report) {
  ODH_ASSIGN_OR_RETURN(const SchemaType* type,
                       config_->GetSchemaType(schema_type));
  const int num_tags = static_cast<int>(type->tag_names.size());
  ValueBlobCodec decoder(type->compression);
  // Cold tier re-encodes losslessly: the decoded values round-trip exactly
  // (re-applying a lossy codec would compound its quantization error on
  // every compaction), and summaries computed from them stay exact.
  CompressionSpec cold_spec;
  cold_spec.force = true;
  cold_spec.forced_codec = ValueCodec::kXor;
  ValueBlobCodec cold(cold_spec);
  const int64_t cap =
      std::max<int64_t>(config_->options().compaction_max_blob_points, 1);
  const bool zone_maps = config_->options().enable_zone_maps;

  Result<SegmentSnapshot> snapshot = store_->SnapshotSegment(schema_type, key);
  if (snapshot.status().IsNotFound()) return false;  // Dropped meanwhile.
  ODH_RETURN_IF_ERROR(snapshot.status());
  SegmentSnapshot snap = *std::move(snapshot);

  std::sort(snap.rts.begin(), snap.rts.end(), ByIdThenBegin);
  std::sort(snap.irts.begin(), snap.irts.end(), ByIdThenBegin);
  for (const BlobRecord& rec : snap.rts) {
    report->bytes_before += static_cast<int64_t>(rec.blob.size());
  }
  for (const BlobRecord& rec : snap.irts) {
    report->bytes_before += static_cast<int64_t>(rec.blob.size());
  }
  report->blobs_before +=
      static_cast<int64_t>(snap.rts.size() + snap.irts.size());

  // Decodes blobs [i, j) of `src` into one concatenated batch. The run
  // batch and the piece batch keep their capacity from run to run; the
  // run's columns are sized once from the listed point counts.
  SeriesBatch piece;
  auto merge = [&](const std::vector<BlobRecord>& src, size_t i, size_t j,
                   bool irts, SeriesBatch* batch) -> Status {
    size_t points = 0;
    for (size_t k = i; k < j; ++k) points += static_cast<size_t>(src[k].n);
    batch->id = src[i].id;
    batch->timestamps.clear();
    batch->timestamps.reserve(points);
    batch->columns.resize(static_cast<size_t>(num_tags));
    for (std::vector<double>& col : batch->columns) {
      col.clear();
      col.reserve(points);
    }
    for (size_t k = i; k < j; ++k) {
      // Every tag is requested, so every piece column is full length.
      if (irts) {
        ODH_RETURN_IF_ERROR(decoder.DecodeIrts(Slice(src[k].blob), src[k].id,
                                               src[k].begin,
                                               /*wanted_tags=*/{}, num_tags,
                                               &piece));
      } else {
        ODH_RETURN_IF_ERROR(decoder.DecodeRts(Slice(src[k].blob), src[k].id,
                                              src[k].begin, src[k].interval,
                                              /*wanted_tags=*/{}, num_tags,
                                              &piece));
      }
      batch->timestamps.insert(batch->timestamps.end(),
                               piece.timestamps.begin(),
                               piece.timestamps.end());
      for (size_t t = 0; t < batch->columns.size(); ++t) {
        batch->columns[t].insert(batch->columns[t].end(),
                                 piece.columns[t].begin(),
                                 piece.columns[t].end());
      }
    }
    return Status::OK();
  };

  auto emit = [&](SeriesBatch& batch, Timestamp interval, bool irts,
                  std::vector<BlobRecord>* out) -> Status {
    BlobRecord rec;
    rec.id = batch.id;
    rec.begin = batch.timestamps.front();
    rec.end = batch.timestamps.back();
    rec.interval = irts ? 0 : interval;
    rec.n = static_cast<int64_t>(batch.num_points());
    if (irts) {
      ODH_RETURN_IF_ERROR(cold.EncodeIrts(batch, &rec.blob));
    } else {
      ODH_RETURN_IF_ERROR(cold.EncodeRts(batch, interval, &rec.blob));
    }
    if (zone_maps) {
      // Built from the decoded (= stored) values under a lossless codec:
      // no widening, the summary keeps its `exact` bit.
      rec.zone_map = ZoneMap::FromColumns(batch.columns).Encode();
    }
    report->bytes_after += static_cast<int64_t>(rec.blob.size());
    ++report->blobs_after;
    out->push_back(std::move(rec));
    return Status::OK();
  };

  // RTS: merge maximal runs that stay one regular series — same source,
  // same interval, each blob starting exactly one interval after the
  // previous ends — so the merged timestamps are still begin + i*interval.
  SeriesBatch batch;
  std::vector<BlobRecord> new_rts;
  for (size_t i = 0; i < snap.rts.size();) {
    size_t j = i + 1;
    int64_t points = snap.rts[i].n;
    while (j < snap.rts.size() && snap.rts[j].id == snap.rts[i].id &&
           snap.rts[j].interval == snap.rts[i].interval &&
           snap.rts[i].interval > 0 &&
           snap.rts[j].begin ==
               snap.rts[j - 1].end + snap.rts[i].interval &&
           points + snap.rts[j].n <= cap) {
      points += snap.rts[j].n;
      ++j;
    }
    ODH_RETURN_IF_ERROR(merge(snap.rts, i, j, /*irts=*/false, &batch));
    ODH_RETURN_IF_ERROR(
        emit(batch, snap.rts[i].interval, /*irts=*/false, &new_rts));
    i = j;
  }

  // IRTS: merge runs whose time ranges do not overlap (timestamps must
  // stay strictly ordered across the concatenation) and whose gaps hold no
  // blob of the source's RTS series: a regular source stores a one-point
  // or jittered batch as IRTS, and a merged blob spanning its RTS points
  // would put its points out of time order.
  auto rts_in_gap = [&](const BlobRecord& prev, const BlobRecord& next) {
    BlobRecord probe;
    probe.id = prev.id;
    probe.begin = prev.end + 1;
    auto it = std::lower_bound(snap.rts.begin(), snap.rts.end(), probe,
                               ByIdThenBegin);
    return it != snap.rts.end() && it->id == prev.id &&
           it->begin < next.begin;
  };
  std::vector<BlobRecord> new_irts;
  for (size_t i = 0; i < snap.irts.size();) {
    size_t j = i + 1;
    int64_t points = snap.irts[i].n;
    while (j < snap.irts.size() && snap.irts[j].id == snap.irts[i].id &&
           snap.irts[j].begin > snap.irts[j - 1].end &&
           !rts_in_gap(snap.irts[j - 1], snap.irts[j]) &&
           points + snap.irts[j].n <= cap) {
      points += snap.irts[j].n;
      ++j;
    }
    ODH_RETURN_IF_ERROR(merge(snap.irts, i, j, /*irts=*/true, &batch));
    ODH_RETURN_IF_ERROR(emit(batch, 0, /*irts=*/true, &new_irts));
    i = j;
  }

  Status swapped = store_->SwapCompactedSegment(
      schema_type, key, snap.manifest.version, new_rts, new_irts);
  if (swapped.IsAborted() || swapped.IsNotFound()) {
    // A Put or retention drop raced the rewrite; undo this segment's
    // contribution to the footprint deltas and leave it for a later pass.
    for (const BlobRecord& rec : new_rts) {
      report->bytes_after -= static_cast<int64_t>(rec.blob.size());
      --report->blobs_after;
    }
    for (const BlobRecord& rec : new_irts) {
      report->bytes_after -= static_cast<int64_t>(rec.blob.size());
      --report->blobs_after;
    }
    for (const BlobRecord& rec : snap.rts) {
      report->bytes_before -= static_cast<int64_t>(rec.blob.size());
    }
    for (const BlobRecord& rec : snap.irts) {
      report->bytes_before -= static_cast<int64_t>(rec.blob.size());
    }
    report->blobs_before -=
        static_cast<int64_t>(snap.rts.size() + snap.irts.size());
    return false;
  }
  ODH_RETURN_IF_ERROR(swapped);
  return true;
}

}  // namespace odh::core
