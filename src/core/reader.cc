#include "core/reader.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "core/blob_cache.h"

namespace odh::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

using BlobKind = BlobStructure;

struct QueuedBlob {
  BlobKind kind;
  BlobRecord record;
};

/// Blobs per parallel scan unit: small enough that several units per
/// segment keep the merge frontier close behind the workers, large enough
/// to amortize the submit/notify overhead.
constexpr size_t kUnitMaxBlobs = 8;
/// Decoded batches a unit buffers ahead of the merge frontier before its
/// worker parks (bounded ordered merge: memory stays O(units * buffer)).
constexpr size_t kUnitBufferBatches = 8;

uint64_t PackRid(const relational::Rid& rid) {
  return (static_cast<uint64_t>(rid.page) << 32) | rid.slot;
}

/// Cache identity of the decoded tag set. Empty wanted list means "decode
/// everything" (the codec's convention); a tag outside [0, 63) cannot be
/// represented and makes the scan uncacheable.
bool TagMaskOf(const std::vector<int>& wanted_tags, uint64_t* mask) {
  if (wanted_tags.empty()) {
    *mask = ~0ull;
    return true;
  }
  uint64_t m = 0;
  for (int t : wanted_tags) {
    if (t < 0 || t >= 63) return false;
    m |= 1ull << t;
  }
  *mask = m;
  return true;
}

/// Decoded footprint of a cached batch (the LRU charges this).
size_t BatchBytes(const RecordBatch& b) {
  size_t bytes = sizeof(RecordBatch);
  bytes += b.ids.size() * sizeof(SourceId);
  bytes += b.timestamps.size() * sizeof(Timestamp);
  for (const auto& col : b.columns) {
    bytes += col.size() * sizeof(double) + sizeof(col);
  }
  return bytes;
}

/// Copies the [lo, hi] (and, when `id_filter` >= 0 and the batch carries
/// per-row ids, matching-id) rows of a cached untrimmed decode into *out —
/// exactly the rows the serial decode-and-trim path would have produced,
/// in the same order, from the same decoded doubles.
void TrimBatch(const RecordBatch& src, Timestamp lo, Timestamp hi,
               SourceId id_filter, RecordBatch* out) {
  out->uniform_id = src.uniform_id;
  const size_t n = src.rows();
  const bool has_ids = !src.ids.empty();
  bool all = true;
  std::vector<uint32_t> sel;
  sel.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (src.timestamps[i] < lo || src.timestamps[i] > hi ||
        (has_ids && id_filter >= 0 && src.ids[i] != id_filter)) {
      all = false;
      continue;
    }
    sel.push_back(static_cast<uint32_t>(i));
  }
  if (all) {
    out->ids = src.ids;
    out->timestamps = src.timestamps;
    out->columns = src.columns;
    return;
  }
  if (has_ids) {
    out->ids.reserve(sel.size());
    for (uint32_t i : sel) out->ids.push_back(src.ids[i]);
  }
  out->timestamps.reserve(sel.size());
  for (uint32_t i : sel) out->timestamps.push_back(src.timestamps[i]);
  out->columns.resize(src.columns.size());
  for (size_t c = 0; c < src.columns.size(); ++c) {
    const auto& col = src.columns[c];
    if (col.empty()) continue;  // Stays empty (reads as all-missing).
    out->columns[c].reserve(sel.size());
    for (uint32_t i : sel) out->columns[c].push_back(col[i]);
  }
}

/// Transposes row-format records (MG decode, dirty buffers) into a
/// columnar batch with an explicit id vector.
void ColumnarizeInto(const std::vector<OperationalRecord>& records,
                     int num_tags, RecordBatch* batch) {
  const size_t n = records.size();
  batch->ids.reserve(n);
  batch->timestamps.reserve(n);
  batch->columns.assign(static_cast<size_t>(num_tags), {});
  for (auto& col : batch->columns) col.reserve(n);
  for (const auto& r : records) {
    batch->ids.push_back(r.id);
    batch->timestamps.push_back(r.ts);
    for (int t = 0; t < num_tags; ++t) {
      batch->columns[t].push_back(
          t < static_cast<int>(r.tags.size()) ? r.tags[t] : kNaN);
    }
  }
}

}  // namespace

/// Implementation shared by historical and slice scans, row and batch
/// flavors. Historical scans queue the (bounded, per-source) blob lists up
/// front; slice scans pull the series containers one segment chunk at a
/// time through OdhStore::NextSliceChunk (so no table iterator outlives
/// the store mutex) and use the (begin_ts, group) index for MG. Every blob
/// decodes into one columnar RecordBatch — the batch cursor hands those
/// out directly, the row cursor drains them one record at a time.
///
/// With a thread pool, the queued blobs are decoded in parallel right
/// after Init (each pool task decodes into its own slot, so emission order
/// is still queue order — byte-identical to the sequential scan); the
/// streaming side of slice scans remains sequential. The codec is
/// stateless, so one instance serves all decode tasks.
///
/// With a pool AND query_parallelism >= 2, multi-segment scans instead run
/// the segment-parallel driver: the candidate blobs split into scan units
/// along (structure, segment) boundaries, slice scans get one pinned
/// SliceCursor unit per surviving segment, and a bounded window of units
/// decodes on the pool while the cursor thread merges their batches back
/// in unit order — the exact sequence (including zero-row pruned batches)
/// the serial scan emits. Workers never block: a unit whose ready buffer
/// is full parks (returns its pool thread) and the consumer resubmits it
/// after draining. The decoded-blob cache, when configured, serves both
/// paths.
class OdhScanCursorImpl : public RecordCursor, public RecordBatchCursor {
 public:
  OdhScanCursorImpl(OdhReader* reader, int schema_type, SourceId id,
                    Timestamp lo, Timestamp hi, std::vector<int> wanted_tags,
                    std::vector<TagFilter> tag_filters, int num_tags,
                    CompressionSpec spec, common::ScanCounters* counters,
                    bool count_pruning)
      : reader_(reader),
        schema_type_(schema_type),
        id_(id),
        lo_(lo),
        hi_(hi),
        wanted_tags_(std::move(wanted_tags)),
        tag_filters_(std::move(tag_filters)),
        num_tags_(num_tags),
        codec_(spec),
        counters_(counters),
        count_pruning_(count_pruning) {
    cache_usable_ = TagMaskOf(wanted_tags_, &tag_mask_);
  }

  ~OdhScanCursorImpl() { AbandonParallel(); }

  Status Init(const RouteDecision& route) {
    return id_ >= 0 ? InitHistorical(route) : InitSlice(route);
  }

  Status InitHistorical(const RouteDecision& route) {
    SegmentScanStats seg_stats;
    ODH_ASSIGN_OR_RETURN(OdhStore::HistoricalListing listing,
                         reader_->ListConsistent(schema_type_, id_, route,
                                                 lo_, hi_, &seg_stats,
                                                 &dirty_));
    for (auto& b : listing.rts) {
      queued_.push_back({BlobKind::kRts, std::move(b)});
    }
    for (auto& b : listing.irts) {
      queued_.push_back({BlobKind::kIrts, std::move(b)});
    }
    for (auto& b : listing.mg) {
      queued_.push_back({BlobKind::kMg, std::move(b)});
    }
    CountSegmentsPruned(seg_stats);
    if (reader_->EffectiveParallelism() >= 2 && queued_.size() >= 2) {
      const size_t groups = BuildUnitsFromQueued();
      if (units_.size() >= 2) {
        StartParallel(groups);
      } else {
        // One unit cannot beat the serial predecode; restore the queue.
        for (auto& u : units_) {
          for (auto& b : u->blobs) queued_.push_back(std::move(b));
        }
        units_.clear();
      }
    }
    if (!parallel_) PredecodeQueued();
    return Status::OK();
  }

  Status InitSlice(const RouteDecision& route) {
    if (route.scan_mg) {
      SegmentScanStats seg_stats;
      ODH_ASSIGN_OR_RETURN(auto blobs,
                           reader_->store_->GetMg(schema_type_, -1, lo_,
                                                  hi_, &seg_stats));
      CountSegmentsPruned(seg_stats);
      for (auto& b : blobs) {
        queued_.push_back({BlobKind::kMg, std::move(b)});
      }
    }
    if (reader_->EffectiveParallelism() >= 2) {
      // Commit to the unit driver before listing segments: SliceSegments
      // counts segment pruning, so a post-listing fallback to the
      // streaming path would double-count it.
      size_t groups = BuildUnitsFromQueued();
      SegmentScanStats seg_stats;
      if (route.scan_rts) {
        ODH_ASSIGN_OR_RETURN(auto keys,
                             reader_->store_->SliceSegments(
                                 schema_type_, /*irts=*/false, lo_, hi_,
                                 &seg_stats));
        groups += keys.size();
        AddSliceUnits(/*irts=*/false, keys);
      }
      if (route.scan_irts) {
        ODH_ASSIGN_OR_RETURN(auto keys,
                             reader_->store_->SliceSegments(
                                 schema_type_, /*irts=*/true, lo_, hi_,
                                 &seg_stats));
        groups += keys.size();
        AddSliceUnits(/*irts=*/true, keys);
      }
      CountSegmentsPruned(seg_stats);
      StartParallel(groups);
    } else {
      rts_stream_.active = route.scan_rts;
      irts_stream_.active = route.scan_irts;
      PredecodeQueued();
    }
    return CollectDirty();
  }

  /// Row-at-a-time view: drains the current batch record by record.
  /// Poison contract: a failed refill poisons the cursor — continuing past
  /// it would silently drop the blob that failed to decode and resume with
  /// the next one, truncating the scan.
  Result<bool> Next(OperationalRecord* record) override {
    if (!poison_.ok()) return poison_;
    while (true) {
      if (row_pos_ < batch_.rows()) {
        const size_t i = row_pos_++;
        record->id = batch_.id_at(i);
        record->ts = batch_.timestamps[i];
        record->tags.assign(static_cast<size_t>(num_tags_), kNaN);
        for (int t = 0; t < num_tags_; ++t) {
          if (!batch_.columns[t].empty()) {
            record->tags[t] = batch_.columns[t][i];
          }
        }
        reader_->records_emitted_.fetch_add(1, std::memory_order_relaxed);
        if (counters_ != nullptr) {
          counters_->rows_scanned.fetch_add(1, std::memory_order_relaxed);
        }
        return true;
      }
      row_pos_ = 0;
      Result<bool> refilled = ProduceBatch(&batch_);
      if (!refilled.ok()) return poison_ = refilled.status();
      if (!refilled.value()) return false;
    }
  }

  /// Columnar view: one decoded blob per call (possibly zero rows).
  Result<bool> Next(RecordBatch* batch) override {
    if (!poison_.ok()) return poison_;
    Result<bool> produced = ProduceBatch(batch);
    if (!produced.ok()) return poison_ = produced.status();
    const bool more = produced.value();
    if (more) {
      reader_->records_emitted_.fetch_add(
          static_cast<int64_t>(batch->rows()), std::memory_order_relaxed);
      if (counters_ != nullptr) {
        counters_->batches.fetch_add(1, std::memory_order_relaxed);
        counters_->rows_scanned.fetch_add(
            static_cast<int64_t>(batch->rows()), std::memory_order_relaxed);
      }
    }
    return more;
  }

 private:
  Status CollectDirty() {
    return reader_->writer_->CollectDirty(schema_type_, id_, lo_, hi_,
                                          &dirty_);
  }

  /// Refills *batch from the next source of blobs: pre-decoded slots first
  /// (same order the blobs were queued in), then lazy decode, then the
  /// streaming scans, then the dirty buffers. False at end of stream.
  Result<bool> ProduceBatch(RecordBatch* batch) {
    batch->clear();
    if (parallel_) {
      ODH_ASSIGN_OR_RETURN(bool got, NextParallelBatch(batch));
      if (got) return true;
      if (!dirty_.empty()) {
        ColumnarizeRecords(dirty_, batch);
        dirty_.clear();
        return true;
      }
      return false;
    }
    if (!decoded_.empty()) {
      ODH_RETURN_IF_ERROR(decoded_statuses_.front());
      *batch = std::move(decoded_.front());
      decoded_.pop_front();
      decoded_statuses_.pop_front();
      return true;
    }
    if (!queued_.empty()) {
      QueuedBlob blob = std::move(queued_.front());
      queued_.pop_front();
      ODH_RETURN_IF_ERROR(DecodeBlobToBatch(blob, batch));
      return true;
    }
    ODH_ASSIGN_OR_RETURN(bool streamed, RefillFromStreams(batch));
    if (streamed) return true;
    if (!dirty_.empty()) {
      ColumnarizeRecords(dirty_, batch);
      dirty_.clear();
      return true;
    }
    return false;
  }

  /// Fans the queued blobs out to the reader's pool, one result slot per
  /// blob. Decode errors are parked in decoded_statuses_ and surface from
  /// Next at the position the sequential scan would have hit them.
  void PredecodeQueued() {
    common::ThreadPool* pool = reader_->pool_;
    if (pool == nullptr || pool->num_threads() < 2 || queued_.size() < 2) {
      return;
    }
    const size_t n = queued_.size();
    std::vector<QueuedBlob> blobs(std::make_move_iterator(queued_.begin()),
                                  std::make_move_iterator(queued_.end()));
    queued_.clear();
    decoded_.resize(n);
    decoded_statuses_.resize(n);
    pool->ParallelFor(static_cast<int64_t>(n), [&](int64_t i) {
      decoded_statuses_[static_cast<size_t>(i)] =
          DecodeBlobToBatch(blobs[static_cast<size_t>(i)],
                            &decoded_[static_cast<size_t>(i)]);
    });
  }

  /// Folds a store segment-elimination count into the reader-global and
  /// per-query counters.
  void CountSegmentsPruned(const SegmentScanStats& seg_stats) {
    if (!count_pruning_ || seg_stats.segments_pruned == 0) return;
    reader_->segments_pruned_.fetch_add(seg_stats.segments_pruned,
                                        std::memory_order_relaxed);
    if (counters_ != nullptr) {
      counters_->segments_pruned.fetch_add(seg_stats.segments_pruned,
                                           std::memory_order_relaxed);
    }
  }

  /// Pulls the next overlapping blob from the chunked slice scans: RTS
  /// first, then IRTS, each advancing one segment at a time through the
  /// store (the chunk is materialized under the store mutex, so a
  /// concurrent retention drop can never invalidate this cursor).
  Result<bool> RefillFromStreams(RecordBatch* batch) {
    for (auto* stream : {&rts_stream_, &irts_stream_}) {
      const bool is_irts = stream == &irts_stream_;
      if (!stream->active) continue;
      while (true) {
        if (!stream->buffered.empty()) {
          QueuedBlob blob{is_irts ? BlobKind::kIrts : BlobKind::kRts,
                          std::move(stream->buffered.front())};
          stream->buffered.pop_front();
          ODH_RETURN_IF_ERROR(DecodeBlobToBatch(blob, batch));
          return true;
        }
        if (stream->done) break;
        SegmentScanStats seg_stats;
        std::vector<BlobRecord> chunk;
        ODH_RETURN_IF_ERROR(reader_->store_->NextSliceChunk(
            schema_type_, is_irts, lo_, hi_, &stream->cursor, &chunk,
            &stream->done, &seg_stats));
        CountSegmentsPruned(seg_stats);
        for (auto& rec : chunk) stream->buffered.push_back(std::move(rec));
      }
    }
    return false;
  }

  /// Zone-map pruning: skip the blob when its per-tag ranges cannot
  /// satisfy the pushed filters (paper §6 future work).
  bool Prunable(const BlobRecord& record) const {
    if (tag_filters_.empty() || record.zone_map.empty()) return false;
    auto map = ZoneMap::Decode(Slice(record.zone_map));
    if (!map.ok()) return false;  // Corrupt summaries never prune.
    return !map->MayMatch(tag_filters_);
  }

  /// Decodes one blob into a columnar batch, trimmed to [lo_, hi_]. Pruned
  /// blobs leave *batch empty. Called from pool tasks as well as the
  /// cursor thread; touches only immutable cursor state, the reader's
  /// atomic counters, and the (thread-safe) blob cache.
  Status DecodeBlobToBatch(const QueuedBlob& blob, RecordBatch* batch) {
    if (Prunable(blob.record)) {
      reader_->blobs_pruned_.fetch_add(1, std::memory_order_relaxed);
      if (counters_ != nullptr) {
        counters_->blobs_pruned.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::OK();
    }
    BlobCache* cache = reader_->cache_;
    if (cache != nullptr && cache_usable_) {
      BlobCacheKey key;
      key.schema_type = schema_type_;
      key.structure = blob.kind;
      key.seg = blob.record.seg;
      key.generation = blob.record.generation;
      key.rid = PackRid(blob.record.rid);
      key.tag_mask = tag_mask_;
      // MG blobs mix sources, so the cached value is un-id-filtered and
      // TrimBatch applies the id constraint; series blobs are single-id.
      const SourceId id_filter = blob.kind == BlobKind::kMg ? id_ : -1;
      if (auto hit = cache->Lookup(key)) {
        reader_->blob_cache_hits_.fetch_add(1, std::memory_order_relaxed);
        if (counters_ != nullptr) {
          counters_->blob_cache_hits.fetch_add(1, std::memory_order_relaxed);
        }
        TrimBatch(*hit, lo_, hi_, id_filter, batch);
        return Status::OK();
      }
      auto full = std::make_shared<RecordBatch>();
      ODH_RETURN_IF_ERROR(DecodeUntrimmed(blob, full.get()));
      TrimBatch(*full, lo_, hi_, id_filter, batch);
      const size_t bytes = BatchBytes(*full);
      cache->Insert(key, std::move(full), bytes);
      return Status::OK();
    }
    // Cache off (or unrepresentable tag set): decode straight into the
    // output batch and trim in place — the zero-extra-copy fast path.
    CountDecoded(blob.record);
    if (blob.kind == BlobKind::kMg) {
      std::vector<OperationalRecord> records;
      ODH_RETURN_IF_ERROR(codec_.DecodeMg(Slice(blob.record.blob),
                                          blob.record.begin, wanted_tags_,
                                          num_tags_, &records));
      std::vector<OperationalRecord> kept;
      kept.reserve(records.size());
      for (auto& r : records) {
        if (r.ts < lo_ || r.ts > hi_) continue;
        if (id_ >= 0 && r.id != id_) continue;
        kept.push_back(std::move(r));
      }
      ColumnarizeRecords(kept, batch);
      return Status::OK();
    }
    SeriesBatch series;
    if (blob.kind == BlobKind::kRts) {
      ODH_RETURN_IF_ERROR(codec_.DecodeRts(
          Slice(blob.record.blob), blob.record.id, blob.record.begin,
          blob.record.interval, wanted_tags_, num_tags_, &series));
    } else {
      ODH_RETURN_IF_ERROR(codec_.DecodeIrts(Slice(blob.record.blob),
                                            blob.record.id,
                                            blob.record.begin, wanted_tags_,
                                            num_tags_, &series));
    }
    // In-place trim to the time range; when nothing is dropped (interior
    // blob, the common case) the loop writes nothing and the decoded
    // columns move straight into the batch.
    const size_t n = series.num_points();
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      if (series.timestamps[i] < lo_ || series.timestamps[i] > hi_) continue;
      if (kept != i) {
        series.timestamps[kept] = series.timestamps[i];
        for (auto& col : series.columns) {
          if (!col.empty()) col[kept] = col[i];
        }
      }
      ++kept;
    }
    series.timestamps.resize(kept);
    for (auto& col : series.columns) {
      if (!col.empty()) col.resize(kept);
    }
    batch->uniform_id = series.id;
    batch->timestamps = std::move(series.timestamps);
    batch->columns = std::move(series.columns);
    batch->columns.resize(static_cast<size_t>(num_tags_));
    return Status::OK();
  }

  void CountDecoded(const BlobRecord& rec) {
    reader_->blobs_decoded_.fetch_add(1, std::memory_order_relaxed);
    reader_->blob_bytes_read_.fetch_add(
        static_cast<int64_t>(rec.blob.size()), std::memory_order_relaxed);
    if (counters_ != nullptr) {
      counters_->blobs_decoded.fetch_add(1, std::memory_order_relaxed);
      counters_->blob_bytes_read.fetch_add(
          static_cast<int64_t>(rec.blob.size()), std::memory_order_relaxed);
    }
  }

  /// Decodes the whole blob — no time trim, no id filter — into the shape
  /// the cache stores: series batches with every column full-length, MG
  /// batches columnarized with per-row ids. TrimBatch recovers exactly the
  /// serial decode-and-trim output from this.
  Status DecodeUntrimmed(const QueuedBlob& blob, RecordBatch* batch) {
    CountDecoded(blob.record);
    if (blob.kind == BlobKind::kMg) {
      std::vector<OperationalRecord> records;
      ODH_RETURN_IF_ERROR(codec_.DecodeMg(Slice(blob.record.blob),
                                          blob.record.begin, wanted_tags_,
                                          num_tags_, &records));
      ColumnarizeRecords(records, batch);
      return Status::OK();
    }
    SeriesBatch series;
    if (blob.kind == BlobKind::kRts) {
      ODH_RETURN_IF_ERROR(codec_.DecodeRts(
          Slice(blob.record.blob), blob.record.id, blob.record.begin,
          blob.record.interval, wanted_tags_, num_tags_, &series));
    } else {
      ODH_RETURN_IF_ERROR(codec_.DecodeIrts(Slice(blob.record.blob),
                                            blob.record.id,
                                            blob.record.begin, wanted_tags_,
                                            num_tags_, &series));
    }
    batch->uniform_id = series.id;
    batch->timestamps = std::move(series.timestamps);
    batch->columns = std::move(series.columns);
    batch->columns.resize(static_cast<size_t>(num_tags_));
    return Status::OK();
  }

  // --- Segment-parallel driver ---------------------------------------
  //
  // Units are consumed strictly in order by the cursor thread; a bounded
  // window of them (EffectiveParallelism) runs on the pool at once. A
  // worker owns its unit's progress state exclusively while its task is
  // live and hands batches over under the unit mutex. Because dispatch is
  // in unit order and parked workers release their pool thread, the unit
  // at the merge frontier always makes progress — no consumer stall can
  // pin the pool.

  struct ScanUnit {
    // Immutable after construction:
    bool is_slice = false;
    bool slice_irts = false;
    std::vector<QueuedBlob> blobs;  // Historical / queued-MG units.
    // Progress state, touched only by the unit's active worker task:
    size_t next_blob = 0;
    OdhStore::SliceCursor slice_cursor;  // Pinned to one segment.
    bool slice_done = false;
    std::deque<BlobRecord> slice_buffered;
    // Handover state, guarded by mu:
    std::mutex mu;
    std::condition_variable cv;
    std::deque<RecordBatch> ready;
    std::deque<Status> ready_status;
    bool done = false;      // Worker finished (or was finalized).
    bool parked = false;    // Worker returned; consumer must resubmit.
    bool abandoned = false; // Cursor destroyed mid-scan; stop producing.
  };

  /// Splits queued_ into scan units along (structure, segment) boundaries,
  /// capped at kUnitMaxBlobs blobs each, preserving queue order. Returns
  /// the number of distinct (structure, segment) groups.
  size_t BuildUnitsFromQueued() {
    std::vector<QueuedBlob> all(std::make_move_iterator(queued_.begin()),
                                std::make_move_iterator(queued_.end()));
    queued_.clear();
    size_t groups = 0;
    size_t i = 0;
    while (i < all.size()) {
      const BlobKind kind = all[i].kind;
      const int64_t seg = all[i].record.seg;
      ++groups;
      size_t j = i;
      while (j < all.size() && all[j].kind == kind &&
             all[j].record.seg == seg) {
        ++j;
      }
      for (size_t k = i; k < j; k += kUnitMaxBlobs) {
        const size_t end = std::min(j, k + kUnitMaxBlobs);
        auto unit = std::make_unique<ScanUnit>();
        unit->blobs.assign(std::make_move_iterator(all.begin() + k),
                           std::make_move_iterator(all.begin() + end));
        units_.push_back(std::move(unit));
      }
      i = j;
    }
    return groups;
  }

  /// One pinned-cursor unit per surviving slice segment, in key order.
  void AddSliceUnits(bool irts, const std::vector<int64_t>& keys) {
    for (int64_t key : keys) {
      auto unit = std::make_unique<ScanUnit>();
      unit->is_slice = true;
      unit->slice_irts = irts;
      unit->slice_cursor.seg = key;
      unit->slice_cursor.pin = true;
      units_.push_back(std::move(unit));
    }
  }

  void StartParallel(size_t segment_groups) {
    parallel_ = true;
    window_ = reader_->EffectiveParallelism();
    reader_->segments_scanned_parallel_.fetch_add(
        static_cast<int64_t>(segment_groups), std::memory_order_relaxed);
    if (counters_ != nullptr) {
      counters_->segments_scanned_parallel.fetch_add(
          static_cast<int64_t>(segment_groups), std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(driver_mu_);
    while (next_dispatch_ < units_.size() && inflight_ < window_) {
      DispatchOneLocked();
    }
  }

  /// Requires driver_mu_. Hands the next unit in order to the pool.
  void DispatchOneLocked() {
    ScanUnit* u = units_[next_dispatch_++].get();
    ++inflight_;
    reader_->parallel_tasks_.fetch_add(1, std::memory_order_relaxed);
    reader_->pool_->Submit([this, u] { RunUnit(u); });
  }

  /// Guarantees the merge-frontier unit has a worker (dispatch is strictly
  /// in unit order), then fills the rest of the window.
  void EnsureDispatched() {
    std::unique_lock<std::mutex> lock(driver_mu_);
    while (next_dispatch_ <= current_unit_) {
      if (inflight_ < window_) {
        DispatchOneLocked();
      } else {
        driver_cv_.wait(lock);
      }
    }
    while (next_dispatch_ < units_.size() && inflight_ < window_) {
      DispatchOneLocked();
    }
  }

  /// Worker body: produce batches until the unit is exhausted, the buffer
  /// fills (park), an error occurs, or the cursor is abandoned. NOTHING
  /// may run after the park return — the consumer owns the unit from the
  /// moment parked is set.
  void RunUnit(ScanUnit* u) {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(u->mu);
        if (u->abandoned) break;
        if (u->ready.size() >= kUnitBufferBatches) {
          u->parked = true;
          return;
        }
      }
      RecordBatch batch;
      bool more = false;
      Status st = NextUnitBatch(u, &batch, &more);
      if (st.ok() && !more) break;
      bool stop = false;
      {
        std::lock_guard<std::mutex> lock(u->mu);
        u->ready.push_back(std::move(batch));
        u->ready_status.push_back(std::move(st));
        stop = !u->ready_status.back().ok();
        u->cv.notify_all();
      }
      if (stop) break;  // The error surfaces at its serial position.
    }
    FinishUnit(u);
  }

  /// Next batch of one unit: the pre-listed blobs for historical/MG units,
  /// the pinned chunked slice scan for slice units (stats deliberately
  /// null: SliceSegments already counted this scan's pruning).
  Status NextUnitBatch(ScanUnit* u, RecordBatch* batch, bool* more) {
    *more = false;
    if (!u->is_slice) {
      if (u->next_blob >= u->blobs.size()) return Status::OK();
      *more = true;
      return DecodeBlobToBatch(u->blobs[u->next_blob++], batch);
    }
    while (true) {
      if (!u->slice_buffered.empty()) {
        QueuedBlob blob{u->slice_irts ? BlobKind::kIrts : BlobKind::kRts,
                        std::move(u->slice_buffered.front())};
        u->slice_buffered.pop_front();
        *more = true;
        return DecodeBlobToBatch(blob, batch);
      }
      if (u->slice_done) return Status::OK();
      std::vector<BlobRecord> chunk;
      ODH_RETURN_IF_ERROR(reader_->store_->NextSliceChunk(
          schema_type_, u->slice_irts, lo_, hi_, &u->slice_cursor, &chunk,
          &u->slice_done, /*stats=*/nullptr));
      for (auto& rec : chunk) u->slice_buffered.push_back(std::move(rec));
    }
  }

  void FinishUnit(ScanUnit* u) {
    {
      std::lock_guard<std::mutex> lock(u->mu);
      u->done = true;
      u->cv.notify_all();
    }
    std::lock_guard<std::mutex> lock(driver_mu_);
    --inflight_;
    driver_cv_.notify_all();
  }

  /// Consumer side of the ordered merge: batches come off the units in
  /// unit order, which is exactly the serial emission order.
  Result<bool> NextParallelBatch(RecordBatch* batch) {
    while (current_unit_ < units_.size()) {
      EnsureDispatched();
      ScanUnit* u = units_[current_unit_].get();
      RecordBatch b;
      Status st;
      bool got = false;
      bool resume = false;
      {
        std::unique_lock<std::mutex> lock(u->mu);
        if (u->ready.empty() && !u->done) {
          reader_->merge_stalls_.fetch_add(1, std::memory_order_relaxed);
          u->cv.wait(lock, [&] { return !u->ready.empty() || u->done; });
        }
        if (!u->ready.empty()) {
          b = std::move(u->ready.front());
          st = std::move(u->ready_status.front());
          u->ready.pop_front();
          u->ready_status.pop_front();
          got = true;
          if (u->parked) {
            u->parked = false;
            resume = true;  // Resubmit outside the unit lock.
          }
        }
      }
      if (resume) {
        ScanUnit* parked = u;
        reader_->pool_->Submit([this, parked] { RunUnit(parked); });
      }
      if (!got) {
        ++current_unit_;
        continue;
      }
      ODH_RETURN_IF_ERROR(st);
      *batch = std::move(b);
      return true;
    }
    return false;
  }

  /// Stops all workers and waits for them: abandoned workers exit at the
  /// next loop check, parked units (which have no live task) are finalized
  /// inline. After this, no task references the cursor — safe to destroy
  /// even mid-scan (LIMIT short-circuit, error poison).
  void AbandonParallel() {
    if (!parallel_) return;
    for (auto& up : units_) {
      std::lock_guard<std::mutex> lock(up->mu);
      up->abandoned = true;
      up->cv.notify_all();
    }
    for (auto& up : units_) {
      bool finalize = false;
      {
        std::lock_guard<std::mutex> lock(up->mu);
        if (up->parked && !up->done) {
          up->parked = false;
          up->done = true;
          finalize = true;
        }
      }
      if (finalize) {
        std::lock_guard<std::mutex> lock(driver_mu_);
        --inflight_;
        driver_cv_.notify_all();
      }
    }
    std::unique_lock<std::mutex> lock(driver_mu_);
    driver_cv_.wait(lock, [&] { return inflight_ == 0; });
    parallel_ = false;
  }

  void ColumnarizeRecords(const std::vector<OperationalRecord>& records,
                          RecordBatch* batch) const {
    ColumnarizeInto(records, num_tags_, batch);
  }

  OdhReader* reader_;
  int schema_type_;
  SourceId id_;  // -1 for slice scans.
  Timestamp lo_, hi_;
  std::vector<int> wanted_tags_;
  std::vector<TagFilter> tag_filters_;
  int num_tags_;
  ValueBlobCodec codec_;
  common::ScanCounters* counters_;  // Per-query profile; may be null.
  bool count_pruning_;  // False for windows: the window loop counts.

  /// Chunked slice-scan state for one series structure: the next segment
  /// key to ask the store for, plus the not-yet-decoded remainder of the
  /// last chunk it handed back.
  struct SliceStream {
    bool active = false;
    bool done = false;
    OdhStore::SliceCursor cursor;
    std::deque<BlobRecord> buffered;
  };

  std::deque<QueuedBlob> queued_;
  /// Parallel-decode results, aligned slots in queue order.
  std::deque<RecordBatch> decoded_;
  std::deque<Status> decoded_statuses_;
  SliceStream rts_stream_;
  SliceStream irts_stream_;
  /// Current batch being drained by the row-at-a-time view.
  RecordBatch batch_;
  size_t row_pos_ = 0;
  Status poison_;  // First error seen; repeated by every later Next.
  std::vector<OperationalRecord> dirty_;

  /// Cache identity of this scan's decoded tag set (see TagMaskOf).
  uint64_t tag_mask_ = 0;
  bool cache_usable_ = false;

  /// Segment-parallel driver state. units_ and window_ are fixed at
  /// StartParallel; next_dispatch_ and inflight_ are guarded by
  /// driver_mu_; current_unit_ is touched only by the consumer thread.
  bool parallel_ = false;
  std::vector<std::unique_ptr<ScanUnit>> units_;
  size_t current_unit_ = 0;
  int window_ = 0;
  std::mutex driver_mu_;
  std::condition_variable driver_cv_;
  size_t next_dispatch_ = 0;
  int inflight_ = 0;
};

namespace {

/// Accumulates the aggregate-pushdown answer across blob summaries,
/// decoded blobs, and dirty rows.
class AggregateAccumulator {
 public:
  AggregateAccumulator(const std::vector<TagFilter>* filters,
                       const std::vector<int>* agg_tags)
      : filters_(filters), agg_tags_(agg_tags) {
    result_.tags.resize(agg_tags->size());
  }

  /// Folds in a whole blob from its summary (caller proved AllMatch).
  void AddSummary(const ZoneMap& map, int64_t num_rows) {
    result_.rows_matched += num_rows;
    for (size_t j = 0; j < agg_tags_->size(); ++j) {
      const int tag = (*agg_tags_)[j];
      TagAggregate& agg = result_.tags[j];
      agg.count += map.count(tag);
      agg.sum += map.sum(tag);
      if (map.has_values(tag)) {
        if (!agg.has_value || map.min(tag) < agg.min) agg.min = map.min(tag);
        if (!agg.has_value || map.max(tag) > agg.max) agg.max = map.max(tag);
        agg.has_value = true;
      }
    }
  }

  /// Folds in one row (decoded blob or dirty buffer); `tags` may be
  /// shorter than the schema (missing = NaN).
  void AddRow(const std::vector<double>& tags) {
    for (const TagFilter& f : *filters_) {
      const double v =
          f.tag < static_cast<int>(tags.size()) ? tags[f.tag] : kNaN;
      if (!TagFilterMatches(f, v)) return;
    }
    ++result_.rows_matched;
    for (size_t j = 0; j < agg_tags_->size(); ++j) {
      const int tag = (*agg_tags_)[j];
      const double v =
          tag < static_cast<int>(tags.size()) ? tags[tag] : kNaN;
      if (std::isnan(v)) continue;
      TagAggregate& agg = result_.tags[j];
      ++agg.count;
      agg.sum += v;
      if (!agg.has_value || v < agg.min) agg.min = v;
      if (!agg.has_value || v > agg.max) agg.max = v;
      agg.has_value = true;
    }
  }

  /// Folds in a decoded RTS/IRTS blob column-wise: builds a selection
  /// (time bounds, then each tag filter) and sweeps the per-tag arrays,
  /// skipping the per-row tag-vector materialization AddRow needs.
  /// Accumulation order matches AddRow, so results are bit-identical.
  /// Returns the number of rows inside [lo, hi] before tag filtering.
  int64_t AddColumns(const SeriesBatch& series, Timestamp lo, Timestamp hi) {
    const size_t n = series.num_points();
    sel_.clear();
    sel_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (series.timestamps[i] >= lo && series.timestamps[i] <= hi) {
        sel_.push_back(static_cast<int32_t>(i));
      }
    }
    const int64_t in_range = static_cast<int64_t>(sel_.size());
    for (const TagFilter& f : *filters_) {
      const std::vector<double>* col =
          f.tag >= 0 && f.tag < static_cast<int>(series.columns.size()) &&
                  !series.columns[f.tag].empty()
              ? &series.columns[f.tag]
              : nullptr;
      size_t out = 0;
      for (int32_t i : sel_) {
        const double v = col != nullptr ? (*col)[i] : kNaN;
        if (TagFilterMatches(f, v)) sel_[out++] = i;
      }
      sel_.resize(out);
    }
    result_.rows_matched += static_cast<int64_t>(sel_.size());
    for (size_t j = 0; j < agg_tags_->size(); ++j) {
      const int tag = (*agg_tags_)[j];
      if (tag < 0 || tag >= static_cast<int>(series.columns.size()) ||
          series.columns[tag].empty()) {
        continue;  // Unprojected / unknown: all NULL, contributes nothing.
      }
      const std::vector<double>& col = series.columns[tag];
      TagAggregate& agg = result_.tags[j];
      for (int32_t i : sel_) {
        const double v = col[i];
        if (std::isnan(v)) continue;
        ++agg.count;
        agg.sum += v;
        if (!agg.has_value || v < agg.min) agg.min = v;
        if (!agg.has_value || v > agg.max) agg.max = v;
        agg.has_value = true;
      }
    }
    return in_range;
  }

  /// Folds in a decoded-blob-cache batch: same selection/sweep structure
  /// as AddColumns (so per-tag accumulation order — hence the floating-
  /// point result — matches the direct decode paths row for row), plus the
  /// per-row id constraint MG batches need. Returns rows inside [lo, hi]
  /// (and matching `id_filter`) before tag filtering.
  int64_t AddColumnsBatch(const RecordBatch& batch, Timestamp lo,
                          Timestamp hi, SourceId id_filter) {
    const size_t n = batch.rows();
    const bool has_ids = !batch.ids.empty();
    sel_.clear();
    sel_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (batch.timestamps[i] < lo || batch.timestamps[i] > hi) continue;
      if (has_ids && id_filter >= 0 && batch.ids[i] != id_filter) continue;
      sel_.push_back(static_cast<int32_t>(i));
    }
    const int64_t in_range = static_cast<int64_t>(sel_.size());
    for (const TagFilter& f : *filters_) {
      const std::vector<double>* col =
          f.tag >= 0 && f.tag < static_cast<int>(batch.columns.size()) &&
                  !batch.columns[f.tag].empty()
              ? &batch.columns[f.tag]
              : nullptr;
      size_t out = 0;
      for (int32_t i : sel_) {
        const double v = col != nullptr ? (*col)[i] : kNaN;
        if (TagFilterMatches(f, v)) sel_[out++] = i;
      }
      sel_.resize(out);
    }
    result_.rows_matched += static_cast<int64_t>(sel_.size());
    for (size_t j = 0; j < agg_tags_->size(); ++j) {
      const int tag = (*agg_tags_)[j];
      if (tag < 0 || tag >= static_cast<int>(batch.columns.size()) ||
          batch.columns[tag].empty()) {
        continue;
      }
      const std::vector<double>& col = batch.columns[tag];
      TagAggregate& agg = result_.tags[j];
      for (int32_t i : sel_) {
        const double v = col[i];
        if (std::isnan(v)) continue;
        ++agg.count;
        agg.sum += v;
        if (!agg.has_value || v < agg.min) agg.min = v;
        if (!agg.has_value || v > agg.max) agg.max = v;
        agg.has_value = true;
      }
    }
    return in_range;
  }

  /// Combines a partial result from a parallel aggregate unit. Counts add
  /// exactly; sums reassociate (the documented last-ulp difference of
  /// parallel aggregation); min/max merge exactly.
  void Merge(const AggregateResult& other) {
    result_.rows_matched += other.rows_matched;
    for (size_t j = 0; j < result_.tags.size(); ++j) {
      const TagAggregate& o = other.tags[j];
      TagAggregate& agg = result_.tags[j];
      agg.count += o.count;
      agg.sum += o.sum;
      if (o.has_value) {
        if (!agg.has_value || o.min < agg.min) agg.min = o.min;
        if (!agg.has_value || o.max > agg.max) agg.max = o.max;
        agg.has_value = true;
      }
    }
  }

  AggregateResult&& Take() { return std::move(result_); }

 private:
  const std::vector<TagFilter>* filters_;
  const std::vector<int>* agg_tags_;
  AggregateResult result_;
  std::vector<int32_t> sel_;
};

}  // namespace

Result<OdhStore::HistoricalListing> OdhReader::ListConsistent(
    int schema_type, SourceId id, const RouteDecision& route, Timestamp lo,
    Timestamp hi, SegmentScanStats* seg_stats,
    std::vector<OperationalRecord>* dirty) {
  while (true) {
    *seg_stats = SegmentScanStats{};
    ODH_ASSIGN_OR_RETURN(
        OdhStore::HistoricalListing listing,
        store_->ListHistorical(schema_type, id, route.scan_rts,
                               route.scan_irts, route.scan_mg, route.mg_group,
                               lo, hi, seg_stats));
    uint64_t flushed_through = 0;
    dirty->clear();
    ODH_RETURN_IF_ERROR(writer_->CollectDirty(schema_type, id, lo, hi, dirty,
                                              &flushed_through));
    // A flush whose put landed after the listing moved rows that are in
    // neither half: fetch exactly those blobs.
    ODH_ASSIGN_OR_RETURN(
        bool caught_up,
        store_->CatchUpHistorical(schema_type, id, route.scan_rts,
                                  route.scan_irts, route.scan_mg,
                                  route.mg_group, lo, hi, flushed_through,
                                  &listing));
    if (caught_up) return listing;
  }
}

Result<ScanTarget> OdhReader::ResolveScan(int schema_type, SourceId id) {
  ScanTarget target;
  target.schema_type = schema_type;
  target.id = id;
  if (id >= 0) {
    ODH_ASSIGN_OR_RETURN(target.route,
                         router_->RouteHistorical(schema_type, id));
  } else {
    ODH_ASSIGN_OR_RETURN(target.route, router_->RouteSlice(schema_type));
  }
  return target;
}

Result<std::unique_ptr<OdhScanCursorImpl>> OdhReader::OpenScan(
    int schema_type, SourceId id, Timestamp lo, Timestamp hi,
    const std::vector<int>& wanted_tags, std::vector<TagFilter> tag_filters,
    common::ScanCounters* counters, const ScanTarget* window) {
  ODH_ASSIGN_OR_RETURN(const SchemaType* type,
                       config_->GetSchemaType(schema_type));
  ScanTarget routed;
  if (window == nullptr) {
    ODH_ASSIGN_OR_RETURN(routed, ResolveScan(schema_type, id));
  }
  auto cursor = std::make_unique<OdhScanCursorImpl>(
      this, schema_type, id, lo, hi, wanted_tags, std::move(tag_filters),
      static_cast<int>(type->tag_names.size()), type->compression, counters,
      /*count_pruning=*/window == nullptr);
  ODH_RETURN_IF_ERROR(
      cursor->Init(window != nullptr ? window->route : routed.route));
  return cursor;
}

void OdhReader::CountSegmentsPruned(const ScanTarget& target,
                                    const std::vector<SegmentBounds>& bounds,
                                    Timestamp lo, Timestamp hi,
                                    common::ScanCounters* counters) {
  auto pruned = [lo, hi](const ContainerStats& s) {
    return s.blob_count > 0 && (s.max_ts < lo || s.min_ts > hi);
  };
  int64_t n = 0;
  for (const SegmentBounds& seg : bounds) {
    if (target.route.scan_rts && pruned(seg.rts)) ++n;
    if (target.route.scan_irts && pruned(seg.irts)) ++n;
    if (target.route.scan_mg && pruned(seg.mg)) ++n;
  }
  if (n == 0) return;
  segments_pruned_.fetch_add(n, std::memory_order_relaxed);
  if (counters != nullptr) {
    counters->segments_pruned.fetch_add(n, std::memory_order_relaxed);
  }
}

Result<std::unique_ptr<RecordCursor>> OdhReader::OpenHistorical(
    int schema_type, SourceId id, Timestamp lo, Timestamp hi,
    const std::vector<int>& wanted_tags, std::vector<TagFilter> tag_filters,
    common::ScanCounters* counters, const ScanTarget* window) {
  ODH_ASSIGN_OR_RETURN(auto cursor,
                       OpenScan(schema_type, id, lo, hi, wanted_tags,
                                std::move(tag_filters), counters, window));
  return std::unique_ptr<RecordCursor>(std::move(cursor));
}

Result<std::unique_ptr<RecordCursor>> OdhReader::OpenSlice(
    int schema_type, Timestamp lo, Timestamp hi,
    const std::vector<int>& wanted_tags, std::vector<TagFilter> tag_filters,
    common::ScanCounters* counters, const ScanTarget* window) {
  ODH_ASSIGN_OR_RETURN(auto cursor,
                       OpenScan(schema_type, /*id=*/-1, lo, hi, wanted_tags,
                                std::move(tag_filters), counters, window));
  return std::unique_ptr<RecordCursor>(std::move(cursor));
}

Result<std::unique_ptr<RecordBatchCursor>> OdhReader::OpenHistoricalBatches(
    int schema_type, SourceId id, Timestamp lo, Timestamp hi,
    const std::vector<int>& wanted_tags, std::vector<TagFilter> tag_filters,
    common::ScanCounters* counters, const ScanTarget* window) {
  ODH_ASSIGN_OR_RETURN(auto cursor,
                       OpenScan(schema_type, id, lo, hi, wanted_tags,
                                std::move(tag_filters), counters, window));
  return std::unique_ptr<RecordBatchCursor>(std::move(cursor));
}

Result<std::unique_ptr<RecordBatchCursor>> OdhReader::OpenSliceBatches(
    int schema_type, Timestamp lo, Timestamp hi,
    const std::vector<int>& wanted_tags, std::vector<TagFilter> tag_filters,
    common::ScanCounters* counters, const ScanTarget* window) {
  ODH_ASSIGN_OR_RETURN(auto cursor,
                       OpenScan(schema_type, /*id=*/-1, lo, hi, wanted_tags,
                                std::move(tag_filters), counters, window));
  return std::unique_ptr<RecordBatchCursor>(std::move(cursor));
}

Result<AggregateResult> OdhReader::Aggregate(
    int schema_type, SourceId id, Timestamp lo, Timestamp hi,
    const std::vector<TagFilter>& tag_filters,
    const std::vector<int>& agg_tags, bool need_values,
    common::ScanCounters* counters) {
  ODH_ASSIGN_OR_RETURN(const SchemaType* type,
                       config_->GetSchemaType(schema_type));
  const int num_tags = static_cast<int>(type->tag_names.size());
  ValueBlobCodec codec(type->compression);
  AggregateAccumulator acc(&tag_filters, &agg_tags);

  // Tags the decode fallback actually needs: aggregated plus filtered.
  std::set<int> needed(agg_tags.begin(), agg_tags.end());
  for (const TagFilter& f : tag_filters) needed.insert(f.tag);
  const std::vector<int> decode_tags(needed.begin(), needed.end());

  // Candidate blobs, enumerated exactly like the scan paths (including the
  // segment-manifest elimination the Get*/NextSliceChunk entry points do),
  // and the unflushed writer rows (dirty-read isolation). A single source's
  // listing and collection form one consistent cut, as in the historical
  // scan.
  ODH_ASSIGN_OR_RETURN(ScanTarget target, ResolveScan(schema_type, id));
  const RouteDecision& route = target.route;
  std::vector<QueuedBlob> blobs;
  auto add = [&blobs](BlobKind kind, std::vector<BlobRecord> recs) {
    for (auto& b : recs) blobs.push_back({kind, std::move(b)});
  };
  SegmentScanStats seg_stats;
  std::vector<OperationalRecord> dirty;
  if (id >= 0) {
    ODH_ASSIGN_OR_RETURN(OdhStore::HistoricalListing listing,
                         ListConsistent(schema_type, id, route, lo, hi,
                                        &seg_stats, &dirty));
    add(BlobKind::kRts, std::move(listing.rts));
    add(BlobKind::kIrts, std::move(listing.irts));
    add(BlobKind::kMg, std::move(listing.mg));
  } else {
    for (bool is_irts : {false, true}) {
      if (is_irts ? !route.scan_irts : !route.scan_rts) continue;
      OdhStore::SliceCursor seg_cursor;
      bool done = false;
      while (!done) {
        std::vector<BlobRecord> chunk;
        ODH_RETURN_IF_ERROR(store_->NextSliceChunk(schema_type, is_irts, lo,
                                                   hi, &seg_cursor, &chunk,
                                                   &done, &seg_stats));
        add(is_irts ? BlobKind::kIrts : BlobKind::kRts, std::move(chunk));
      }
    }
    if (route.scan_mg) {
      ODH_ASSIGN_OR_RETURN(auto recs,
                           store_->GetMg(schema_type, -1, lo, hi,
                                         &seg_stats));
      add(BlobKind::kMg, std::move(recs));
    }
    ODH_RETURN_IF_ERROR(writer_->CollectDirty(schema_type, id, lo, hi,
                                              &dirty));
  }
  if (seg_stats.segments_pruned > 0) {
    segments_pruned_.fetch_add(seg_stats.segments_pruned,
                               std::memory_order_relaxed);
    if (counters != nullptr) {
      counters->segments_pruned.fetch_add(seg_stats.segments_pruned,
                                          std::memory_order_relaxed);
    }
  }

  // The decode fallback below may serve from the decoded-blob cache. The
  // cached value is the untrimmed, un-id-filtered decode of the tag set
  // this aggregate needs (agg + filter tags), so scan cursors with the
  // same projection share entries with aggregates.
  BlobCache* cache = cache_;
  uint64_t agg_mask = 0;
  const bool agg_cacheable =
      cache != nullptr && TagMaskOf(decode_tags, &agg_mask);

  // Per-blob worker: summary pruning / summary-only answers exactly as the
  // serial aggregate always did, folding into *acc (a unit-local
  // accumulator under the parallel driver). Thread-safe: it touches only
  // the stateless codec, the atomic counters, and the blob cache.
  auto process_blob = [&](const QueuedBlob& blob,
                          AggregateAccumulator* acc) -> Status {
    const BlobRecord& rec = blob.record;
    std::optional<ZoneMap> map;
    if (!rec.zone_map.empty()) {
      auto decoded = ZoneMap::Decode(Slice(rec.zone_map));
      if (decoded.ok()) map = *std::move(decoded);
    }
    if (map.has_value() && !tag_filters.empty() &&
        !map->MayMatch(tag_filters)) {
      blobs_pruned_.fetch_add(1, std::memory_order_relaxed);
      if (counters != nullptr) {
        counters->blobs_pruned.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::OK();
    }
    // Summary-only answer: the blob must lie entirely inside the time
    // range, carry v2 aggregates covering every referenced tag, be exact
    // when values (not just counts) are wanted, prove that all rows pass
    // the filters, and — for MG under an id constraint — not mix sources.
    const bool covers_tags = [&] {
      if (!map.has_value()) return false;
      for (int tag : agg_tags) {
        if (tag < 0 || tag >= map->num_tags()) return false;
      }
      for (const TagFilter& f : tag_filters) {
        if (f.tag < 0 || f.tag >= map->num_tags()) return false;
      }
      return true;
    }();
    if (map.has_value() && map->has_aggregates() && covers_tags &&
        (blob.kind != BlobKind::kMg || id < 0) &&
        rec.begin >= lo && rec.end <= hi &&
        (!need_values || map->exact()) &&
        map->AllMatch(tag_filters, rec.n)) {
      acc->AddSummary(*map, rec.n);
      blobs_skipped_by_summary_.fetch_add(1, std::memory_order_relaxed);
      if (counters != nullptr) {
        counters->blobs_skipped_by_summary.fetch_add(
            1, std::memory_order_relaxed);
      }
      return Status::OK();
    }
    // Fallback: decode and scan the boundary / unprovable blob.
    if (agg_cacheable) {
      BlobCacheKey key;
      key.schema_type = schema_type;
      key.structure = blob.kind;
      key.seg = rec.seg;
      key.generation = rec.generation;
      key.rid = PackRid(rec.rid);
      key.tag_mask = agg_mask;
      std::shared_ptr<const RecordBatch> full = cache->Lookup(key);
      if (full != nullptr) {
        blob_cache_hits_.fetch_add(1, std::memory_order_relaxed);
        if (counters != nullptr) {
          counters->blob_cache_hits.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        blobs_decoded_.fetch_add(1, std::memory_order_relaxed);
        blob_bytes_read_.fetch_add(static_cast<int64_t>(rec.blob.size()),
                                   std::memory_order_relaxed);
        if (counters != nullptr) {
          counters->blobs_decoded.fetch_add(1, std::memory_order_relaxed);
          counters->blob_bytes_read.fetch_add(
              static_cast<int64_t>(rec.blob.size()),
              std::memory_order_relaxed);
        }
        auto decoded = std::make_shared<RecordBatch>();
        if (blob.kind == BlobKind::kMg) {
          std::vector<OperationalRecord> records;
          ODH_RETURN_IF_ERROR(codec.DecodeMg(Slice(rec.blob), rec.begin,
                                             decode_tags, num_tags,
                                             &records));
          ColumnarizeInto(records, num_tags, decoded.get());
        } else {
          SeriesBatch series;
          if (blob.kind == BlobKind::kRts) {
            ODH_RETURN_IF_ERROR(codec.DecodeRts(
                Slice(rec.blob), rec.id, rec.begin, rec.interval,
                decode_tags, num_tags, &series));
          } else {
            ODH_RETURN_IF_ERROR(codec.DecodeIrts(Slice(rec.blob), rec.id,
                                                 rec.begin, decode_tags,
                                                 num_tags, &series));
          }
          decoded->uniform_id = series.id;
          decoded->timestamps = std::move(series.timestamps);
          decoded->columns = std::move(series.columns);
          decoded->columns.resize(static_cast<size_t>(num_tags));
        }
        const size_t bytes = BatchBytes(*decoded);
        full = decoded;
        cache->Insert(key, std::move(decoded), bytes);
      }
      const int64_t in_range = acc->AddColumnsBatch(
          *full, lo, hi, blob.kind == BlobKind::kMg ? id : -1);
      records_emitted_.fetch_add(in_range, std::memory_order_relaxed);
      if (counters != nullptr) {
        counters->rows_scanned.fetch_add(in_range, std::memory_order_relaxed);
      }
      return Status::OK();
    }
    blobs_decoded_.fetch_add(1, std::memory_order_relaxed);
    blob_bytes_read_.fetch_add(static_cast<int64_t>(rec.blob.size()),
                               std::memory_order_relaxed);
    if (counters != nullptr) {
      counters->blobs_decoded.fetch_add(1, std::memory_order_relaxed);
      counters->blob_bytes_read.fetch_add(
          static_cast<int64_t>(rec.blob.size()), std::memory_order_relaxed);
    }
    if (blob.kind == BlobKind::kMg) {
      std::vector<OperationalRecord> records;
      ODH_RETURN_IF_ERROR(codec.DecodeMg(Slice(rec.blob), rec.begin,
                                         decode_tags, num_tags, &records));
      for (const auto& r : records) {
        if (r.ts < lo || r.ts > hi) continue;
        if (id >= 0 && r.id != id) continue;
        records_emitted_.fetch_add(1, std::memory_order_relaxed);
        if (counters != nullptr) {
          counters->rows_scanned.fetch_add(1, std::memory_order_relaxed);
        }
        acc->AddRow(r.tags);
      }
      return Status::OK();
    }
    SeriesBatch series;
    if (blob.kind == BlobKind::kRts) {
      ODH_RETURN_IF_ERROR(codec.DecodeRts(Slice(rec.blob), rec.id, rec.begin,
                                          rec.interval, decode_tags,
                                          num_tags, &series));
    } else {
      ODH_RETURN_IF_ERROR(codec.DecodeIrts(Slice(rec.blob), rec.id,
                                           rec.begin, decode_tags, num_tags,
                                           &series));
    }
    const int64_t in_range = acc->AddColumns(series, lo, hi);
    records_emitted_.fetch_add(in_range, std::memory_order_relaxed);
    if (counters != nullptr) {
      counters->rows_scanned.fetch_add(in_range, std::memory_order_relaxed);
    }
    return Status::OK();
  };

  // Partition the candidate blobs into units along (structure, segment)
  // boundaries — the same grouping the scan driver uses — and run them
  // with unit-local accumulators merged back in unit order. Counts merge
  // exactly; parallel sums reassociate (documented last-ulp caveat).
  struct AggUnit {
    size_t begin = 0;
    size_t end = 0;
    Status status;
    AggregateResult result;
  };
  std::vector<AggUnit> units;
  size_t groups = 0;
  {
    size_t i = 0;
    while (i < blobs.size()) {
      const BlobKind kind = blobs[i].kind;
      const int64_t seg = blobs[i].record.seg;
      ++groups;
      size_t j = i;
      while (j < blobs.size() && blobs[j].kind == kind &&
             blobs[j].record.seg == seg) {
        ++j;
      }
      for (size_t k = i; k < j; k += kUnitMaxBlobs) {
        AggUnit unit;
        unit.begin = k;
        unit.end = std::min(j, k + kUnitMaxBlobs);
        units.push_back(std::move(unit));
      }
      i = j;
    }
  }
  const int width = EffectiveParallelism();
  if (pool_ != nullptr && width >= 2 && units.size() >= 2) {
    parallel_tasks_.fetch_add(static_cast<int64_t>(units.size()),
                              std::memory_order_relaxed);
    segments_scanned_parallel_.fetch_add(static_cast<int64_t>(groups),
                                         std::memory_order_relaxed);
    if (counters != nullptr) {
      counters->segments_scanned_parallel.fetch_add(
          static_cast<int64_t>(groups), std::memory_order_relaxed);
    }
    std::atomic<size_t> next{0};
    auto work = [&] {
      while (true) {
        const size_t u = next.fetch_add(1, std::memory_order_relaxed);
        if (u >= units.size()) break;
        AggUnit& unit = units[u];
        AggregateAccumulator local(&tag_filters, &agg_tags);
        for (size_t b = unit.begin; b < unit.end; ++b) {
          unit.status = process_blob(blobs[b], &local);
          if (!unit.status.ok()) break;
        }
        unit.result = local.Take();
      }
    };
    // The caller participates, so cap helpers at the pool size and never
    // exceed width total workers.
    const int helpers =
        std::min(width, pool_->num_threads() + 1) - 1;
    std::mutex done_mu;
    std::condition_variable done_cv;
    int active = helpers;
    for (int h = 0; h < helpers; ++h) {
      pool_->Submit([&] {
        work();
        std::lock_guard<std::mutex> lock(done_mu);
        if (--active == 0) done_cv.notify_all();
      });
    }
    work();
    {
      std::unique_lock<std::mutex> lock(done_mu);
      done_cv.wait(lock, [&] { return active == 0; });
    }
    for (AggUnit& unit : units) {
      ODH_RETURN_IF_ERROR(unit.status);
      acc.Merge(unit.result);
    }
  } else {
    for (const QueuedBlob& blob : blobs) {
      ODH_RETURN_IF_ERROR(process_blob(blob, &acc));
    }
  }

  // Unflushed writer buffers: row-format, already filtered to [lo, hi] and
  // `id` by the writer.
  for (const auto& r : dirty) {
    if (r.ts < lo || r.ts > hi) continue;
    acc.AddRow(r.tags);
  }

  return acc.Take();
}

}  // namespace odh::core
