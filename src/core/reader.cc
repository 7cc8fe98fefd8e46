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

using common::ScanCounters;

/// Blobs per scan unit: small enough that several units per segment keep
/// the merge frontier close behind the pool workers, large enough to
/// amortize the submit/notify overhead.
constexpr size_t kUnitMaxBlobs = 8;
/// Decoded batches a dispatched unit buffers ahead of the merge frontier
/// before its worker parks (bounded ordered merge: memory stays
/// O(units * buffer)).
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

/// True when row `i` of `b` lies outside [lo, hi] or, when `id_filter` >= 0
/// and the batch carries per-row ids (MG), belongs to another source.
bool TrimmedAway(const RecordBatch& b, size_t i, Timestamp lo, Timestamp hi,
                 SourceId id_filter) {
  return b.timestamps[i] < lo || b.timestamps[i] > hi ||
         (id_filter >= 0 && !b.ids.empty() && b.ids[i] != id_filter);
}

/// Copies the rows of a cached untrimmed decode that TrimInPlace would
/// keep into *out, in the same order, from the same decoded doubles.
void TrimBatch(const RecordBatch& src, Timestamp lo, Timestamp hi,
               SourceId id_filter, RecordBatch* out) {
  out->uniform_id = src.uniform_id;
  const size_t n = src.rows();
  std::vector<uint32_t> sel;
  sel.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!TrimmedAway(src, i, lo, hi, id_filter)) {
      sel.push_back(static_cast<uint32_t>(i));
    }
  }
  if (sel.size() == n) {
    out->ids = src.ids;
    out->timestamps = src.timestamps;
    out->columns = src.columns;
    return;
  }
  if (!src.ids.empty()) {
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

/// Trims a freshly decoded batch to [lo, hi] (and `id_filter`) in place.
/// When nothing is dropped (an interior blob, the common case) the loop
/// writes nothing: the zero-copy path of an uncached scan.
void TrimInPlace(Timestamp lo, Timestamp hi, SourceId id_filter,
                 RecordBatch* b) {
  const size_t n = b->rows();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    if (TrimmedAway(*b, i, lo, hi, id_filter)) continue;
    if (kept != i) {
      b->timestamps[kept] = b->timestamps[i];
      if (!b->ids.empty()) b->ids[kept] = b->ids[i];
      for (auto& col : b->columns) {
        if (!col.empty()) col[kept] = col[i];
      }
    }
    ++kept;
  }
  if (kept == n) return;
  b->timestamps.resize(kept);
  if (!b->ids.empty()) b->ids.resize(kept);
  for (auto& col : b->columns) {
    if (!col.empty()) col.resize(kept);
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

/// Adds `n` to a reader-global counter and, on a profiled query, to its
/// per-query twin.
void Bump(std::atomic<int64_t>* global, ScanCounters* counters,
          std::atomic<int64_t> ScanCounters::*field, int64_t n = 1) {
  if (n == 0) return;
  global->fetch_add(n, std::memory_order_relaxed);
  if (counters != nullptr) {
    (counters->*field).fetch_add(n, std::memory_order_relaxed);
  }
}

}  // namespace

using BlobKind = BlobStructure;

struct QueuedBlob {
  BlobKind kind;
  BlobRecord record;
};

/// Handover state of a unit dispatched to the pool: its worker pushes
/// batches, the consumer pops them in order. Guarded by `mu`.
struct UnitHandover {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<RecordBatch> ready;
  std::deque<Status> ready_status;
  bool done = false;       // Worker finished (or was finalized).
  bool parked = false;     // Worker returned; consumer must resubmit.
  bool abandoned = false;  // Cursor destroyed mid-scan; stop producing.
};

/// One unit of a scan or aggregate: up to kUnitMaxBlobs listed blobs of
/// one (structure, segment), or one slice segment streamed through a
/// pinned SliceCursor. A unit is driven by one thread at a time — the
/// consumer when it runs inline, a pool worker when dispatched.
struct ScanUnit {
  /// Moves the unit's next blob into *out; false once it is exhausted. A
  /// slice unit refills `blobs` one store chunk at a time (no pruning
  /// stats: SliceSegments already counted this scan's).
  Result<bool> NextBlob(OdhStore* store, int schema_type, Timestamp lo,
                        Timestamp hi, QueuedBlob* out) {
    while (next_blob == blobs.size()) {
      if (!is_slice || slice_done) return false;
      std::vector<BlobRecord> chunk;
      ODH_RETURN_IF_ERROR(store->NextSliceChunk(schema_type, slice_irts, lo,
                                                hi, &slice_cursor, &chunk,
                                                &slice_done));
      blobs.clear();
      next_blob = 0;
      for (auto& rec : chunk) {
        blobs.push_back(
            {slice_irts ? BlobKind::kIrts : BlobKind::kRts, std::move(rec)});
      }
    }
    *out = std::move(blobs[next_blob++]);
    return true;
  }

  bool is_slice = false;
  bool slice_irts = false;
  bool slice_done = false;
  OdhStore::SliceCursor slice_cursor;
  std::vector<QueuedBlob> blobs;
  size_t next_blob = 0;
  /// Allocated only when the scan dispatches its units to the pool.
  std::unique_ptr<UnitHandover> handover;
};

/// The units of one scan or aggregate in emission order, the number of
/// (structure, segment) groups they cover, and the unflushed rows that
/// follow them.
struct ScanPlan {
  std::vector<ScanUnit> units;
  size_t groups = 0;
  std::vector<OperationalRecord> dirty;
};

namespace {

/// Appends listed blobs as units split along segment boundaries, at most
/// kUnitMaxBlobs each, in listing order.
void AddListedUnits(BlobKind kind, std::vector<BlobRecord> recs,
                    ScanPlan* plan) {
  size_t i = 0;
  while (i < recs.size()) {
    const int64_t seg = recs[i].seg;
    size_t j = i;
    while (j < recs.size() && recs[j].seg == seg) ++j;
    ++plan->groups;
    for (size_t k = i; k < j; k += kUnitMaxBlobs) {
      ScanUnit& unit = plan->units.emplace_back();
      for (size_t b = k; b < std::min(j, k + kUnitMaxBlobs); ++b) {
        unit.blobs.push_back({kind, std::move(recs[b])});
      }
    }
    i = j;
  }
}

/// One pinned-cursor unit per listed slice segment, in key order.
void AddSliceUnits(bool irts, const std::vector<int64_t>& keys,
                   ScanPlan* plan) {
  plan->groups += keys.size();
  for (int64_t key : keys) {
    ScanUnit& unit = plan->units.emplace_back();
    unit.is_slice = true;
    unit.slice_irts = irts;
    unit.slice_cursor.seg = key;
    unit.slice_cursor.pin = true;
  }
}

}  // namespace

/// The one blob decode of the read path, shared by scans and aggregates:
/// the untrimmed decode of a blob for one tag set, served from and filled
/// into the decoded-blob cache when the tag set is cacheable, so scans and
/// aggregates with the same projection share entries. Thread-safe (the
/// codec is stateless, the counters atomic, the cache locked), so pool
/// workers share one decoder.
class BlobDecoder {
 public:
  BlobDecoder(OdhReader* reader, int schema_type, const CompressionSpec& spec,
              std::vector<int> tags, int num_tags, ScanCounters* counters)
      : reader_(reader),
        schema_type_(schema_type),
        codec_(spec),
        tags_(std::move(tags)),
        num_tags_(num_tags),
        counters_(counters) {
    cacheable_ = reader->cache_ != nullptr && TagMaskOf(tags_, &tag_mask_);
  }

  /// Decodes `blob` whole — no time trim, no id filter: series batches
  /// with every column full-length, MG batches columnarized with per-row
  /// ids. When cacheable, *cached holds the shared result (a hit, or the
  /// fresh decode just inserted); otherwise *cached stays null and the
  /// result lands in *owned.
  Status Decode(const QueuedBlob& blob,
                std::shared_ptr<const RecordBatch>* cached,
                RecordBatch* owned) const {
    const BlobRecord& rec = blob.record;
    BlobCacheKey key;
    if (cacheable_) {
      key.schema_type = schema_type_;
      key.structure = blob.kind;
      key.seg = rec.seg;
      key.generation = rec.generation;
      key.rid = PackRid(rec.rid);
      key.tag_mask = tag_mask_;
      *cached = reader_->cache_->Lookup(key);
      if (*cached != nullptr) {
        Bump(&reader_->blob_cache_hits_, counters_,
             &ScanCounters::blob_cache_hits);
        return Status::OK();
      }
    }
    Bump(&reader_->blobs_decoded_, counters_, &ScanCounters::blobs_decoded);
    Bump(&reader_->blob_bytes_read_, counters_,
         &ScanCounters::blob_bytes_read, static_cast<int64_t>(rec.blob.size()));
    if (!cacheable_) return DecodeUntrimmed(blob, owned);
    auto full = std::make_shared<RecordBatch>();
    ODH_RETURN_IF_ERROR(DecodeUntrimmed(blob, full.get()));
    const size_t bytes = BatchBytes(*full);
    *cached = full;
    reader_->cache_->Insert(key, std::move(full), bytes);
    return Status::OK();
  }

 private:
  Status DecodeUntrimmed(const QueuedBlob& blob, RecordBatch* batch) const {
    const BlobRecord& rec = blob.record;
    if (blob.kind == BlobKind::kMg) {
      std::vector<OperationalRecord> records;
      ODH_RETURN_IF_ERROR(codec_.DecodeMg(Slice(rec.blob), rec.begin, tags_,
                                          num_tags_, &records));
      ColumnarizeInto(records, num_tags_, batch);
      return Status::OK();
    }
    SeriesBatch series;
    if (blob.kind == BlobKind::kRts) {
      ODH_RETURN_IF_ERROR(codec_.DecodeRts(Slice(rec.blob), rec.id,
                                           rec.begin, rec.interval, tags_,
                                           num_tags_, &series));
    } else {
      ODH_RETURN_IF_ERROR(codec_.DecodeIrts(Slice(rec.blob), rec.id,
                                            rec.begin, tags_, num_tags_,
                                            &series));
    }
    batch->uniform_id = series.id;
    batch->timestamps = std::move(series.timestamps);
    batch->columns = std::move(series.columns);
    batch->columns.resize(static_cast<size_t>(num_tags_));
    return Status::OK();
  }

  OdhReader* reader_;
  int schema_type_;
  ValueBlobCodec codec_;
  std::vector<int> tags_;
  int num_tags_;
  ScanCounters* counters_;
  bool cacheable_ = false;
  uint64_t tag_mask_ = 0;
};

/// Implementation shared by historical and slice scans, row and batch
/// flavors. Init plans the scan's units (OdhReader::PlanScan): historical
/// listings split by (structure, segment), queued MG blobs, and one pinned
/// SliceCursor unit per slice segment. Every blob decodes into one
/// columnar RecordBatch — the batch cursor hands those out directly, the
/// row cursor drains them one record at a time — and the unflushed rows
/// follow the last unit.
///
/// One driver runs the units in unit order. With a parallelism cap of 1
/// (no pool, or query_parallelism 0/1) or a single unit, the consumer
/// thread runs them inline, decoding one blob per batch it hands out.
/// Otherwise a bounded window of units decodes on the pool while the
/// cursor thread merges their batches back in unit order — the exact
/// sequence (including zero-row pruned batches) the inline driver emits.
/// Workers never block: a unit whose ready buffer is full parks (returns
/// its pool thread) and the consumer resubmits it after draining.
class OdhScanCursorImpl : public RecordCursor, public RecordBatchCursor {
 public:
  OdhScanCursorImpl(OdhReader* reader, int schema_type, SourceId id,
                    Timestamp lo, Timestamp hi, std::vector<int> wanted_tags,
                    std::vector<TagFilter> tag_filters, int num_tags,
                    const CompressionSpec& spec, ScanCounters* counters,
                    bool count_pruning)
      : reader_(reader),
        schema_type_(schema_type),
        id_(id),
        lo_(lo),
        hi_(hi),
        tag_filters_(std::move(tag_filters)),
        num_tags_(num_tags),
        decoder_(reader, schema_type, spec, std::move(wanted_tags), num_tags,
                 counters),
        counters_(counters),
        count_pruning_(count_pruning) {}

  ~OdhScanCursorImpl() { AbandonDispatch(); }

  Status Init(const RouteDecision& route) {
    SegmentScanStats seg_stats;
    ODH_RETURN_IF_ERROR(reader_->PlanScan(schema_type_, id_, route, lo_, hi_,
                                          &seg_stats, &plan_));
    if (count_pruning_) {
      Bump(&reader_->segments_pruned_, counters_,
           &ScanCounters::segments_pruned, seg_stats.segments_pruned);
    }
    const int window = reader_->EffectiveParallelism();
    if (window >= 2 && plan_.units.size() >= 2) StartDispatch(window);
    return Status::OK();
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
  /// Refills *batch: the units' batches in unit order, then the dirty
  /// rows. False at end of stream.
  Result<bool> ProduceBatch(RecordBatch* batch) {
    batch->clear();
    ODH_ASSIGN_OR_RETURN(bool got, dispatch_ != nullptr
                                       ? NextDispatchedBatch(batch)
                                       : NextInlineBatch(batch));
    if (got) return true;
    if (plan_.dirty.empty()) return false;
    ColumnarizeInto(plan_.dirty, num_tags_, batch);
    plan_.dirty.clear();
    return true;
  }

  /// Inline driver: the consumer runs the units itself, in order.
  Result<bool> NextInlineBatch(RecordBatch* batch) {
    while (current_unit_ < plan_.units.size()) {
      ODH_ASSIGN_OR_RETURN(bool more,
                           NextUnitBatch(&plan_.units[current_unit_], batch));
      if (more) return true;
      ++current_unit_;
    }
    return false;
  }

  /// The unit's next batch, false once it is exhausted: one blob, pruned
  /// by its zone map (zero rows) or decoded and trimmed to [lo_, hi_]
  /// (and, for MG, to id_). Runs on the consumer or a pool worker; touches
  /// only the unit, immutable cursor state and the thread-safe decoder.
  Result<bool> NextUnitBatch(ScanUnit* u, RecordBatch* batch) {
    QueuedBlob blob;
    ODH_ASSIGN_OR_RETURN(bool got, u->NextBlob(reader_->store_, schema_type_,
                                               lo_, hi_, &blob));
    if (!got) return false;
    if (Prunable(blob.record)) {
      Bump(&reader_->blobs_pruned_, counters_, &ScanCounters::blobs_pruned);
      return true;
    }
    std::shared_ptr<const RecordBatch> cached;
    ODH_RETURN_IF_ERROR(decoder_.Decode(blob, &cached, batch));
    // MG blobs mix sources, so the id constraint applies to them only.
    const SourceId id_filter = blob.kind == BlobKind::kMg ? id_ : -1;
    if (cached != nullptr) {
      TrimBatch(*cached, lo_, hi_, id_filter, batch);
    } else {
      TrimInPlace(lo_, hi_, id_filter, batch);
    }
    return true;
  }

  /// Zone-map pruning: skip the blob when its per-tag ranges cannot
  /// satisfy the pushed filters (paper §6 future work).
  bool Prunable(const BlobRecord& record) const {
    if (tag_filters_.empty() || record.zone_map.empty()) return false;
    auto map = ZoneMap::Decode(Slice(record.zone_map));
    if (!map.ok()) return false;  // Corrupt summaries never prune.
    return !map->MayMatch(tag_filters_);
  }

  // --- Pool dispatch ---------------------------------------------------
  //
  // Units are consumed strictly in order by the cursor thread; a bounded
  // window of them (EffectiveParallelism) runs on the pool at once. A
  // worker owns its unit's progress state exclusively while its task is
  // live and hands batches over under the unit's handover mutex. Because
  // dispatch is in unit order and parked workers release their pool
  // thread, the unit at the merge frontier always makes progress — no
  // consumer stall can pin the pool.

  /// Window and dispatch progress; `next` and `inflight` are guarded by
  /// `mu`.
  struct Dispatch {
    int window = 0;
    std::mutex mu;
    std::condition_variable cv;
    size_t next = 0;
    int inflight = 0;
  };

  void StartDispatch(int window) {
    dispatch_ = std::make_unique<Dispatch>();
    dispatch_->window = window;
    for (ScanUnit& u : plan_.units) {
      u.handover = std::make_unique<UnitHandover>();
    }
    Bump(&reader_->segments_scanned_parallel_, counters_,
         &ScanCounters::segments_scanned_parallel,
         static_cast<int64_t>(plan_.groups));
    std::lock_guard<std::mutex> lock(dispatch_->mu);
    while (dispatch_->next < plan_.units.size() &&
           dispatch_->inflight < dispatch_->window) {
      DispatchOneLocked();
    }
  }

  /// Requires dispatch_->mu. Hands the next unit in order to the pool.
  void DispatchOneLocked() {
    ScanUnit* u = &plan_.units[dispatch_->next++];
    ++dispatch_->inflight;
    reader_->parallel_tasks_.fetch_add(1, std::memory_order_relaxed);
    reader_->pool_->Submit([this, u] { RunUnit(u); });
  }

  /// Guarantees the merge-frontier unit has a worker (dispatch is strictly
  /// in unit order), then fills the rest of the window.
  void EnsureDispatched() {
    Dispatch& d = *dispatch_;
    std::unique_lock<std::mutex> lock(d.mu);
    while (d.next <= current_unit_) {
      if (d.inflight < d.window) {
        DispatchOneLocked();
      } else {
        d.cv.wait(lock);
      }
    }
    while (d.next < plan_.units.size() && d.inflight < d.window) {
      DispatchOneLocked();
    }
  }

  /// Worker body: produce batches until the unit is exhausted, the buffer
  /// fills (park), an error occurs, or the cursor is abandoned. NOTHING
  /// may run after the park return — the consumer owns the unit from the
  /// moment parked is set.
  void RunUnit(ScanUnit* u) {
    UnitHandover& h = *u->handover;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(h.mu);
        if (h.abandoned) break;
        if (h.ready.size() >= kUnitBufferBatches) {
          h.parked = true;
          return;
        }
      }
      RecordBatch batch;
      Result<bool> more = NextUnitBatch(u, &batch);
      if (more.ok() && !more.value()) break;
      {
        std::lock_guard<std::mutex> lock(h.mu);
        h.ready.push_back(std::move(batch));
        h.ready_status.push_back(more.status());
        h.cv.notify_all();
      }
      if (!more.ok()) break;  // The error surfaces at its place in order.
    }
    FinishUnit(u);
  }

  void FinishUnit(ScanUnit* u) {
    {
      std::lock_guard<std::mutex> lock(u->handover->mu);
      u->handover->done = true;
      u->handover->cv.notify_all();
    }
    std::lock_guard<std::mutex> lock(dispatch_->mu);
    --dispatch_->inflight;
    dispatch_->cv.notify_all();
  }

  /// Consumer side of the ordered merge: batches come off the units in
  /// unit order, which is exactly the inline emission order.
  Result<bool> NextDispatchedBatch(RecordBatch* batch) {
    while (current_unit_ < plan_.units.size()) {
      EnsureDispatched();
      ScanUnit* u = &plan_.units[current_unit_];
      UnitHandover& h = *u->handover;
      RecordBatch b;
      Status st;
      bool got = false;
      bool resume = false;
      {
        std::unique_lock<std::mutex> lock(h.mu);
        if (h.ready.empty() && !h.done) {
          reader_->merge_stalls_.fetch_add(1, std::memory_order_relaxed);
          h.cv.wait(lock, [&] { return !h.ready.empty() || h.done; });
        }
        if (!h.ready.empty()) {
          b = std::move(h.ready.front());
          st = std::move(h.ready_status.front());
          h.ready.pop_front();
          h.ready_status.pop_front();
          got = true;
          if (h.parked) {
            h.parked = false;
            resume = true;  // Resubmit outside the unit lock.
          }
        }
      }
      if (resume) reader_->pool_->Submit([this, u] { RunUnit(u); });
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
  void AbandonDispatch() {
    if (dispatch_ == nullptr) return;
    for (ScanUnit& u : plan_.units) {
      std::lock_guard<std::mutex> lock(u.handover->mu);
      u.handover->abandoned = true;
      u.handover->cv.notify_all();
    }
    for (ScanUnit& u : plan_.units) {
      UnitHandover& h = *u.handover;
      bool finalize = false;
      {
        std::lock_guard<std::mutex> lock(h.mu);
        if (h.parked && !h.done) {
          h.parked = false;
          h.done = true;
          finalize = true;
        }
      }
      if (finalize) {
        std::lock_guard<std::mutex> lock(dispatch_->mu);
        --dispatch_->inflight;
        dispatch_->cv.notify_all();
      }
    }
    std::unique_lock<std::mutex> lock(dispatch_->mu);
    dispatch_->cv.wait(lock, [&] { return dispatch_->inflight == 0; });
  }

  OdhReader* reader_;
  int schema_type_;
  SourceId id_;  // -1 for slice scans.
  Timestamp lo_, hi_;
  std::vector<TagFilter> tag_filters_;
  int num_tags_;
  const BlobDecoder decoder_;
  ScanCounters* counters_;  // Per-query profile; may be null.
  bool count_pruning_;  // False for windows: the window loop counts.

  /// Units and dirty rows; fixed after Init except for each unit's own
  /// progress state and the dirty rows, cleared once emitted.
  ScanPlan plan_;
  /// Next unit to emit from; touched only by the consumer thread.
  size_t current_unit_ = 0;
  /// Current batch being drained by the row-at-a-time view.
  RecordBatch batch_;
  size_t row_pos_ = 0;
  Status poison_;  // First error seen; repeated by every later Next.
  /// Null while the units run inline.
  std::unique_ptr<Dispatch> dispatch_;
};

namespace {

/// Accumulates the aggregate-pushdown answer across blob summaries and
/// decoded batches (blobs and dirty rows alike).
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

  /// Folds in an untrimmed batch column-wise: builds a selection (time
  /// bounds and, for batches with per-row ids, `id_filter`; then each tag
  /// filter) and sweeps the per-tag arrays. Each tag accumulates in row
  /// order, so a serial fold is deterministic. Returns the rows inside
  /// [lo, hi] (and matching `id_filter`) before tag filtering.
  int64_t AddBatch(const RecordBatch& batch, Timestamp lo, Timestamp hi,
                   SourceId id_filter) {
    const size_t n = batch.rows();
    sel_.clear();
    sel_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (!TrimmedAway(batch, i, lo, hi, id_filter)) {
        sel_.push_back(static_cast<int32_t>(i));
      }
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
        continue;  // Unprojected / unknown: all NULL, contributes nothing.
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

Status OdhReader::PlanScan(int schema_type, SourceId id,
                           const RouteDecision& route, Timestamp lo,
                           Timestamp hi, SegmentScanStats* seg_stats,
                           ScanPlan* plan) {
  if (id >= 0) {
    ODH_ASSIGN_OR_RETURN(OdhStore::HistoricalListing listing,
                         ListConsistent(schema_type, id, route, lo, hi,
                                        seg_stats, &plan->dirty));
    AddListedUnits(BlobKind::kRts, std::move(listing.rts), plan);
    AddListedUnits(BlobKind::kIrts, std::move(listing.irts), plan);
    AddListedUnits(BlobKind::kMg, std::move(listing.mg), plan);
    return Status::OK();
  }
  if (route.scan_mg) {
    ODH_ASSIGN_OR_RETURN(auto mg,
                         store_->GetMg(schema_type, -1, lo, hi, seg_stats));
    AddListedUnits(BlobKind::kMg, std::move(mg), plan);
  }
  for (bool irts : {false, true}) {
    if (irts ? !route.scan_irts : !route.scan_rts) continue;
    ODH_ASSIGN_OR_RETURN(
        auto keys, store_->SliceSegments(schema_type, irts, lo, hi, seg_stats));
    AddSliceUnits(irts, keys, plan);
  }
  return writer_->CollectDirty(schema_type, id, lo, hi, &plan->dirty);
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
  Bump(&segments_pruned_, counters, &ScanCounters::segments_pruned, n);
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
  AggregateAccumulator acc(&tag_filters, &agg_tags);

  // Tags the decode fallback actually needs: aggregated plus filtered.
  std::set<int> needed(agg_tags.begin(), agg_tags.end());
  for (const TagFilter& f : tag_filters) needed.insert(f.tag);
  const BlobDecoder decoder(this, schema_type, type->compression,
                            std::vector<int>(needed.begin(), needed.end()),
                            num_tags, counters);

  // The scan's units and unflushed rows, planned exactly as a scan of the
  // same range plans them.
  ODH_ASSIGN_OR_RETURN(ScanTarget target, ResolveScan(schema_type, id));
  ScanPlan plan;
  SegmentScanStats seg_stats;
  ODH_RETURN_IF_ERROR(PlanScan(schema_type, id, target.route, lo, hi,
                               &seg_stats, &plan));
  Bump(&segments_pruned_, counters, &ScanCounters::segments_pruned,
       seg_stats.segments_pruned);

  // Per-blob step: summary pruning, a summary-only answer, or a decode and
  // fold into *acc (a unit-local accumulator when units run in parallel).
  // Thread-safe: it touches only the decoder and the atomic counters.
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
      Bump(&blobs_pruned_, counters, &ScanCounters::blobs_pruned);
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
      Bump(&blobs_skipped_by_summary_, counters,
           &ScanCounters::blobs_skipped_by_summary);
      return Status::OK();
    }
    // Fallback: decode and fold the boundary / unprovable blob.
    std::shared_ptr<const RecordBatch> cached;
    RecordBatch owned;
    ODH_RETURN_IF_ERROR(decoder.Decode(blob, &cached, &owned));
    const int64_t in_range =
        acc->AddBatch(cached != nullptr ? *cached : owned, lo, hi,
                      blob.kind == BlobKind::kMg ? id : -1);
    Bump(&records_emitted_, counters, &ScanCounters::rows_scanned, in_range);
    return Status::OK();
  };
  auto run_unit = [&](ScanUnit* unit, AggregateAccumulator* acc) -> Status {
    QueuedBlob blob;
    while (true) {
      ODH_ASSIGN_OR_RETURN(bool got,
                           unit->NextBlob(store_, schema_type, lo, hi, &blob));
      if (!got) return Status::OK();
      ODH_RETURN_IF_ERROR(process_blob(blob, acc));
    }
  };

  // Several units under a parallelism cap of 2 or more: work-share them
  // with unit-local accumulators, merged back in unit order. Counts merge
  // exactly; parallel sums reassociate (documented last-ulp caveat).
  std::vector<ScanUnit>& units = plan.units;
  const int width = EffectiveParallelism();
  if (width >= 2 && units.size() >= 2) {
    parallel_tasks_.fetch_add(static_cast<int64_t>(units.size()),
                              std::memory_order_relaxed);
    Bump(&segments_scanned_parallel_, counters,
         &ScanCounters::segments_scanned_parallel,
         static_cast<int64_t>(plan.groups));
    struct Partial {
      Status status;
      AggregateResult result;
    };
    std::vector<Partial> partials(units.size());
    std::atomic<size_t> next{0};
    auto work = [&] {
      while (true) {
        const size_t u = next.fetch_add(1, std::memory_order_relaxed);
        if (u >= units.size()) break;
        AggregateAccumulator local(&tag_filters, &agg_tags);
        partials[u].status = run_unit(&units[u], &local);
        partials[u].result = local.Take();
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
    for (const Partial& p : partials) {
      ODH_RETURN_IF_ERROR(p.status);
      acc.Merge(p.result);
    }
  } else {
    for (ScanUnit& unit : units) ODH_RETURN_IF_ERROR(run_unit(&unit, &acc));
  }

  // Unflushed writer rows, already filtered to `id` by the writer.
  RecordBatch dirty;
  ColumnarizeInto(plan.dirty, num_tags, &dirty);
  acc.AddBatch(dirty, lo, hi, /*id_filter=*/-1);
  return acc.Take();
}

}  // namespace odh::core
