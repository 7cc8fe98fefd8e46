#ifndef ODH_CORE_READER_H_
#define ODH_CORE_READER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/router.h"
#include "core/store.h"
#include "core/value_blob.h"
#include "core/writer.h"
#include "core/zone_map.h"

namespace odh::core {

class BlobCache;
class BlobDecoder;
class OdhScanCursorImpl;
struct ScanPlan;

/// Pull-based stream of decoded operational records. This is the shared
/// read path: the native query API returns it directly (the paper's
/// "bypass the SQL interface" fast path), and the VTI adapter wraps it
/// with Datum row assembly for SQL.
class RecordCursor {
 public:
  virtual ~RecordCursor() = default;
  /// Produces the next record; false at end of stream. Tags outside the
  /// requested set are NaN.
  virtual Result<bool> Next(OperationalRecord* record) = 0;
};

/// One decoded blob (or the dirty-buffer slice) in columnar, tag-major
/// form — what a ValueBlob already is on disk, handed out without per-row
/// materialization. `columns` has one slot per schema tag; each column is
/// either full-length (NaN = missing value) or empty (tag not requested;
/// reads as all-missing). `ids` is empty when every row belongs to
/// `uniform_id` (the common case: one blob = one source).
struct RecordBatch {
  SourceId uniform_id = -1;
  std::vector<SourceId> ids;
  std::vector<Timestamp> timestamps;
  std::vector<std::vector<double>> columns;

  size_t rows() const { return timestamps.size(); }
  SourceId id_at(size_t i) const { return ids.empty() ? uniform_id : ids[i]; }
  void clear() {
    uniform_id = -1;
    ids.clear();
    timestamps.clear();
    columns.clear();
  }
};

/// Pull-based stream of RecordBatches: the columnar twin of RecordCursor.
/// Batches may have zero rows (a fully pruned blob); callers keep pulling
/// until end of stream.
class RecordBatchCursor {
 public:
  virtual ~RecordBatchCursor() = default;
  virtual Result<bool> Next(RecordBatch* batch) = 0;
};

/// Counters for one scan (exposed so benches can report blob I/O).
struct ReadStats {
  int64_t blobs_decoded = 0;
  int64_t blobs_pruned = 0;  // Skipped entirely via zone maps.
  int64_t blobs_skipped_by_summary = 0;  // Aggregated without decoding.
  int64_t blob_bytes_read = 0;
  int64_t records_emitted = 0;
  /// Whole segments skipped by manifest time bounds (no page reads).
  int64_t segments_pruned = 0;
  /// Blobs served from the decoded-blob cache (disjoint from
  /// blobs_decoded).
  int64_t blob_cache_hits = 0;
  /// Scan units handed to pool workers by the segment-parallel driver.
  int64_t parallel_tasks = 0;
  /// Times the ordered-merge consumer had to block waiting for the batch
  /// at the emission frontier (its worker was still decoding it).
  int64_t merge_stalls = 0;
  /// Distinct (structure, segment) groups scanned by parallel workers.
  int64_t segments_scanned_parallel = 0;
};

/// One query's scan, resolved once: the source (-1 = every source of the
/// type, a slice) and the router's decision. A windowed top-k scan opens
/// many time windows from one target, so it still costs one router lookup
/// per query.
struct ScanTarget {
  int schema_type = 0;
  SourceId id = -1;
  RouteDecision route;
};

/// Per-tag accumulator returned by OdhReader::Aggregate. `count`/`sum`
/// cover the non-NaN values of the tag among matching rows; min/max are
/// valid only when `has_value`.
struct TagAggregate {
  int64_t count = 0;
  double sum = 0;
  bool has_value = false;
  double min = 0;
  double max = 0;
};

/// Result of an aggregate-pushdown read. `rows_matched` counts rows that
/// satisfy the time range and every tag filter (COUNT(*)); `tags` is
/// aligned with the `agg_tags` argument.
struct AggregateResult {
  int64_t rows_matched = 0;
  std::vector<TagAggregate> tags;
};

/// The ODH read path: routes, fetches blobs with partition elimination,
/// decodes only the requested tags (tag-oriented access), merges unflushed
/// writer buffers (dirty-read isolation).
///
/// Every scan splits its candidate blobs into units (see
/// EffectiveParallelism): the cursor thread runs them inline, or, with a
/// pool and a cap of 2 or more, a window of them decodes on the pool;
/// records come back from the cursor in the same order either way.
/// Counters are atomic, so cursors may be driven while other threads open
/// more cursors; a single cursor itself is not for sharing between threads.
class OdhReader {
 public:
  OdhReader(ConfigComponent* config, OdhStore* store, OdhWriter* writer,
            DataRouter* router, common::ThreadPool* pool = nullptr,
            BlobCache* cache = nullptr)
      : config_(config),
        store_(store),
        writer_(writer),
        router_(router),
        pool_(pool),
        cache_(cache) {}

  /// Historical query: all points of `id` in [lo, hi]. `tag_filters`
  /// (optional) lets the reader prune whole blobs via their zone maps; the
  /// caller still re-checks row-level predicates.
  /// `counters` (optional, must outlive the cursor) receives per-scan
  /// profile counts in addition to the reader-global atomics.
  /// `window` (optional) marks the scan as one time window of a windowed
  /// top-k scan, already routed by ResolveScan(schema_type, id): it makes
  /// no router lookup and counts no segment pruning — the window loop
  /// reports that once for the range it visited, via CountSegmentsPruned.
  Result<std::unique_ptr<RecordCursor>> OpenHistorical(
      int schema_type, SourceId id, Timestamp lo, Timestamp hi,
      const std::vector<int>& wanted_tags,
      std::vector<TagFilter> tag_filters = {},
      common::ScanCounters* counters = nullptr,
      const ScanTarget* window = nullptr);

  /// Slice query: all points of every source of the type in [lo, hi].
  /// The segments to visit are listed at open; each streams its blob rows
  /// in chunks.
  Result<std::unique_ptr<RecordCursor>> OpenSlice(
      int schema_type, Timestamp lo, Timestamp hi,
      const std::vector<int>& wanted_tags,
      std::vector<TagFilter> tag_filters = {},
      common::ScanCounters* counters = nullptr,
      const ScanTarget* window = nullptr);

  /// Columnar variants of the scans above: one RecordBatch per decoded
  /// blob, no per-record materialization. Same routing, pruning, scan
  /// driver, and dirty-read merge as the row cursors.
  Result<std::unique_ptr<RecordBatchCursor>> OpenHistoricalBatches(
      int schema_type, SourceId id, Timestamp lo, Timestamp hi,
      const std::vector<int>& wanted_tags,
      std::vector<TagFilter> tag_filters = {},
      common::ScanCounters* counters = nullptr,
      const ScanTarget* window = nullptr);
  Result<std::unique_ptr<RecordBatchCursor>> OpenSliceBatches(
      int schema_type, Timestamp lo, Timestamp hi,
      const std::vector<int>& wanted_tags,
      std::vector<TagFilter> tag_filters = {},
      common::ScanCounters* counters = nullptr,
      const ScanTarget* window = nullptr);

  /// Routes a scan of `id` (< 0: slice over every source): the one router
  /// lookup a windowed scan makes. NotFound for an unknown id.
  Result<ScanTarget> ResolveScan(int schema_type, SourceId id);

  /// Segment manifests for window planning (see OdhStore::SegmentBoundsOf).
  std::vector<SegmentBounds> SegmentBoundsOf(int schema_type) const {
    return store_->SegmentBoundsOf(schema_type);
  }

  /// Counts, into the reader and `counters`, the segments of `bounds` that
  /// an ordinary scan of `target` over [lo, hi] would skip by their data
  /// bounds — non-empty structures the route visits, disjoint from
  /// [lo, hi]. A window loop calls it once with the range it visited, so
  /// segments it never opened count as pruned exactly once.
  void CountSegmentsPruned(const ScanTarget& target,
                           const std::vector<SegmentBounds>& bounds,
                           Timestamp lo, Timestamp hi,
                           common::ScanCounters* counters);

  /// Aggregate pushdown: COUNT(*) plus per-tag COUNT/SUM/MIN/MAX over the
  /// rows of [lo, hi] (all sources when `id` < 0) that pass every
  /// `tag_filter`. Blobs whose v2 zone map proves full coverage — time
  /// range containment, no missing values on filtered tags, ranges inside
  /// the filter bounds — are answered from the summary alone and counted
  /// in `blobs_skipped_by_summary`; the rest decode and scan. Set
  /// `need_values` when SUM/AVG/MIN/MAX is wanted: value aggregates are
  /// only taken from summaries marked exact (lossless codecs), since a
  /// widened lossy summary can disagree with decoded values. Counts are
  /// summary-answerable even for lossy blobs (codecs preserve which
  /// values are missing).
  Result<AggregateResult> Aggregate(int schema_type, SourceId id,
                                    Timestamp lo, Timestamp hi,
                                    const std::vector<TagFilter>& tag_filters,
                                    const std::vector<int>& agg_tags,
                                    bool need_values,
                                    common::ScanCounters* counters = nullptr);

  /// Cumulative stats across all cursors opened from this reader
  /// (snapshot of the atomic counters).
  ReadStats stats() const {
    ReadStats s;
    s.blobs_decoded = blobs_decoded_.load(std::memory_order_relaxed);
    s.blobs_pruned = blobs_pruned_.load(std::memory_order_relaxed);
    s.blobs_skipped_by_summary =
        blobs_skipped_by_summary_.load(std::memory_order_relaxed);
    s.blob_bytes_read = blob_bytes_read_.load(std::memory_order_relaxed);
    s.records_emitted = records_emitted_.load(std::memory_order_relaxed);
    s.segments_pruned = segments_pruned_.load(std::memory_order_relaxed);
    s.blob_cache_hits = blob_cache_hits_.load(std::memory_order_relaxed);
    s.parallel_tasks = parallel_tasks_.load(std::memory_order_relaxed);
    s.merge_stalls = merge_stalls_.load(std::memory_order_relaxed);
    s.segments_scanned_parallel =
        segments_scanned_parallel_.load(std::memory_order_relaxed);
    return s;
  }
  /// Atomically returns the counters accumulated since the last reset and
  /// zeroes them in the same operation. Increments that race the snapshot
  /// land in exactly one epoch — a `stats()` load followed by `ResetStats()`
  /// would lose them, so benches that subtract across a reset use this.
  ReadStats SnapshotAndResetStats() {
    ReadStats s;
    s.blobs_decoded = blobs_decoded_.exchange(0, std::memory_order_relaxed);
    s.blobs_pruned = blobs_pruned_.exchange(0, std::memory_order_relaxed);
    s.blobs_skipped_by_summary =
        blobs_skipped_by_summary_.exchange(0, std::memory_order_relaxed);
    s.blob_bytes_read =
        blob_bytes_read_.exchange(0, std::memory_order_relaxed);
    s.records_emitted =
        records_emitted_.exchange(0, std::memory_order_relaxed);
    s.segments_pruned =
        segments_pruned_.exchange(0, std::memory_order_relaxed);
    s.blob_cache_hits =
        blob_cache_hits_.exchange(0, std::memory_order_relaxed);
    s.parallel_tasks = parallel_tasks_.exchange(0, std::memory_order_relaxed);
    s.merge_stalls = merge_stalls_.exchange(0, std::memory_order_relaxed);
    s.segments_scanned_parallel =
        segments_scanned_parallel_.exchange(0, std::memory_order_relaxed);
    return s;
  }
  void ResetStats() { SnapshotAndResetStats(); }

  common::ThreadPool* pool() const { return pool_; }
  BlobCache* cache() const { return cache_; }

  /// Worker cap for segment-parallel scans: 1 (units run inline on the
  /// cursor thread) without a pool or with query_parallelism 0/1, the pool
  /// size when query_parallelism is negative, the configured cap
  /// otherwise.
  int EffectiveParallelism() const {
    if (pool_ == nullptr) return 1;
    const int qp = config_->options().query_parallelism;
    if (qp < 0) return pool_->num_threads();
    return qp <= 1 ? 1 : qp;
  }

 private:
  friend class BlobDecoder;
  friend class OdhScanCursorImpl;

  /// One source's blob listing plus its unflushed rows (into *dirty) as a
  /// consistent cut: every row ingested before the call is in exactly one
  /// of the two. A flush landing between listing and collection is caught
  /// up on from the store's put log; only when that log cannot serve it
  /// (compaction or a very long gap) does the listing repeat.
  Result<OdhStore::HistoricalListing> ListConsistent(
      int schema_type, SourceId id, const RouteDecision& route, Timestamp lo,
      Timestamp hi, SegmentScanStats* seg_stats,
      std::vector<OperationalRecord>* dirty);

  /// Plans a scan or aggregate of `id` (< 0: slice) into *plan: its units
  /// in emission order — a historical listing split by (structure,
  /// segment), or a slice's MG blobs plus one pinned-cursor unit per
  /// listed segment — and the unflushed rows that follow them.
  Status PlanScan(int schema_type, SourceId id, const RouteDecision& route,
                  Timestamp lo, Timestamp hi, SegmentScanStats* seg_stats,
                  ScanPlan* plan);

  /// Shared body of the Open* entry points (`id` < 0: slice).
  Result<std::unique_ptr<OdhScanCursorImpl>> OpenScan(
      int schema_type, SourceId id, Timestamp lo, Timestamp hi,
      const std::vector<int>& wanted_tags, std::vector<TagFilter> tag_filters,
      common::ScanCounters* counters, const ScanTarget* window);

  ConfigComponent* config_;
  OdhStore* store_;
  OdhWriter* writer_;
  DataRouter* router_;
  common::ThreadPool* pool_;  // Not owned; nullptr = units run inline.
  BlobCache* cache_;  // Not owned; nullptr = no decoded-blob cache.
  std::atomic<int64_t> blobs_decoded_{0};
  std::atomic<int64_t> blobs_pruned_{0};
  std::atomic<int64_t> blobs_skipped_by_summary_{0};
  std::atomic<int64_t> blob_bytes_read_{0};
  std::atomic<int64_t> records_emitted_{0};
  std::atomic<int64_t> segments_pruned_{0};
  std::atomic<int64_t> blob_cache_hits_{0};
  std::atomic<int64_t> parallel_tasks_{0};
  std::atomic<int64_t> merge_stalls_{0};
  std::atomic<int64_t> segments_scanned_parallel_{0};
};

}  // namespace odh::core

#endif  // ODH_CORE_READER_H_
