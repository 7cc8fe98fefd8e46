#ifndef ODH_CORE_WRITER_H_
#define ODH_CORE_WRITER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "core/store.h"
#include "core/value_blob.h"

namespace odh::core {

/// Ingestion counters (reported by the benchmark harness).
struct WriterStats {
  int64_t points_ingested = 0;
  int64_t rts_blobs = 0;
  int64_t irts_blobs = 0;
  int64_t mg_blobs = 0;
  int64_t blob_bytes = 0;
  /// Store syncs issued by Flush, and how many had to be re-issued after a
  /// transient fault outlived the storage layer's own backoff retries.
  int64_t syncs = 0;
  int64_t sync_retries = 0;
};

/// The ODH writer (paper §3 storage component): buffers incoming
/// operational records and packs every `b` points into a ValueBlob.
///
///  - High-frequency sources buffer per source; a full buffer becomes an
///    RTS blob when the timestamps are regular (within 1% jitter of the
///    source's expected interval), else an IRTS blob.
///  - Low-frequency sources buffer per MG group; a group buffer becomes an
///    MG blob when it reaches `b` points or its time window closes.
///
/// Ingestion is transaction-free (paper: "The insertion process does not
/// support transactions"). Unflushed buffers are visible to queries through
/// CollectDirty — the paper's dirty-read isolation level.
///
/// Thread-safe: the writer is split into `options().writer_shards`
/// independent shards, each owning its sources' buffers, last-timestamp
/// watermarks and counters under its own mutex. A high-frequency source
/// maps to a shard by source id; a low-frequency source by its MG group,
/// so a group buffer is only ever touched by one shard. Blob encoding runs
/// under the shard mutex but outside any store lock — lock order is
/// writer shard -> store -> WAL -> disk. Ingest may be called from many
/// threads; per-source timestamp monotonicity is still required (a single
/// source must not be fed from two threads at once without ordering).
class OdhWriter {
 public:
  OdhWriter(OdhStore* store, ConfigComponent* config);

  OdhWriter(const OdhWriter&) = delete;
  OdhWriter& operator=(const OdhWriter&) = delete;

  /// Ingests one record. Timestamps per source must be non-decreasing.
  Status Ingest(const OperationalRecord& record);

  /// Flushes every buffer of a schema type (partial blobs included).
  Status Flush(int schema_type);
  Status FlushAll();

  /// Appends buffered-but-unflushed records matching the filters to *out.
  /// `id` < 0 matches all sources; tags outside `wanted_tags` are still
  /// included (buffers are row-format; the saving only applies to blobs).
  /// The result is ordered exactly as the single-shard writer would order
  /// it: high-frequency sources by ascending id, then group buffers by
  /// (schema_type, group). Each shard is snapshotted under its own mutex.
  ///
  /// `flushed_through` (optional) makes this the second half of a
  /// consistent cut: it receives, read under the same shard lock, the
  /// store put sequence of the latest blob flushed from any buffer that
  /// can hold matching rows (the owner of `id`'s buffer, or every shard
  /// when `id` < 0). Every matching row ingested so far is then either in
  /// *out or in a blob put at or before that sequence; a reader whose blob
  /// listing stopped short of it catches up on the difference
  /// (OdhStore::CatchUpHistorical) instead of waiting for the writer, and
  /// the writer never waits on a reader either.
  Status CollectDirty(int schema_type, SourceId id, Timestamp lo,
                      Timestamp hi, std::vector<OperationalRecord>* out,
                      uint64_t* flushed_through = nullptr) const;

  /// Aggregated counters across all shards (a consistent-enough snapshot:
  /// each shard is summed under its own mutex).
  WriterStats stats() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Hooks the writer up to a metrics registry: flush latency (encode +
  /// store put, one observation per blob — never per record) lands in the
  /// `odh.writer.flush_micros` histogram. Call before ingest starts.
  void SetMetrics(common::MetricsRegistry* metrics) {
    flush_hist_ = metrics == nullptr
                      ? nullptr
                      : metrics->GetHistogram("odh.writer.flush_micros");
  }

 private:
  struct SourceBuffer {
    std::vector<Timestamp> timestamps;
    std::vector<std::vector<double>> columns;  // Tag-major.
    size_t size() const { return timestamps.size(); }
  };
  struct GroupBuffer {
    std::vector<OperationalRecord> records;
    Timestamp window_begin = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<SourceId, SourceBuffer> source_buffers;
    std::map<std::pair<int, int64_t>, GroupBuffer> group_buffers;
    std::map<SourceId, Timestamp> last_ts;
    WriterStats stats;  // Guarded by mu; syncs/sync_retries stay zero.
    /// Store put sequence of this shard's latest flushed blob.
    uint64_t last_put_seq = 0;
  };

  Shard& ShardForSource(SourceId id);
  Shard& ShardForGroup(int schema_type, int64_t group);
  size_t ShardIndexForSource(SourceId id) const;
  size_t ShardIndexForGroup(int schema_type, int64_t group) const;

  Status FlushSource(Shard& shard, SourceId id, const DataSourceInfo& info,
                     SourceBuffer* buffer);
  Status FlushGroup(Shard& shard, int schema_type, int64_t group,
                    GroupBuffer* buffer);

  Result<const ValueBlobCodec*> CodecFor(int schema_type);

  OdhStore* store_;
  ConfigComponent* config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Guards codecs_ (std::map gives pointer stability, so CodecFor hands
  /// out pointers that outlive the lock).
  std::mutex codec_mu_;
  std::map<int, ValueBlobCodec> codecs_;
  /// Sync counters are writer-global, not per shard: Flush syncs the store
  /// once for all shards.
  std::atomic<int64_t> syncs_{0};
  std::atomic<int64_t> sync_retries_{0};
  common::Histogram* flush_hist_ = nullptr;  // Null when not wired.
};

}  // namespace odh::core

#endif  // ODH_CORE_WRITER_H_
