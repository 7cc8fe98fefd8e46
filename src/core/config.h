#ifndef ODH_CORE_CONFIG_H_
#define ODH_CORE_CONFIG_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "core/compression.h"

namespace odh::core {

/// How a data source samples (paper §2, Table 1). High-frequency sources
/// get per-source structures (RTS/IRTS); low-frequency sources are grouped
/// (MG) at ingestion and reorganized into per-source structures for
/// historical queries.
enum class SourceClass {
  kRegularHighFrequency,
  kIrregularHighFrequency,
  kRegularLowFrequency,
  kIrregularLowFrequency,
};

std::string SourceClassName(SourceClass c);

inline bool IsHighFrequency(SourceClass c) {
  return c == SourceClass::kRegularHighFrequency ||
         c == SourceClass::kIrregularHighFrequency;
}
inline bool IsRegular(SourceClass c) {
  return c == SourceClass::kRegularHighFrequency ||
         c == SourceClass::kRegularLowFrequency;
}

/// A schema type: the fixed record shape shared by a set of data sources.
/// The virtual table for it exposes (id BIGINT, timestamp TIMESTAMP,
/// <tags...> DOUBLE).
struct SchemaType {
  std::string name;
  std::vector<std::string> tag_names;
  CompressionSpec compression;
};

/// Registered metadata for one data source.
struct DataSourceInfo {
  SourceId id = 0;
  int schema_type = -1;
  SourceClass source_class = SourceClass::kIrregularHighFrequency;
  /// Expected sampling interval (used to verify RTS regularity).
  Timestamp expected_interval = 0;
  /// MG group for low-frequency sources.
  int64_t group = 0;
};

/// Tunables of the ODH instance.
struct OdhOptions {
  /// Batch size b: points packed into one ValueBlob (paper §2).
  int batch_size = 256;
  /// Sources per MG group.
  int mg_group_size = 1024;
  /// MG time window: an MG blob never spans more than this.
  Timestamp mg_window = 15 * kMicrosPerMinute;
  /// Sources classified as high-frequency at or above this rate.
  double high_frequency_threshold_hz = 1.0;
  /// Per-blob tag min/max zone maps: the paper's §6 future-work indexing
  /// that lets queries on attribute values skip non-matching ValueBlobs.
  bool enable_zone_maps = true;
  /// Buffer-pool pages for the embedded storage engine.
  size_t pool_pages = 8192;
  /// Writer shards: Ingest routes each source (or MG group) to one of
  /// these by hash, so concurrent ingestion threads rarely contend. One
  /// shard reproduces the single-threaded writer exactly.
  int writer_shards = 8;
  /// Worker threads of the shared pool that parallel scans, aggregates and
  /// compaction run on. Values below 2 create no pool unless
  /// query_parallelism asks for one; the scan fan-out itself is capped by
  /// query_parallelism.
  int read_parallelism = 0;
  /// Observability: wire flush/sync instruments into the components,
  /// register the pull-gauges, and expose the odh_metrics / odh_queries /
  /// odh_storage system tables. Off exists for the bench's overhead
  /// ablation — production instances have no reason to disable it.
  bool enable_metrics = true;
  /// Time-partitioned segments: blobs are routed to the segment covering
  /// floor(begin_ts / segment_span). Scans consult segment time bounds
  /// first, so a recent-window query skips cold history with O(segments)
  /// metadata checks; retention drops whole segments as a metadata
  /// operation. 0 (the default) keeps the pre-segment layout: one
  /// unbounded segment per schema type, no pruning, no retention.
  Timestamp segment_span = 0;
  /// Compaction merges small cold blobs up to this many points per
  /// rewritten blob (RTS/IRTS only; MG blobs are left alone so the WAL's
  /// content-keyed delete cancellation stays valid).
  int64_t compaction_max_blob_points = 4096;
  /// Worker cap for segment-parallel query execution: multi-segment scans
  /// and aggregate pushdowns fan one task per surviving (post-prune)
  /// segment run across the shared thread pool, merged back in emission
  /// order. -1 (the default) uses the pool size; 0 or 1 runs every scan's
  /// units inline on the cursor thread. The pool itself is created when
  /// max(read_parallelism, query_parallelism) > 1.
  int query_parallelism = -1;
  /// Capacity in bytes of the shared decoded-blob cache (LRU, keyed by
  /// {segment, generation, blob rid, decoded tag set}); repeated queries
  /// over immutable cold blobs skip decompression entirely. 0 (the
  /// default) disables the cache.
  size_t blob_cache_bytes = 0;
  /// Memory governance budgets (bytes; 0 = unbounded at that level). The
  /// hierarchy is process -> session -> query: every buffered execution
  /// path (ORDER BY working sets, aggregation state, materialized
  /// results) reserves against all three. An ORDER BY that outgrows
  /// `query_memory_budget` spills sorted runs to the store's disk and
  /// merges them on emission; non-spillable paths fail fast with
  /// ResourceExhausted. `server_memory_budget` additionally arms
  /// HistorianServer's admission gate: new connections are rejected with
  /// kMemoryPressure while reserved bytes sit at or above the budget.
  int64_t query_memory_budget = 0;
  int64_t session_memory_budget = 0;
  int64_t server_memory_budget = 0;
};

/// The ODH configuration component (paper §3): owns schema-type and
/// data-source metadata used by the storage and query components.
class ConfigComponent {
 public:
  explicit ConfigComponent(OdhOptions options) : options_(options) {}

  const OdhOptions& options() const { return options_; }

  /// Flips the segment-parallel scan cap on a live instance (callers
  /// quiesce queries first): benches and the parity tests compare serial
  /// vs parallel execution over one store.
  /// Cannot raise the worker count past the pool created at construction.
  void SetQueryParallelism(int query_parallelism) {
    options_.query_parallelism = query_parallelism;
  }

  Result<int> DefineSchemaType(SchemaType type);
  Result<const SchemaType*> GetSchemaType(int type_id) const;
  Result<int> FindSchemaType(const std::string& name) const;
  int num_schema_types() const { return static_cast<int>(types_.size()); }

  /// Registers a source; derives its class from `sample_interval` and
  /// `regular`, and assigns an MG group for low-frequency sources.
  Status RegisterSource(SourceId id, int schema_type,
                        Timestamp sample_interval, bool regular);

  /// A registered source never changes (a second RegisterSource of its id
  /// fails), so the data router answers every historical route from here,
  /// the in-memory lookup the paper proposes in place of its per-query SQL.
  Result<const DataSourceInfo*> GetSource(SourceId id) const;
  int64_t num_sources() const { return static_cast<int64_t>(sources_.size()); }

  /// All groups of a schema type (for slice-query fan-out).
  std::vector<int64_t> GroupsOf(int schema_type) const;

  /// All registered sources of a schema type, in ascending id.
  std::vector<SourceId> SourcesOf(int schema_type) const;

 private:
  OdhOptions options_;
  std::vector<SchemaType> types_;
  /// Hashed: the writer and the router look a source up per record and
  /// per query. Elements never move or erase, so GetSource's pointers stay
  /// valid across a rehash; registration finishes before ingest starts.
  std::unordered_map<SourceId, DataSourceInfo> sources_;
  std::map<int, std::vector<int64_t>> groups_by_type_;
  std::map<int, int64_t> next_group_slot_;
};

}  // namespace odh::core

#endif  // ODH_CORE_CONFIG_H_
