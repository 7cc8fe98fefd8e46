#ifndef ODH_SQL_ENGINE_H_
#define ODH_SQL_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/memory.h"
#include "sql/catalog.h"
#include "sql/planner.h"

namespace odh::storage {
class SimDisk;
}  // namespace odh::storage

namespace odh::sql {

/// Memory-governance budgets, all in bytes; 0 = unbounded at that level.
/// The hierarchy is process -> session -> query: a reservation must fit
/// every level, so a modest query can still be refused by a full process.
struct MemoryBudgets {
  int64_t process_bytes = 0;
  int64_t session_bytes = 0;
  int64_t query_bytes = 0;
};

/// Execution profile of one SELECT: which scan path actually ran and how
/// much blob I/O it did. `path` is derived from runtime evidence after the
/// statement finishes — "summary-pushdown" when the provider answered the
/// aggregates, "vectorized-batch" when a virtual table's ColumnBatches
/// flowed, "row-scan" otherwise (relational tables, or no batch at all) —
/// so it can never disagree with what executed (the planner's EXPLAIN
/// text only names candidates). Retrievable inline via
/// `EXPLAIN PROFILE <stmt>` and historically via the odh_queries table.
struct QueryProfile {
  std::string statement;
  std::string path;
  /// True when the statement ran through a prepared handle: parse and bind
  /// were skipped and `plan_micros` covers planning only.
  bool prepared = false;
  int64_t rows_returned = 0;
  int64_t rows_scanned = 0;
  int64_t batches = 0;
  int64_t blobs_decoded = 0;
  int64_t blobs_pruned = 0;
  int64_t blobs_skipped_by_summary = 0;
  int64_t blob_bytes_read = 0;
  /// Whole segments eliminated by manifest time bounds before any blob of
  /// theirs was examined (disjoint from the blob counters above: a pruned
  /// segment's blobs appear in none of them).
  int64_t segments_pruned = 0;
  /// Distinct (structure, segment) groups this query's scans fanned out to
  /// parallel workers (0 = every unit ran inline on the cursor thread).
  int64_t segments_scanned_parallel = 0;
  /// Blobs served from the decoded-blob cache instead of decoding.
  int64_t blob_cache_hits = 0;
  /// High-water mark of the query's memory reservations (buffered rows,
  /// aggregation state, sort working set, spill I/O buffers).
  int64_t mem_peak_bytes = 0;
  /// Sorted runs written to disk when the sort working set exceeded the
  /// query budget (0 = the sort fit in memory).
  int64_t spill_runs = 0;
  /// Payload bytes written across those runs.
  int64_t spill_bytes = 0;
  double plan_micros = 0;
  double total_micros = 0;
  /// Replication lag at execution time, stamped on replicas only: -1 on a
  /// primary/standalone engine (EXPLAIN PROFILE omits the rows then),
  /// otherwise the bytes of primary WAL not yet applied locally and the
  /// staleness of the replica's data watermark.
  int64_t repl_lag_bytes = -1;
  int64_t repl_staleness_micros = 0;
};

/// Result of a SELECT (or row counts for DML/DDL). Move-only: result rows
/// are built in place by the execution layer and handed to the caller
/// without ever being copied (large range scans would otherwise pay a full
/// deep copy on return).
struct QueryResult {
  QueryResult() = default;
  QueryResult(const QueryResult&) = delete;
  QueryResult& operator=(const QueryResult&) = delete;
  QueryResult(QueryResult&&) = default;
  QueryResult& operator=(QueryResult&&) = default;

  std::vector<std::string> columns;
  std::vector<Row> rows;
  int64_t affected_rows = 0;  // For INSERT.
  std::string explain;        // Plan text (SELECT only).
  QueryProfile profile;       // Filled for every SELECT.

  /// The paper's throughput unit: number of non-NULL values returned.
  int64_t DataPointCount() const {
    int64_t n = 0;
    for (const Row& row : rows) {
      for (const Datum& d : row) {
        if (!d.is_null()) ++n;
      }
    }
    return n;
  }
};

/// The SQL back end shared by every session: catalog, recent-statement
/// ring, and the write lock that serializes mutating statements. One
/// engine serves one Database plus any registered virtual tables; this is
/// the unified access interface the paper's "operational and relational
/// data fusion" feature describes.
///
/// Statement execution lives in sql::Session (session.h) — per-connection
/// state, prepared statements, and streaming results. The engine keeps a
/// one-shot Execute for internal and test use; it simply runs a throwaway
/// Session, so application code should hold a real Session instead.
class SqlEngine {
 public:
  explicit SqlEngine(relational::Database* db) : catalog_(db) {}

  SqlEngine(const SqlEngine&) = delete;
  SqlEngine& operator=(const SqlEngine&) = delete;

  Catalog* catalog() { return &catalog_; }

  /// One-shot convenience wrapper (internal/test use): runs `sql` on a
  /// temporary Session and materializes the result. Thread-safe; SELECTs
  /// from concurrent callers run in parallel.
  Result<QueryResult> Execute(const std::string& sql);

  /// Plans a SELECT and returns the plan text without running it.
  Result<std::string> Explain(const std::string& sql);

  /// Profiles of the most recently executed SELECTs, oldest first
  /// (bounded ring; thread-safe snapshot).
  std::vector<QueryProfile> RecentQueries() const;

  /// Appends one finished statement's profile to the ring. Called by the
  /// session layer when a statement (or its stream) completes.
  void LogQuery(QueryProfile profile);

  /// Wires memory governance: per-level budgets and the disk ORDER BY
  /// sorts spill to when a query exceeds its budget. Call once at system
  /// construction, before any Session exists; sessions created on an
  /// unconfigured engine run unbounded (and never spill). `spill_disk`
  /// may be null — budgets are then enforced fail-fast only.
  void ConfigureMemory(const MemoryBudgets& budgets,
                       storage::SimDisk* spill_disk) {
    memory_budgets_ = budgets;
    memory_root_.set_limit(budgets.process_bytes);
    spill_disk_ = spill_disk;
  }

  /// Root of the tracker hierarchy; every session tracker is its child.
  /// HistorianServer's admission gate reads used() off this.
  common::MemoryTracker* memory_root() { return &memory_root_; }
  const MemoryBudgets& memory_budgets() const { return memory_budgets_; }
  storage::SimDisk* spill_disk() { return spill_disk_; }
  /// Monotonic id stamped into spill file names so concurrent queries
  /// never collide.
  uint64_t NextQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Serializes mutating statements (INSERT / CREATE) across sessions.
  /// SELECTs never take it: the storage layer is safe for concurrent
  /// reads, and readers running against a committed snapshot is the
  /// historian's normal operating mode.
  std::mutex* write_mutex() { return &write_mu_; }

  /// Handler for ALTER TABLE ... RETENTION: (table name as written in the
  /// statement, interval in microseconds). The historian registers one
  /// that maps its "<type>_v" views to schema types; without a handler the
  /// statement fails as unsupported. Called under the write mutex.
  using RetentionHandler =
      std::function<Status(const std::string&, int64_t)>;
  void set_retention_handler(RetentionHandler handler) {
    retention_handler_ = std::move(handler);
  }
  const RetentionHandler& retention_handler() const {
    return retention_handler_;
  }

  /// Replication-lag snapshot a replica's wiring exposes to sessions (so
  /// lag lands in per-query profiles and EXPLAIN PROFILE). is_replica
  /// stays false on primaries/standalone engines.
  struct ReplicationInfo {
    bool is_replica = false;
    uint64_t applied_lsn = 0;
    uint64_t primary_durable_lsn = 0;
    int64_t lag_bytes = 0;
    int64_t watermark_micros = 0;
    int64_t staleness_micros = 0;
  };
  using ReplicationInfoProvider = std::function<ReplicationInfo()>;
  /// Installed once by replica wiring (before sessions run queries); the
  /// provider must be callable from any session thread.
  void set_replication_info_provider(ReplicationInfoProvider provider) {
    replication_info_provider_ = std::move(provider);
  }
  /// Current lag snapshot; a default (is_replica=false) when no provider
  /// is installed.
  ReplicationInfo replication_info() const {
    return replication_info_provider_ ? replication_info_provider_()
                                      : ReplicationInfo{};
  }

 private:
  static constexpr size_t kRecentQueryCapacity = 128;

  Catalog catalog_;
  common::MemoryTracker memory_root_{"process"};
  MemoryBudgets memory_budgets_;
  storage::SimDisk* spill_disk_ = nullptr;
  std::atomic<uint64_t> next_query_id_{1};
  RetentionHandler retention_handler_;
  ReplicationInfoProvider replication_info_provider_;
  std::mutex write_mu_;
  mutable std::mutex queries_mu_;
  std::deque<QueryProfile> recent_queries_;
};

}  // namespace odh::sql

#endif  // ODH_SQL_ENGINE_H_
