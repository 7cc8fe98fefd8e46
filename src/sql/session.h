#ifndef ODH_SQL_SESSION_H_
#define ODH_SQL_SESSION_H_

#include <deque>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/memory.h"
#include "common/stopwatch.h"
#include "sql/engine.h"
#include "sql/expr_eval.h"
#include "sql/sort_spill.h"

namespace odh::sql {

class Session;
class QueryStream;

/// A parsed (and, for SELECT, bound) statement owned through a Session's
/// prepared-statement cache. Immutable after Prepare, so one handle backs
/// any number of executions: re-executing binds only the `?` parameter
/// values and re-plans (planning needs the values for constraint pushdown
/// and partition pruning), skipping parse and name resolution entirely —
/// the hot path for dashboards issuing the same shaped query per tag.
class PreparedStatement {
 public:
  const std::string& sql() const { return sql_; }
  int param_count() const { return param_count_; }
  bool is_select() const { return kind_ == Statement::Kind::kSelect; }
  /// Output column names (SELECT only; empty for other statements).
  const std::vector<std::string>& columns() const;

 private:
  friend class Session;
  friend class QueryStream;
  PreparedStatement() = default;

  std::string sql_;
  Statement::Kind kind_ = Statement::Kind::kSelect;
  int param_count_ = 0;
  /// SELECT: the bound form, planning input for every execution.
  std::unique_ptr<BoundSelect> bound_;
  /// Non-SELECT statements re-execute from the parsed AST.
  std::unique_ptr<InsertStmt> insert_;
  std::unique_ptr<CreateTableStmt> create_table_;
  std::unique_ptr<CreateIndexStmt> create_index_;
  std::unique_ptr<AlterRetentionStmt> alter_retention_;
};

/// Per-session counters (single-threaded, plain ints). Lifetime semantics
/// (uniform with net::ClientStats): counters accumulate over the OBJECT's
/// lifetime and are never reset implicitly — not by errors, not by cache
/// eviction. Call Session::ResetStats() to zero them explicitly.
struct SessionStats {
  int64_t statements_executed = 0;
  int64_t prepares = 0;           // Explicit Prepare() calls.
  int64_t prepare_cache_hits = 0; // Prepare() served from the cache.
  int64_t rows_streamed = 0;      // Rows emitted through QueryStreams.
};

/// A pull-based result stream — the streaming half of the session API and
/// an ordinary RowCursor (poison contract included). SELECTs without
/// aggregation or ORDER BY stream straight off the scan: each row is
/// projected on demand and the full result is never materialized, so a
/// range scan over years of history holds one row of state. Aggregating
/// or ordering statements buffer internally (they are blocking by
/// nature); non-SELECT statements execute at stream creation and emit
/// zero rows (affected_rows() carries the count).
///
/// profile() is complete once Next has reported end of stream; at that
/// point (or on early destruction) the profile is logged to the engine's
/// recent-statement ring. A stream must not outlive its Session.
class QueryStream : public RowCursor {
 public:
  ~QueryStream() override;
  QueryStream(const QueryStream&) = delete;
  QueryStream& operator=(const QueryStream&) = delete;

  Result<bool> Next(Row* row) override;

  const std::vector<std::string>& columns() const { return columns_; }
  /// Plan text; the executed-path line is appended when the stream ends.
  const std::string& explain() const { return explain_; }
  const QueryProfile& profile() const { return profile_; }
  int64_t affected_rows() const { return affected_rows_; }
  /// This query's memory tracker (child of the session's); null for
  /// wrapped pre-materialized results. Tests assert eager release on it.
  common::MemoryTracker* memory() { return mem_.get(); }

 private:
  friend class Session;

  enum class State { kStreaming, kBuffered, kDone, kError };

  QueryStream(SqlEngine* engine,
              std::shared_ptr<const PreparedStatement> stmt,
              const std::vector<Datum>& params, SessionStats* stats);

  /// Plans and starts execution. `prior_micros` is parse+bind time to
  /// account into plan_micros (zero on prepared re-execution); `prepared`
  /// stamps the profile.
  Status Init(double prior_micros, bool prepared);
  /// Runs the blocking paths (aggregation / ORDER BY) into buffered_ (or
  /// the spill-capable sorter_ for ORDER BY).
  Status RunBuffered();
  Result<bool> NextStreaming(Row* row);
  Status Poison(Status status);
  /// Harvests counters into profile_ and logs it (once).
  void Finish();
  /// Charges one row entering buffered_ to the query budget.
  Status ReserveBufferedRow(const Row& row);
  /// Eager release of everything a buffered stream still holds: buffered
  /// rows, the sorter's working set, spill files. Runs on poison, on
  /// end-of-stream, and on abandonment — never waits for the destructor.
  void ReleaseBufferedState();

  SqlEngine* engine_;
  std::shared_ptr<const PreparedStatement> stmt_;
  std::vector<Datum> params_;
  ExprEvaluator eval_;
  common::ScanCounters counters_;
  Stopwatch timer_;
  PhysicalPlan plan_;
  /// The plan's combined row, reused by every NextStreaming call.
  Row scan_row_;
  QueryProfile profile_;
  std::vector<std::string> columns_;
  std::string explain_;
  int64_t affected_rows_ = 0;
  SessionStats* stats_;

  State state_ = State::kDone;
  std::deque<Row> buffered_;
  int64_t emitted_ = 0;
  Status poison_;
  bool finished_ = false;

  /// Query-level tracker (child of the session's) charging buffered rows,
  /// aggregation state and the sort working set; null when the engine has
  /// no governance configured or for wrapped pre-materialized results.
  std::unique_ptr<common::MemoryTracker> mem_;
  /// Query-lifetime bump allocator; spill I/O page buffers live here.
  std::unique_ptr<common::Arena> arena_;
  /// Spill-capable ORDER BY state; buffered_ stays empty while it is set.
  std::unique_ptr<ExternalSorter> sorter_;
  int64_t buffered_bytes_ = 0;  // Bytes reserved for buffered_ rows.
  int64_t spill_runs_ = 0;
  int64_t spill_bytes_ = 0;
};

/// Per-connection SQL state — the front door that replaces direct
/// SqlEngine::Execute use. One Session per connection (or per thread): the
/// object itself is deliberately not thread-safe, while any number of
/// Sessions share one SqlEngine safely (concurrent SELECTs run in
/// parallel; mutating statements serialize on the engine's write mutex).
///
/// Prepared statements are cached by statement text: preparing the same
/// text twice returns the cached handle (stats().prepare_cache_hits) and
/// the second execution skips parse and bind.
class Session {
 public:
  explicit Session(SqlEngine* engine)
      : engine_(engine),
        mem_(std::make_unique<common::MemoryTracker>(
            "session", engine->memory_budgets().session_bytes,
            engine->memory_root())) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// One-shot execution, materialized. Parses, binds, plans and runs in
  /// one call; `params` bind `?` placeholders positionally. Supports the
  /// `EXPLAIN PROFILE <select>` prefix.
  Result<QueryResult> Execute(const std::string& sql,
                              const std::vector<Datum>& params = {});

  /// Parses and binds once; caches by statement text (bounded LRU-ish
  /// cache — in-flight handles stay valid through the shared_ptr even if
  /// evicted). EXPLAIN prefixes cannot be prepared.
  Result<std::shared_ptr<const PreparedStatement>> Prepare(
      const std::string& sql);

  /// Executes a prepared statement, materialized. Skips parse/bind.
  Result<QueryResult> ExecutePrepared(
      const std::shared_ptr<const PreparedStatement>& stmt,
      const std::vector<Datum>& params = {});

  /// Streaming execution: rows are produced on demand through the
  /// returned cursor; large range scans never materialize. Non-SELECT
  /// statements and EXPLAIN PROFILE yield a pre-computed (buffered)
  /// stream so callers can treat every statement uniformly.
  Result<std::unique_ptr<QueryStream>> ExecuteStreaming(
      const std::string& sql, const std::vector<Datum>& params = {});
  Result<std::unique_ptr<QueryStream>> ExecuteStreamingPrepared(
      const std::shared_ptr<const PreparedStatement>& stmt,
      const std::vector<Datum>& params = {});

  const SessionStats& stats() const { return stats_; }
  /// Zeroes the counters. The ONLY way stats reset (see SessionStats).
  void ResetStats() { stats_ = {}; }

  /// Read-only sessions reject every mutating statement (INSERT / CREATE /
  /// ALTER / retention changes) with kFailedPrecondition. HistorianServer
  /// sets this for sessions served by a replica; queries still run and
  /// their profiles report the replication-lag watermark.
  void set_read_only(bool read_only) { read_only_ = read_only; }
  bool read_only() const { return read_only_; }

  SqlEngine* engine() { return engine_; }
  /// The session-level tracker; parent of every query tracker this session
  /// starts, child of the engine's process root.
  common::MemoryTracker* memory() { return mem_.get(); }

 private:
  Result<std::shared_ptr<const PreparedStatement>> PrepareInternal(
      const std::string& sql);
  Result<std::unique_ptr<QueryStream>> StartStream(
      std::shared_ptr<const PreparedStatement> stmt,
      const std::vector<Datum>& params, double prior_micros, bool prepared);
  /// Wraps an already-materialized result as a drained-from-buffer stream.
  std::unique_ptr<QueryStream> StreamFromResult(QueryResult result);
  Result<QueryResult> ExecuteNonSelect(const PreparedStatement& stmt,
                                       const std::vector<Datum>& params);
  Result<QueryResult> ExecuteInsert(const InsertStmt& stmt,
                                    const std::vector<Datum>& params);
  Result<QueryResult> Materialize(std::unique_ptr<QueryStream> stream);

  static constexpr size_t kPreparedCacheCapacity = 64;

  /// A cached handle plus its position in the recency list, so promotion
  /// on re-use is an O(1) splice.
  struct CacheEntry {
    std::shared_ptr<const PreparedStatement> stmt;
    std::list<std::string>::iterator order_pos;
  };
  /// Moves an entry to most-recently-used position.
  void TouchCacheEntry(CacheEntry* entry);

  SqlEngine* engine_;
  std::unique_ptr<common::MemoryTracker> mem_;
  std::map<std::string, CacheEntry> cache_;
  std::list<std::string> cache_order_;  // LRU order: front = least recent.
  SessionStats stats_;
  bool read_only_ = false;
};

}  // namespace odh::sql

#endif  // ODH_SQL_SESSION_H_
