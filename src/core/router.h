#ifndef ODH_CORE_ROUTER_H_
#define ODH_CORE_ROUTER_H_

#include <atomic>
#include <vector>

#include "core/config.h"
#include "sql/engine.h"

namespace odh::core {

/// Which batch structures a query must visit, and where.
struct RouteDecision {
  bool scan_rts = false;
  bool scan_irts = false;
  bool scan_mg = false;
  /// MG group of the source (historical routes on low-frequency sources);
  /// -1 = all groups.
  int64_t mg_group = -1;
};

/// The ODH data router: per query, looks up data-source metadata to locate
/// the containers holding the requested data (paper §5.3: "for each query,
/// the data router looks up the metadata to locate the required data. This
/// process is currently completed by SQL statements" — the overhead that
/// dominates small queries like LQ1).
///
/// Two modes, selected by OdhOptions::sql_metadata_router:
///  - SQL mode reproduces the paper: metadata lives in a relational table
///    (odh$sources) and every historical route runs a SQL point query
///    against it.
///  - Direct mode is the paper's proposed fix: an in-memory lookup.
class DataRouter {
 public:
  DataRouter(ConfigComponent* config, sql::SqlEngine* engine)
      : config_(config), engine_(engine) {}

  /// Creates the metadata table (call once, before registering sources).
  Status CreateMetadataTables();

  /// Mirrors a registered source into the metadata table.
  Status AddSourceMetadata(const DataSourceInfo& info);

  /// Flushes pending metadata inserts.
  Status SyncMetadata();

  /// Routes a historical query (single source, long time window).
  Result<RouteDecision> RouteHistorical(int schema_type, SourceId id);

  /// Routes a slice query (all sources of a type, short time window).
  /// Every container is a candidate, so no mode consults metadata; the
  /// route still counts as a lookup.
  Result<RouteDecision> RouteSlice(int schema_type);

  /// Routes performed so far. Direct-mode routing is thread-safe (it reads
  /// the immutable config and bumps this atomic); SQL-mode routing runs
  /// statements through the single-threaded SQL engine and must be
  /// serialized by the caller.
  int64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }

 private:
  Result<RouteDecision> DecisionFor(SourceClass source_class, int64_t group);

  ConfigComponent* config_;
  sql::SqlEngine* engine_;
  relational::Table* metadata_ = nullptr;
  int64_t pending_metadata_rows_ = 0;
  std::atomic<int64_t> lookups_{0};
};

}  // namespace odh::core

#endif  // ODH_CORE_ROUTER_H_
