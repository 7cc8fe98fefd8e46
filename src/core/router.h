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
/// the containers holding the requested data.
///
/// The paper (§5.3) resolves that metadata "by SQL statements" and blames
/// the statement's cost for ODH's losses on small queries like LQ1; it
/// proposes an in-memory lookup as the fix. Routing here is that fix: a
/// historical route reads the registered source from ConfigComponent. A
/// source never changes once registered, so there is nothing to cache or
/// invalidate, and routing is safe from any session thread once the
/// sources it names are registered.
///
/// The source metadata is still mirrored into the relational table
/// odh$sources, which users can query. The paper's per-query SQL route
/// over that table survives only as a bench seam (SetSqlMetadataLookup).
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
  /// NotFound when `id` is not a registered source of `schema_type`.
  Result<RouteDecision> RouteHistorical(int schema_type, SourceId id);

  /// Routes a slice query (all sources of a type, short time window).
  /// Every container is a candidate, so no metadata is consulted; the
  /// route still counts as a lookup.
  Result<RouteDecision> RouteSlice(int schema_type);

  /// Routes performed so far.
  int64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }

  /// Bench seam: when on, every historical route runs the paper's SQL
  /// point query against odh$sources instead of reading the config, so
  /// the Table 8 bench and the router ablation reproduce the paper's cost.
  /// The statement reads odh$sources, which RegisterSource and FlushAll
  /// write without the engine's write mutex, so while it is on, do not
  /// register sources or flush concurrently with queries.
  void SetSqlMetadataLookup(bool on) {
    sql_lookup_.store(on, std::memory_order_relaxed);
  }

 private:
  Result<RouteDecision> RouteViaSql(int schema_type, SourceId id);
  static RouteDecision DecisionFor(SourceClass source_class, int64_t group);

  ConfigComponent* config_;
  sql::SqlEngine* engine_;
  relational::Table* metadata_ = nullptr;
  int64_t pending_metadata_rows_ = 0;
  std::atomic<int64_t> lookups_{0};
  std::atomic<bool> sql_lookup_{false};
};

}  // namespace odh::core

#endif  // ODH_CORE_ROUTER_H_
