// Ablations for the design choices DESIGN.md calls out:
//
//  A. Zone maps (paper §6 future work: "adding proper indexing to reduce
//     BLOB scanning for queries on attribute values") — on/off, measuring
//     blob decodes and query throughput for tag-predicate queries.
//  B. Data-router lookup — the paper's per-query SQL metadata statement
//     (reached through DataRouter's bench seam) vs the in-memory lookup
//     every query uses, measuring small historical queries (the LQ1
//     bottleneck the paper promises to fix "in a future version").
//  C. Batch size b — the data model's central parameter: ingest
//     throughput, storage size and historical-query latency vs b.

#include <cmath>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/odh.h"

namespace odh::bench {
namespace {

using core::OdhOptions;
using core::OdhSystem;
using core::OperationalRecord;

constexpr int kSensors = 50;
constexpr int kSeconds = 10240;  // ~10 blobs of 1024 points per sensor.

/// Builds an ODH instance with `options` and one 1 Hz schema type fully
/// loaded with a deterministic smooth-ish workload.
std::unique_ptr<OdhSystem> Load(OdhOptions options) {
  auto odh = std::make_unique<OdhSystem>(options);
  int type = odh->DefineSchemaType("m", {"temp", "load", "rpm"}).value();
  for (SourceId id = 1; id <= kSensors; ++id) {
    ODH_CHECK_OK(odh->RegisterSource(id, type, kMicrosPerSecond, true));
  }
  for (int i = 0; i < kSeconds; ++i) {
    for (SourceId id = 1; id <= kSensors; ++id) {
      ODH_CHECK_OK(odh->Ingest(
          {id,
           i * kMicrosPerSecond,
           {20.0 + id + 0.05 * i, 50 + 10 * std::sin(0.1 * i),
            1500.0 + id}}));
    }
  }
  ODH_CHECK_OK(odh->FlushAll());
  return odh;
}

void AblationZoneMaps() {
  TablePrinter table({"Config", "Queries/s", "Blobs decoded", "Blobs pruned",
                      "Storage"});
  for (bool enabled : {true, false}) {
    OdhOptions options;
    options.batch_size = 1024;
    options.enable_zone_maps = enabled;
    auto odh = Load(options);
    odh->reader()->ResetStats();
    // Selective tag-predicate queries: each sensor's temp ramps, so a
    // narrow temp window matches few blobs.
    Random rng(5);
    Stopwatch timer;
    const int kQueries = 200;
    for (int q = 0; q < kQueries; ++q) {
      SourceId id = 1 + rng.Uniform(kSensors);
      double lo = 20.0 + static_cast<double>(id) +
                  0.05 * rng.Uniform(kSeconds - 100);
      char sql[160];
      snprintf(sql, sizeof(sql),
               "SELECT COUNT(*) FROM m_v WHERE id = %lld AND "
               "temp BETWEEN %.2f AND %.2f",
               static_cast<long long>(id), lo, lo + 2.0);
      ODH_CHECK_OK(odh->engine()->Execute(sql).status());
    }
    double seconds = timer.ElapsedSeconds();
    // One atomic snapshot+reset: a load-then-reset pair can lose counts
    // from scans racing in between.
    const core::ReadStats stats = odh->reader()->SnapshotAndResetStats();
    table.AddRow({enabled ? "zone maps ON" : "zone maps OFF",
                  Fmt("%.0f", kQueries / seconds),
                  std::to_string(stats.blobs_decoded),
                  std::to_string(stats.blobs_pruned),
                  TablePrinter::FormatBytes(
                      static_cast<double>(odh->storage_bytes()))});
  }
  table.Print("Ablation A — zone maps (tag-predicate historical queries)");
}

void AblationRouterMode() {
  TablePrinter table({"Router", "Small queries/s", "Router lookups"});
  for (bool sql_mode : {true, false}) {
    OdhOptions options;
    options.batch_size = 1024;
    auto odh = Load(options);
    odh->router()->SetSqlMetadataLookup(sql_mode);
    Random rng(6);
    Stopwatch timer;
    const int kQueries = 300;
    for (int q = 0; q < kQueries; ++q) {
      SourceId id = 1 + rng.Uniform(kSensors);
      char sql[160];
      // Near-empty result (paper LQ1 regime): the query cost is parse +
      // plan + route + an index probe that finds nothing, which is where
      // the router's own SQL round trip shows up.
      snprintf(sql, sizeof(sql),
               "SELECT * FROM m_v WHERE id = %lld AND ts = "
               "'1980-01-01 00:00:00'",
               static_cast<long long>(id));
      ODH_CHECK_OK(odh->engine()->Execute(sql).status());
    }
    double seconds = timer.ElapsedSeconds();
    table.AddRow({sql_mode ? "SQL metadata (paper)" : "in-memory",
                  Fmt("%.0f", kQueries / seconds),
                  std::to_string(odh->router()->lookups())});
  }
  table.Print("Ablation B — data-router lookup (LQ1-style small queries)");
}

void AblationBatchSize() {
  TablePrinter table({"Batch size b", "Ingest rec/s", "Storage",
                      "Historical query ms"});
  for (int b : {16, 64, 256, 1024}) {
    OdhOptions options;
    options.batch_size = b;
    Stopwatch ingest_timer;
    auto odh = Load(options);
    double ingest_seconds = ingest_timer.ElapsedSeconds();
    Stopwatch query_timer;
    const int kQueries = 100;
    Random rng(7);
    for (int q = 0; q < kQueries; ++q) {
      SourceId id = 1 + rng.Uniform(kSensors);
      auto cursor =
          odh->HistoricalQuery(0, id, 0, kMaxTimestamp).value();
      OperationalRecord record;
      while (cursor->Next(&record).value()) {
      }
    }
    table.AddRow({std::to_string(b),
                  TablePrinter::FormatCount(kSensors * kSeconds /
                                            ingest_seconds),
                  TablePrinter::FormatBytes(
                      static_cast<double>(odh->storage_bytes())),
                  Fmt("%.2f", query_timer.ElapsedSeconds() * 1000 /
                                  kQueries)});
  }
  table.Print("Ablation C — batch size b (the data model's parameter)");
}

int Run(int argc, char** argv) {
  PrintHeader("ODH design ablations",
              "DESIGN.md ablation index (zone maps, router mode, batch size)",
              "50 sensors x ~10k s at 1 Hz; deterministic workload.");
  AblationZoneMaps();
  AblationRouterMode();
  AblationBatchSize();
  std::printf(
      "\nExpected shapes: zone maps cut blob decodes by ~10x on selective\n"
      "tag predicates at zero result change and negligible storage cost;\n"
      "the in-memory router beats the paper's SQL metadata lookup on\n"
      "tiny queries; larger b improves ingest throughput and storage while\n"
      "mildly increasing per-query decode work.\n");
  return 0;
}

}  // namespace
}  // namespace odh::bench

int main(int argc, char** argv) { return odh::bench::Run(argc, argv); }
