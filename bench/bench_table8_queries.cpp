// Reproduces paper Table 8: "Query performance for the three candidates" —
// the WS2 read workloads TQ1-TQ4 (on TD(5,2)) and LQ1-LQ4 (on LD(5)) against
// ODH, RDB and MySQL, reporting throughput in returned data points per
// second and CPU rate.
//
// Scaling: TD account unit 20 / 20 s, LD sensor unit 600 / 120 s; 100
// queries per template (paper: 100). Expected shape: the relational
// candidates win the full-row templates (TQ1/TQ2/LQ1/LQ2 — ODH pays VTI row
// assembly plus the SQL metadata router, which dominates the tiny LQ1
// queries), while ODH wins the single-tag fused templates (TQ3/TQ4/LQ4)
// thanks to tag-oriented blob decoding.

#include <algorithm>
#include <cmath>
#include <thread>

#include "bench/bench_util.h"
#include "benchfw/dataset.h"
#include "benchfw/json_report.h"
#include "common/logging.h"
#include "common/random.h"

namespace odh::bench {
namespace {

using benchfw::JsonWriter;
using benchfw::LdConfig;
using benchfw::LdGenerator;
using benchfw::OdhTarget;
using benchfw::QueryMetrics;
using benchfw::RelationalTarget;
using benchfw::TdConfig;
using benchfw::TdGenerator;

constexpr int kQueriesPerTemplate = 100;
constexpr int kSimulatedCores = 8;

/// One system under test, fully loaded with both datasets.
struct Candidate {
  std::string name;
  std::unique_ptr<OdhTarget> odh;              // Set for ODH.
  std::unique_ptr<RelationalTarget> td_rel;    // Set for RDB/MySQL.
  std::unique_ptr<RelationalTarget> ld_rel;
  std::unique_ptr<sql::SqlEngine> td_engine;   // Engines for RDB/MySQL.
  std::unique_ptr<sql::SqlEngine> ld_engine;

  sql::SqlEngine* TdEngine() {
    return odh != nullptr ? odh->odh()->engine() : td_engine.get();
  }
  sql::SqlEngine* LdEngine() {
    return odh != nullptr ? odh->odh()->engine() : ld_engine.get();
  }
  std::string TdTable() const { return odh != nullptr ? "TD_v" : "TD"; }
  std::string LdTable() const { return odh != nullptr ? "LD_v" : "LD"; }
};

template <typename Stream>
void Ingest(Stream stream, benchfw::IngestTarget* target) {
  ODH_CHECK_OK(target->Setup(stream.info()));
  ODH_CHECK_OK(benchfw::RunIngest(&stream, target).status());
}

Candidate MakeOdh(const TdConfig& td, const LdConfig& ld) {
  Candidate c;
  c.name = "ODH";
  c.odh = std::make_unique<OdhTarget>();
  Ingest(TdGenerator(td), c.odh.get());
  // The second schema type shares the same OdhSystem.
  {
    LdGenerator stream(ld);
    ODH_CHECK_OK(c.odh->Setup(stream.info()));
    ODH_CHECK_OK(benchfw::RunIngest(&stream, c.odh.get()).status());
  }
  // Historical LD data is queried in its reorganized (per-source RTS/IRTS)
  // form, as in a steady-state historian; recent data would stay in MG.
  int ld_type = c.odh->odh()->config()->FindSchemaType("LD").value();
  ODH_CHECK_OK(c.odh->odh()->Reorganize(ld_type, kMaxTimestamp).status());
  // Route every query through the paper's per-query SQL metadata lookup
  // (§5.3), the cost it blames for ODH's losses on small queries like LQ1.
  c.odh->odh()->router()->SetSqlMetadataLookup(true);
  ODH_CHECK_OK(
      benchfw::LoadTdRelational(TdGenerator(td), c.odh->odh()->database()));
  ODH_CHECK_OK(
      benchfw::LoadLdRelational(LdGenerator(ld), c.odh->odh()->database()));
  for (const char* t : {"customer", "account", "linkedsensor"}) {
    ODH_CHECK_OK(c.odh->odh()->engine()->catalog()->Analyze(t));
  }
  return c;
}

Candidate MakeRelational(const relational::EngineProfile& profile,
                         const TdConfig& td, const LdConfig& ld) {
  Candidate c;
  c.name = profile.name;
  c.td_rel = std::make_unique<RelationalTarget>(profile, 1000);
  Ingest(TdGenerator(td), c.td_rel.get());
  ODH_CHECK_OK(
      benchfw::LoadTdRelational(TdGenerator(td), c.td_rel->database()));
  c.td_engine = std::make_unique<sql::SqlEngine>(c.td_rel->database());
  for (const char* t : {"customer", "account", "TD"}) {
    ODH_CHECK_OK(c.td_engine->catalog()->Analyze(t));
  }

  c.ld_rel = std::make_unique<RelationalTarget>(profile, 1000);
  Ingest(LdGenerator(ld), c.ld_rel.get());
  ODH_CHECK_OK(
      benchfw::LoadLdRelational(LdGenerator(ld), c.ld_rel->database()));
  c.ld_engine = std::make_unique<sql::SqlEngine>(c.ld_rel->database());
  for (const char* t : {"linkedsensor", "LD"}) {
    ODH_CHECK_OK(c.ld_engine->catalog()->Analyze(t));
  }
  return c;
}

std::string TsLiteral(Timestamp ts) {
  // Built with append rather than operator+ to sidestep a GCC 12 -Wrestrict
  // false positive (PR105329) that -Werror builds would otherwise trip on.
  std::string out = "'";
  out.append(FormatTimestamp(ts));
  out.push_back('\'');
  return out;
}

/// `--smoke`: CI quick mode — tiny dataset, ODH only, aggregate and
/// parallel/cache sections only. Keeps the pushdown and batch scan paths
/// exercised end to end without the multi-candidate Table 8 sweep.
bool SmokeFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  }
  return false;
}

/// NULL-safe near-equality for result verification. Doubles get a relative
/// epsilon: the pushdown merges per-blob partial sums where a fold over
/// the rows adds one value at a time.
bool DatumsClose(const Datum& a, const Datum& b) {
  if (a == b) return true;
  if (!a.is_double() || !b.is_double()) return false;
  double x = a.double_value(), y = b.double_value();
  double tol = 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  return std::fabs(x - y) <= tol;
}

/// Aggregates the comparison asks for, all over `t_chrg`.
enum class Agg { kCountStar, kSum, kAvg, kMin, kMax };

std::string AggSql(Agg agg) {
  switch (agg) {
    case Agg::kCountStar:
      return "COUNT(*)";
    case Agg::kSum:
      return "SUM(t_chrg)";
    case Agg::kAvg:
      return "AVG(t_chrg)";
    case Agg::kMin:
      return "MIN(t_chrg)";
    case Agg::kMax:
      return "MAX(t_chrg)";
  }
  return "";
}

/// The reference answer: `aggs` folded here, with SQL's conventions (NULLs
/// skipped; COUNT of nothing is 0, everything else NULL), over the rows of
/// a plain `SELECT t_chrg` of the same WHERE.
Row FoldRows(const std::vector<Agg>& aggs, const std::vector<Row>& rows) {
  int64_t count = 0;
  double sum = 0, min = 0, max = 0;
  for (const Row& row : rows) {
    if (row[0].is_null()) continue;
    const double v = row[0].double_value();
    min = count == 0 ? v : std::min(min, v);
    max = count == 0 ? v : std::max(max, v);
    sum += v;
    ++count;
  }
  Row out;
  for (Agg agg : aggs) {
    switch (agg) {
      case Agg::kCountStar:
        out.push_back(Datum::Int64(static_cast<int64_t>(rows.size())));
        break;
      case Agg::kSum:
        out.push_back(count > 0 ? Datum::Double(sum) : Datum::Null());
        break;
      case Agg::kAvg:
        out.push_back(count > 0
                          ? Datum::Double(sum / static_cast<double>(count))
                          : Datum::Null());
        break;
      case Agg::kMin:
        out.push_back(count > 0 ? Datum::Double(min) : Datum::Null());
        break;
      case Agg::kMax:
        out.push_back(count > 0 ? Datum::Double(max) : Datum::Null());
        break;
    }
  }
  return out;
}

/// The aggregate pushdown against scanning the rows: each query runs as
/// the aggregate itself (answered by the pushdown, from zone-map summaries
/// where blobs are fully covered) and as a plain SELECT of the same rows
/// that the bench folds. Verifies identical results and reports reader
/// counters (rows scanned, blobs decoded, blobs answered from summaries
/// alone); exits 1 on any mismatch.
void RunAggregateComparison(core::OdhSystem* odh, int64_t num_accounts,
                            Timestamp td_span, int queries_per_template,
                            JsonWriter* json) {
  struct Template {
    std::string name;
    std::vector<Agg> aggs;
    std::vector<std::string> wheres;
  };
  std::vector<Template> templates(3);
  Random rng(0xA66A);
  // AQ1: full-history aggregates over one account — every blob is interior,
  // so the pushdown answers entirely from zone-map summaries.
  templates[0].name = "AQ1";
  templates[0].aggs = {Agg::kCountStar, Agg::kAvg, Agg::kMin, Agg::kMax};
  for (int i = 0; i < queries_per_template; ++i) {
    templates[0].wheres.push_back(
        "id = " + std::to_string(1 + rng.Uniform(num_accounts)));
  }
  // AQ2: windowed aggregates — boundary blobs decode, interior blobs skip.
  templates[1].name = "AQ2";
  templates[1].aggs = {Agg::kCountStar, Agg::kSum};
  for (int i = 0; i < queries_per_template; ++i) {
    Timestamp dt = rng.UniformRange(5, 15) * kMicrosPerSecond;
    Timestamp t = rng.UniformRange(0, td_span - dt);
    templates[1].wheres.push_back(
        "id = " + std::to_string(1 + rng.Uniform(num_accounts)) +
        " AND ts BETWEEN " + TsLiteral(t) + " AND " + TsLiteral(t + dt));
  }
  // AQ3: cross-source slice aggregates.
  templates[2].name = "AQ3";
  templates[2].aggs = {Agg::kCountStar, Agg::kSum, Agg::kMax};
  for (int i = 0; i < queries_per_template; ++i) {
    Timestamp dt = rng.UniformRange(2, 8) * kMicrosPerSecond;
    Timestamp t = rng.UniformRange(0, td_span - dt);
    templates[2].wheres.push_back("ts BETWEEN " + TsLiteral(t) + " AND " +
                                  TsLiteral(t + dt));
  }

  TablePrinter table({"Query", "Path", "queries/s", "Speedup vs scan",
                      "Rows scanned", "Blobs decoded", "Summary-only"});
  json->Key("aggregate_pushdown");
  json->BeginObject();
  json->KeyValue("queries_per_template",
                 static_cast<int64_t>(queries_per_template));
  json->Key("templates");
  json->BeginArray();

  int64_t mismatches = 0;
  for (const Template& tpl : templates) {
    json->BeginObject();
    json->KeyValue("name", tpl.name);
    json->Key("modes");
    json->BeginArray();
    std::string select;
    for (Agg agg : tpl.aggs) {
      select += (select.empty() ? "SELECT " : ", ") + AggSql(agg);
    }
    std::vector<Row> reference;
    double scan_wall = 0;
    for (const bool pushdown : {false, true}) {
      odh->reader()->ResetStats();
      Stopwatch timer;
      std::vector<Row> answers;
      answers.reserve(tpl.wheres.size());
      for (const std::string& where : tpl.wheres) {
        if (pushdown) {
          auto r = odh->engine()->Execute(select + " FROM TD_v WHERE " +
                                          where);
          ODH_CHECK_OK(r.status());
          ODH_CHECK(r->rows.size() == 1);
          answers.push_back(std::move(r->rows[0]));
        } else {
          auto r =
              odh->engine()->Execute("SELECT t_chrg FROM TD_v WHERE " + where);
          ODH_CHECK_OK(r.status());
          answers.push_back(FoldRows(tpl.aggs, r->rows));
        }
      }
      const double wall = timer.ElapsedSeconds();
      const core::ReadStats stats = odh->reader()->SnapshotAndResetStats();
      const char* mode = pushdown ? "pushdown" : "scan";

      if (!pushdown) {
        reference = std::move(answers);
        scan_wall = wall;
      } else {
        for (size_t q = 0; q < answers.size(); ++q) {
          for (size_t c = 0; c < answers[q].size(); ++c) {
            if (!DatumsClose(answers[q][c], reference[q][c])) {
              ++mismatches;
              std::fprintf(stderr,
                           "MISMATCH (pushdown vs scan) query %zu col %zu: "
                           "%s vs %s\n  %s FROM TD_v WHERE %s\n",
                           q, c, answers[q][c].ToString().c_str(),
                           reference[q][c].ToString().c_str(), select.c_str(),
                           tpl.wheres[q].c_str());
            }
          }
        }
      }

      const double qps =
          wall > 0 ? static_cast<double>(tpl.wheres.size()) / wall : 0;
      const double speedup = wall > 0 ? scan_wall / wall : 0;
      table.AddRow({tpl.name, mode, TablePrinter::FormatCount(qps),
                    Fmt("%.2fx", speedup),
                    std::to_string(stats.records_emitted),
                    std::to_string(stats.blobs_decoded),
                    std::to_string(stats.blobs_skipped_by_summary)});
      json->BeginObject();
      json->KeyValue("name", mode);
      json->KeyValue("wall_seconds", wall);
      json->KeyValue("queries_per_second", qps);
      json->KeyValue("speedup_vs_scan", speedup);
      json->KeyValue("rows_scanned", stats.records_emitted);
      json->KeyValue("blobs_decoded", stats.blobs_decoded);
      json->KeyValue("blobs_pruned", stats.blobs_pruned);
      json->KeyValue("blobs_skipped_by_summary",
                     stats.blobs_skipped_by_summary);
      json->EndObject();
    }
    json->EndArray();
    json->EndObject();
  }
  json->EndArray();
  json->KeyValue("results_match", mismatches == 0);
  json->EndObject();

  table.Print("Aggregate pushdown vs scanning the rows (AQ1-AQ3 on TD)");
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "FATAL: %lld aggregate results differ from the folded scan\n",
                 static_cast<long long>(mismatches));
    std::exit(1);
  }
  std::printf("Pushed-down aggregates match the folded scans.\n");
}

/// Read-path scaling: the same TD dataset queried with the reader's
/// parallel blob decode at 1, 2, 4, ... worker threads. Queries run from
/// one thread (the SQL engine is single-threaded); the parallelism is
/// inside each scan, where candidate blobs fan out to the decode pool.
void RunReadScalingCurve(int max_threads, double scale, JsonWriter* json) {
  std::vector<int> curve;
  for (int t = 1; t < max_threads; t *= 2) curve.push_back(t);
  curve.push_back(max_threads);

  const int64_t account_unit = static_cast<int64_t>(20 * scale);
  TdConfig td = TdConfig::Of(5, 2, account_unit, /*duration_seconds=*/20);
  const int64_t num_accounts = td.num_accounts;

  TablePrinter table({"Decode threads", "dp/s", "p50 ms", "p95 ms",
                      "p99 ms", "Speedup vs 1T"});
  json->Key("read_scaling");
  json->BeginArray();
  double base_rate = 0;
  for (int threads : curve) {
    core::OdhOptions options;
    options.read_parallelism = threads;
    OdhTarget odh(options);
    {
      TdGenerator stream(td);
      ODH_CHECK_OK(odh.Setup(stream.info()));
      ODH_CHECK_OK(benchfw::RunIngest(&stream, &odh).status());
    }
    Random rng(0xD0D0);
    auto metrics = benchfw::RunQueryWorkload(
        odh.odh()->engine(), kQueriesPerTemplate, [&](int) {
          return "SELECT * FROM TD_v WHERE id = " +
                 std::to_string(1 + rng.Uniform(num_accounts));
        });
    ODH_CHECK_OK(metrics.status());
    double rate = metrics->DataPointsPerSecond();
    if (threads == 1) base_rate = rate;
    double speedup = base_rate > 0 ? rate / base_rate : 0;
    table.AddRow({std::to_string(threads), TablePrinter::FormatCount(rate),
                  Fmt("%.3f", metrics->P50LatencyMs()),
                  Fmt("%.3f", metrics->P95LatencyMs()),
                  Fmt("%.3f", metrics->P99LatencyMs()),
                  Fmt("%.2fx", speedup)});
    json->BeginObject();
    json->KeyValue("decode_threads", threads);
    json->KeyValue("data_points_per_second", rate);
    json->KeyValue("p50_ms", metrics->P50LatencyMs());
    json->KeyValue("p95_ms", metrics->P95LatencyMs());
    json->KeyValue("p99_ms", metrics->P99LatencyMs());
    json->KeyValue("speedup_vs_1_thread", speedup);
    json->EndObject();
  }
  json->EndArray();
  table.Print("Parallel blob-decode scaling (TQ1 on TD(5,2))");
}

/// Segment-parallel scans and the decoded-blob cache on one multi-segment
/// TD dataset (8 segments of 5 s): serial vs parallel latency at 1/2/4/8
/// segments of history depth with exact result verification, then cold vs
/// warm latency and hit rate with the cache enabled. Parallel speedup is
/// hardware-dependent (it needs real cores: the fan-out is capped by the
/// shared decode pool); the cache comparison holds on any machine.
void RunParallelCacheSection(double scale, int queries_per_depth,
                             JsonWriter* json) {
  const int64_t account_unit =
      std::max<int64_t>(1, static_cast<int64_t>(20 * scale));
  constexpr double kDurationSeconds = 40;
  constexpr Timestamp kSegmentSpan = 5 * kMicrosPerSecond;
  TdConfig td = TdConfig::Of(5, 2, account_unit, kDurationSeconds);
  const int64_t num_accounts = td.num_accounts;
  const Timestamp end_ts =
      static_cast<Timestamp>(kDurationSeconds * kMicrosPerSecond);

  json->Key("parallel_cache");
  json->BeginObject();
  json->KeyValue("segment_span_seconds", 5);
  json->KeyValue("num_segments", 8);

  // Serial vs parallel at increasing history depth, cache off.
  core::OdhOptions options;
  options.segment_span = kSegmentSpan;
  options.query_parallelism = 8;
  OdhTarget odh(options);
  {
    TdGenerator stream(td);
    ODH_CHECK_OK(odh.Setup(stream.info()));
    ODH_CHECK_OK(benchfw::RunIngest(&stream, &odh).status());
  }
  core::OdhSystem* sys = odh.odh();
  ODH_CHECK_OK(sys->FlushAll());

  TablePrinter table({"Segments", "Serial p50 ms", "Parallel p50 ms",
                      "Speedup", "Parallel tasks"});
  json->Key("parallel_scan");
  json->BeginArray();
  for (int depth : {1, 2, 4, 8}) {
    const Timestamp lo = end_ts - depth * kSegmentSpan;
    // Parallel answers must equal serial exactly — same rows, same order.
    const std::string probe =
        "SELECT * FROM TD_v WHERE id = 1 AND ts >= " + TsLiteral(lo);
    sys->config()->SetQueryParallelism(0);
    auto serial_probe = sys->engine()->Execute(probe);
    sys->config()->SetQueryParallelism(8);
    auto parallel_probe = sys->engine()->Execute(probe);
    ODH_CHECK_OK(serial_probe.status());
    ODH_CHECK_OK(parallel_probe.status());
    bool same = serial_probe->rows.size() == parallel_probe->rows.size();
    for (size_t r = 0; same && r < serial_probe->rows.size(); ++r) {
      for (size_t c = 0; same && c < serial_probe->rows[r].size(); ++c) {
        same = DatumsClose(serial_probe->rows[r][c],
                           parallel_probe->rows[r][c]);
      }
    }
    if (!same) {
      std::fprintf(stderr,
                   "FATAL: parallel scan mismatch at depth %d segments\n",
                   depth);
      std::exit(1);
    }

    auto run_pass = [&](int parallelism) {
      sys->config()->SetQueryParallelism(parallelism);
      Random rng(0xBEEF);
      return benchfw::RunQueryWorkload(
          sys->engine(), queries_per_depth, [&](int) {
            return "SELECT * FROM TD_v WHERE id = " +
                   std::to_string(1 + rng.Uniform(num_accounts)) +
                   " AND ts >= " + TsLiteral(lo);
          });
    };
    auto serial = run_pass(0);
    ODH_CHECK_OK(serial.status());
    sys->reader()->ResetStats();
    auto parallel = run_pass(8);
    ODH_CHECK_OK(parallel.status());
    const core::ReadStats stats = sys->reader()->SnapshotAndResetStats();
    const double speedup = parallel->P50LatencyMs() > 0
                               ? serial->P50LatencyMs() /
                                     parallel->P50LatencyMs()
                               : 0;
    table.AddRow({std::to_string(depth),
                  Fmt("%.3f", serial->P50LatencyMs()),
                  Fmt("%.3f", parallel->P50LatencyMs()),
                  Fmt("%.2fx", speedup),
                  std::to_string(stats.parallel_tasks)});
    json->BeginObject();
    json->KeyValue("segments", depth);
    json->KeyValue("serial_p50_ms", serial->P50LatencyMs());
    json->KeyValue("parallel_p50_ms", parallel->P50LatencyMs());
    json->KeyValue("serial_p95_ms", serial->P95LatencyMs());
    json->KeyValue("parallel_p95_ms", parallel->P95LatencyMs());
    json->KeyValue("speedup", speedup);
    json->KeyValue("parallel_tasks", stats.parallel_tasks);
    json->KeyValue("segments_scanned_parallel",
                   stats.segments_scanned_parallel);
    json->EndObject();
  }
  json->EndArray();
  table.Print("Segment-parallel scan — serial vs parallel by history depth");

  // Cold vs warm with the decoded-blob cache on (fresh instance so the
  // timing section above stayed cache-free).
  core::OdhOptions cache_options;
  cache_options.segment_span = kSegmentSpan;
  cache_options.query_parallelism = 8;
  cache_options.blob_cache_bytes = 64u << 20;
  OdhTarget cached(cache_options);
  {
    TdGenerator stream(td);
    ODH_CHECK_OK(cached.Setup(stream.info()));
    ODH_CHECK_OK(benchfw::RunIngest(&stream, &cached).status());
  }
  core::OdhSystem* csys = cached.odh();
  ODH_CHECK_OK(csys->FlushAll());
  auto cache_pass = [&]() {
    Random rng(0xFEED);  // Same seed each pass: the warm pass repeats the
                         // cold pass's query set so every blob re-occurs.
    return benchfw::RunQueryWorkload(
        csys->engine(), queries_per_depth, [&](int) {
          return "SELECT * FROM TD_v WHERE id = " +
                 std::to_string(1 + rng.Uniform(num_accounts));
        });
  };
  csys->reader()->ResetStats();
  auto cold = cache_pass();
  ODH_CHECK_OK(cold.status());
  const core::ReadStats cold_stats = csys->reader()->SnapshotAndResetStats();
  auto warm = cache_pass();
  ODH_CHECK_OK(warm.status());
  const core::ReadStats warm_stats = csys->reader()->SnapshotAndResetStats();
  const double warm_lookups = static_cast<double>(
      warm_stats.blob_cache_hits + warm_stats.blobs_decoded);
  const double hit_rate =
      warm_lookups > 0 ? warm_stats.blob_cache_hits / warm_lookups : 0;
  const double cache_speedup = warm->P50LatencyMs() > 0
                                   ? cold->P50LatencyMs() /
                                         warm->P50LatencyMs()
                                   : 0;
  TablePrinter cache_table({"Pass", "p50 ms", "dp/s", "Blobs decoded",
                            "Cache hits", "Hit rate"});
  cache_table.AddRow({"cold", Fmt("%.3f", cold->P50LatencyMs()),
                      TablePrinter::FormatCount(cold->DataPointsPerSecond()),
                      std::to_string(cold_stats.blobs_decoded),
                      std::to_string(cold_stats.blob_cache_hits), "-"});
  cache_table.AddRow({"warm", Fmt("%.3f", warm->P50LatencyMs()),
                      TablePrinter::FormatCount(warm->DataPointsPerSecond()),
                      std::to_string(warm_stats.blobs_decoded),
                      std::to_string(warm_stats.blob_cache_hits),
                      TablePrinter::FormatPercent(hit_rate)});
  cache_table.Print("Decoded-blob cache — cold vs warm (TQ1 over 8 segments)");
  json->Key("cache");
  json->BeginObject();
  json->KeyValue("capacity_bytes",
                 static_cast<int64_t>(cache_options.blob_cache_bytes));
  json->KeyValue("cold_p50_ms", cold->P50LatencyMs());
  json->KeyValue("warm_p50_ms", warm->P50LatencyMs());
  json->KeyValue("cold_blobs_decoded", cold_stats.blobs_decoded);
  json->KeyValue("warm_blobs_decoded", warm_stats.blobs_decoded);
  json->KeyValue("warm_cache_hits", warm_stats.blob_cache_hits);
  json->KeyValue("warm_hit_rate", hit_rate);
  json->KeyValue("warm_speedup", cache_speedup);
  json->EndObject();
  json->EndObject();
}

int Run(int argc, char** argv) {
  double scale = ScaleFromArgs(argc, argv);
  int max_threads = ThreadsFromArgs(argc, argv, 1);
  const bool smoke = SmokeFromArgs(argc, argv);
  if (smoke) scale = std::min(scale, 0.25);
  PrintHeader("IoT-X WS2: query performance",
              "Table 8 (TQ1-TQ4 on TD(5,2), LQ1-LQ4 on LD(5))",
              smoke ? "Smoke mode: tiny TD dataset, ODH aggregate paths only."
                    : "Scaled datasets; 100 queries per template; throughput "
                      "in returned data points per second.");

  if (smoke) {
    const int64_t accounts = std::max<int64_t>(4, static_cast<int64_t>(
                                                      20 * scale));
    TdConfig td = TdConfig::Of(5, 2, accounts, /*duration_seconds=*/20);
    LdConfig ld = LdConfig::Of(5, 8, /*duration_seconds=*/30);
    ld.first_id = 10000001;
    Candidate odh = MakeOdh(td, ld);
    JsonWriter json;
    json.BeginObject();
    json.KeyValue("bench", "table8_queries");
    json.KeyValue("smoke", true);
    RunAggregateComparison(
        odh.odh->odh(), td.num_accounts,
        static_cast<Timestamp>(td.duration_seconds * kMicrosPerSecond),
        /*queries_per_template=*/5, &json);
    RunParallelCacheSection(scale, /*queries_per_depth=*/5, &json);
    json.EndObject();
    if (json.WriteFile("BENCH_queries.json")) {
      std::printf("Query data written to BENCH_queries.json\n");
    }
    return 0;
  }

  const int64_t account_unit = static_cast<int64_t>(20 * scale);
  const int64_t sensor_unit = static_cast<int64_t>(600 * scale);
  TdConfig td = TdConfig::Of(5, 2, account_unit, /*duration_seconds=*/20);
  LdConfig ld = LdConfig::Of(5, sensor_unit, /*duration_seconds=*/120);
  ld.first_id = 10000001;  // Keep LD source ids disjoint from TD accounts.
  const int64_t num_accounts = td.num_accounts;
  const int64_t num_sensors = ld.num_sensors;
  const Timestamp td_span =
      static_cast<Timestamp>(td.duration_seconds * kMicrosPerSecond);
  const Timestamp ld_span =
      static_cast<Timestamp>(ld.duration_seconds * kMicrosPerSecond);

  std::printf("Loading candidates (TD(5,2): %lld accounts x 40 Hz x 20 s; "
              "LD(5): %lld sensors)...\n",
              static_cast<long long>(num_accounts),
              static_cast<long long>(num_sensors));
  std::vector<Candidate> candidates;
  candidates.push_back(MakeOdh(td, ld));
  candidates.push_back(
      MakeRelational(relational::EngineProfile::Rdb(), td, ld));
  candidates.push_back(
      MakeRelational(relational::EngineProfile::MySql(), td, ld));

  struct TemplateResult {
    std::string name;
    std::vector<QueryMetrics> per_candidate;
  };
  std::vector<TemplateResult> results;

  auto run_template =
      [&](const std::string& name, bool ld_side,
          const std::function<std::string(const Candidate&, Random&)>& make) {
        TemplateResult result;
        result.name = name;
        for (Candidate& c : candidates) {
          Random rng(0xBEEF ^ std::hash<std::string>{}(name));
          sql::SqlEngine* engine = ld_side ? c.LdEngine() : c.TdEngine();
          auto metrics =
              benchfw::RunQueryWorkload(engine, kQueriesPerTemplate,
                                        [&](int) { return make(c, rng); });
          ODH_CHECK_OK(metrics.status());
          result.per_candidate.push_back(*metrics);
        }
        results.push_back(std::move(result));
        std::printf("  %s done\n", name.c_str());
        std::fflush(stdout);
      };

  // TQ1: historical query.
  run_template("TQ1", false, [&](const Candidate& c, Random& rng) {
    return "SELECT * FROM " + c.TdTable() + " WHERE id = " +
           std::to_string(1 + rng.Uniform(num_accounts));
  });
  // TQ2: slice query.
  run_template("TQ2", false, [&](const Candidate& c, Random& rng) {
    Timestamp dt = rng.UniformRange(1, 3) * kMicrosPerSecond;
    Timestamp t = rng.UniformRange(0, td_span - dt);
    return "SELECT * FROM " + c.TdTable() + " WHERE ts BETWEEN " +
           TsLiteral(t) + " AND " + TsLiteral(t + dt);
  });
  // TQ3: fuse with the account table, single data source.
  run_template("TQ3", false, [&](const Candidate& c, Random& rng) {
    return "SELECT ts, t_chrg FROM " + c.TdTable() +
           " t, account a WHERE a.ca_id = t.id AND a.ca_name = 'ACCT" +
           std::to_string(1 + rng.Uniform(num_accounts)) + "'";
  });
  // TQ4: fuse with account and customer, multiple data sources.
  run_template("TQ4", false, [&](const Candidate& c, Random& rng) {
    Timestamp t1 = static_cast<Timestamp>(
        (-30.0 + 40.0 * rng.NextDouble()) * 365.25 * 86400.0 *
        kMicrosPerSecond);
    Timestamp t2 =
        t1 + static_cast<Timestamp>(2.0 * 365.25 * 86400.0 *
                                    kMicrosPerSecond);
    return "SELECT ca_name, ts, t_chrg FROM " + c.TdTable() +
           " t, account a, customer c WHERE a.ca_id = t.id AND "
           "a.ca_c_id = c.c_id AND c_dob BETWEEN " +
           TsLiteral(t1) + " AND " + TsLiteral(t2);
  });
  // LQ1: historical query on a low-frequency sensor.
  run_template("LQ1", true, [&](const Candidate& c, Random& rng) {
    return "SELECT * FROM " + c.LdTable() + " WHERE id = " +
           std::to_string(ld.first_id +
                          static_cast<SourceId>(rng.Uniform(num_sensors)));
  });
  // LQ2: slice query projecting one tag.
  run_template("LQ2", true, [&](const Candidate& c, Random& rng) {
    Timestamp dt = rng.UniformRange(1, 10) * kMicrosPerSecond;
    Timestamp t = rng.UniformRange(0, ld_span - dt);
    return "SELECT ts, id, airtemperature FROM " + c.LdTable() +
           " WHERE ts BETWEEN " + TsLiteral(t) + " AND " + TsLiteral(t + dt);
  });
  // LQ3: fuse with linkedsensor by name, single data source.
  run_template("LQ3", true, [&](const Candidate& c, Random& rng) {
    return "SELECT ts, o.id, airtemperature FROM " + c.LdTable() +
           " o, linkedsensor l WHERE l.sensorid = o.id AND sensorname = 'A" +
           std::to_string(ld.first_id +
                          static_cast<SourceId>(rng.Uniform(num_sensors))) +
           "'";
  });
  // LQ4: fuse by geographic box, multiple data sources.
  run_template("LQ4", true, [&](const Candidate& c, Random& rng) {
    double la1 = 25.0 + 20.0 * rng.NextDouble();
    double la2 = la1 + 2.0;
    double lo1 = -125.0 + 50.0 * rng.NextDouble();
    double lo2 = lo1 + 5.0;
    return "SELECT ts, o.id, airtemperature FROM " + c.LdTable() +
           " o, linkedsensor l WHERE l.sensorid = o.id AND latitude > " +
           Fmt("%.4f", la1) + " AND latitude < " + Fmt("%.4f", la2) +
           " AND longitude > " + Fmt("%.4f", lo1) + " AND longitude < " +
           Fmt("%.4f", lo2);
  });

  TablePrinter table({"Query", "ODH dp/s", "ODH CPU", "RDB dp/s", "RDB CPU",
                      "MySQL dp/s", "MySQL CPU"});
  JsonWriter json;
  json.BeginObject();
  json.KeyValue("bench", "table8_queries");
  json.KeyValue(
      "hardware_concurrency",
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.KeyValue("queries_per_template", kQueriesPerTemplate);
  json.Key("templates");
  json.BeginArray();
  for (const TemplateResult& result : results) {
    std::vector<std::string> row = {result.name};
    json.BeginObject();
    json.KeyValue("name", result.name);
    json.Key("candidates");
    json.BeginArray();
    for (size_t ci = 0; ci < result.per_candidate.size(); ++ci) {
      const QueryMetrics& m = result.per_candidate[ci];
      row.push_back(TablePrinter::FormatCount(m.DataPointsPerSecond()));
      row.push_back(TablePrinter::FormatPercent(
          m.wall_seconds > 0
              ? m.cpu_seconds / m.wall_seconds / kSimulatedCores
              : 0));
      json.BeginObject();
      json.KeyValue("name", candidates[ci].name);
      json.KeyValue("data_points_per_second", m.DataPointsPerSecond());
      json.KeyValue("avg_latency_ms", m.AvgLatencyMs());
      json.KeyValue("p50_ms", m.P50LatencyMs());
      json.KeyValue("p95_ms", m.P95LatencyMs());
      json.KeyValue("p99_ms", m.P99LatencyMs());
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    table.AddRow(row);
  }
  json.EndArray();
  table.Print("Table 8 — query performance (scaled datasets)");

  TablePrinter latency_table({"Query", "ODH p50/p95/p99 ms",
                              "RDB p50/p95/p99 ms",
                              "MySQL p50/p95/p99 ms"});
  for (const TemplateResult& result : results) {
    std::vector<std::string> row = {result.name};
    for (const QueryMetrics& m : result.per_candidate) {
      row.push_back(Fmt("%.3f", m.P50LatencyMs()) + "/" +
                    Fmt("%.3f", m.P95LatencyMs()) + "/" +
                    Fmt("%.3f", m.P99LatencyMs()));
    }
    latency_table.AddRow(row);
  }
  latency_table.Print("Table 8 — per-query latency percentiles");

  RunAggregateComparison(candidates[0].odh->odh(), num_accounts, td_span,
                         kQueriesPerTemplate, &json);
  RunReadScalingCurve(max_threads, scale, &json);
  RunParallelCacheSection(scale, kQueriesPerTemplate, &json);
  json.EndObject();
  if (json.WriteFile("BENCH_queries.json")) {
    std::printf("Query data written to BENCH_queries.json\n");
  }
  std::printf(
      "\nExpected shape: RDB/MySQL ahead on TQ1/TQ2/LQ1/LQ2 (ODH pays VTI\n"
      "row assembly + SQL metadata router; LQ1's tiny results make the\n"
      "router dominate); ODH ahead on the single-tag fused templates\n"
      "TQ3/TQ4/LQ4 (tag-oriented blob decode).\n");
  return 0;
}

}  // namespace
}  // namespace odh::bench

int main(int argc, char** argv) { return odh::bench::Run(argc, argv); }
