// history_scan: analytics over deep history, in-process.
//   - Set-up loads 300 s of TD (200 accounts at 20 Hz) and LD (4000
//     stations, 20 s mean interval) history, reorganizes LD out of MG,
//     compacts every sealed segment and loads the relational customer /
//     account / linkedsensor tables.
//   - The buffer pool holds a quarter of the stored bytes and the blob
//     cache is off, so scans fetch pages and verify their CRCs; a 2-worker
//     read pool serves segment-parallel scans.
//   - One Session runs ad-hoc Execute calls in a closed loop (parse and bind
//     every time) over a seeded pool of queries: full-history scans (TQ1),
//     cross-source time slices (TQ2/LQ2), single-tag fusion joins (TQ3),
//     pushdown aggregates (AQ1-AQ3), GROUP BY id over a window, and ORDER BY
//     <tag> LIMIT n under a 256 KiB query budget that makes the large-n
//     sorts spill.
// Every answer is compared with the relational engine on the same data,
// computed after the timed phase.
#include <algorithm>
#include <cmath>

#include "benchfw/dataset.h"
#include "benchfw/target.h"
#include "common/logging.h"
#include "core/value_blob.h"
#include "sql/session.h"
#include "streams.h"

namespace histbench {
namespace {

using odh::Datum;
using odh::Row;
using odh::Status;
using odh::core::OdhOptions;
using odh::core::OdhSystem;

constexpr Timestamp kSec = odh::kMicrosPerSecond;
constexpr Timestamp kHistory = 300 * kSec;
constexpr Timestamp kSegmentSpan = 60 * kSec;
constexpr Cadence kLoadCadence{10 * kSec, 1000 * kSec};
constexpr size_t kPoolPages = 512;  // 2 MiB: about a quarter of the tables.
constexpr int64_t kQueryBudget = 1 << 20;
/// Distinct queries per template in the seeded pool.
constexpr int kQueriesPerKind = 12;
/// Queries per template in the serial, exactly counted warm-up prefix.
constexpr int kExactPerKind = 3;
constexpr int64_t kAccounts = 50;

odh::benchfw::TdConfig TdHistory(uint64_t seed) {
  odh::benchfw::TdConfig td;
  td.num_accounts = kAccounts;
  td.per_account_hz = 10;
  td.duration_seconds = static_cast<double>(kHistory) / kSec;
  td.seed = seed * 7919 + 5;
  td.first_source_id = 1;
  return td;
}

odh::benchfw::LdConfig LdHistory(uint64_t seed) {
  odh::benchfw::LdConfig ld;
  ld.num_sensors = 1000;
  ld.mean_interval = 20 * kSec;
  ld.duration_seconds = static_cast<double>(kHistory) / kSec;
  ld.first_id = 10000001;
  ld.seed = seed * 31 + 9;
  return ld;
}

OdhOptions Options() {
  OdhOptions options;
  options.segment_span = kSegmentSpan;
  options.pool_pages = kPoolPages;
  options.read_parallelism = 2;
  options.query_memory_budget = kQueryBudget;
  return options;
}

enum Kind { kTQ1, kTQ2, kLQ2, kTQ3, kAQ1, kAQ2, kAQ3, kGroupBy, kTopN };
const char* const kKindNames[] = {"TQ1", "TQ2", "LQ2",     "TQ3", "AQ1",
                                  "AQ2", "AQ3", "GROUP_BY", "TOP_N"};
/// Slots per round of the closed loop. Every round runs exactly this mix in
/// a seeded order, so the template mix (and with it the latency
/// distribution) does not depend on the seed; only the parameters do. The
/// weights put the median op inside the narrow TQ1/TQ3 latency cluster
/// rather than in a gap between templates, where a small shift would move
/// op_p50_ms a long way.
const int kKindWeights[] = {4, 2, 2, 4, 1, 1, 1, 1, 1};
constexpr int kKinds = 9;

struct Query {
  Kind kind = kTQ1;
  SourceId id = 0;     // TQ1/TQ3/AQ1/AQ2.
  Timestamp lo = odh::kMinTimestamp, hi = odh::kMaxTimestamp;
  double threshold = 0;  // AQ3.
  int limit = 0;         // TOP_N.
  std::string odh_sql;
  std::string oracle_sql;
  bool aggregate = false;  // Answers compared row by row with a tolerance.
};

std::string TsLiteral(Timestamp ts) {
  std::string out = "'";
  out.append(odh::FormatTimestamp(ts));
  out.push_back('\'');
  return out;
}

/// Builds the SQL text of `q` against a TD and an LD table name.
std::string Sql(const Query& q, const std::string& td,
                const std::string& ld) {
  const std::string id = std::to_string(q.id);
  const std::string range =
      "ts BETWEEN " + TsLiteral(q.lo) + " AND " + TsLiteral(q.hi);
  switch (q.kind) {
    case kTQ1:
      return "SELECT ts, t_trade_price FROM " + td + " WHERE id = " + id;
    case kTQ2:
      return "SELECT id, ts, t_trade_price, t_chrg FROM " + td + " WHERE " +
             range;
    case kLQ2:
      return "SELECT ts, id, airtemperature FROM " + ld + " WHERE " + range;
    case kTQ3:
      return "SELECT ts, t_chrg FROM " + td +
             " t, account a WHERE a.ca_id = t.id AND a.ca_name = 'ACCT" + id +
             "'";
    case kAQ1:
      return "SELECT COUNT(*), AVG(t_chrg), MIN(t_chrg), MAX(t_chrg) FROM " +
             td + " WHERE id = " + id;
    case kAQ2:
      return "SELECT COUNT(*), SUM(t_chrg) FROM " + td + " WHERE id = " + id +
             " AND " + range;
    case kAQ3: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", q.threshold);
      return "SELECT COUNT(*), SUM(t_chrg), MAX(t_chrg) FROM " + td +
             " WHERE " + range + " AND t_trade_price > " + buf;
    }
    case kGroupBy:
      return "SELECT id, COUNT(*), MAX(t_trade_price) FROM " + td +
             " WHERE " + range + " GROUP BY id";
    case kTopN:
      return "SELECT id, ts, t_trade_price FROM " + td + " WHERE " + range +
             " ORDER BY t_trade_price DESC, ts, id LIMIT " +
             std::to_string(q.limit);
  }
  return "";
}

/// The seeded query pool: kQueriesPerKind queries of each template, stored
/// template by template.
std::vector<Query> MakeQueries(uint64_t seed) {
  odh::Random rng(seed * 6151 + 17);
  std::vector<Query> queries;
  for (int i = 0; i < kKinds * kQueriesPerKind; ++i) {
    Query q;
    q.kind = static_cast<Kind>(i / kQueriesPerKind);
    q.id = 1 + static_cast<SourceId>(rng.Uniform(kAccounts));
    auto window = [&](double min_s, double max_s) {
      const Timestamp dt =
          static_cast<Timestamp>(rng.UniformDouble(min_s, max_s) * kSec);
      q.lo = rng.UniformRange(0, kHistory - dt);
      q.hi = q.lo + dt;
    };
    switch (q.kind) {
      case kTQ2: window(0.25, 1); break;
      case kLQ2: window(5, 20); break;
      case kAQ2: window(30, 120); break;
      case kAQ3:
        window(20, 60);
        q.threshold = rng.UniformDouble(20, 90);
        break;
      case kGroupBy: window(2, 5); break;
      case kTopN:
        window(5, 10);
        q.limit = rng.OneIn(2) ? 100 : 20000;
        break;
      default: break;
    }
    q.aggregate = q.kind == kAQ1 || q.kind == kAQ2 || q.kind == kAQ3 ||
                  q.kind == kGroupBy;
    q.odh_sql = Sql(q, "TD_v", "LD_v");
    q.oracle_sql = Sql(q, "TD", "LD");
    queries.push_back(std::move(q));
  }
  return queries;
}

struct Instance {
  std::unique_ptr<OdhSystem> odh;
  int td_type = -1, ld_type = -1;
};

/// A drained result and the profile of the statement that produced it.
struct Rows {
  std::vector<Row> rows;
  odh::sql::QueryProfile profile;
};

/// Runs one ad-hoc statement (parse, bind, plan, execute) and drains its
/// stream. Streaming keeps result rows out of the query's memory budget, so
/// only the sort working set counts against it and large sorts spill.
odh::Result<Rows> Run(odh::sql::Session* session, const std::string& sql) {
  ODH_ASSIGN_OR_RETURN(std::unique_ptr<odh::sql::QueryStream> stream,
                       session->ExecuteStreaming(sql));
  Rows out;
  Row row;
  while (true) {
    ODH_ASSIGN_OR_RETURN(bool more, stream->Next(&row));
    if (!more) break;
    out.rows.push_back(std::move(row));
  }
  out.profile = stream->profile();
  return out;
}

odh::Status Load(odh::benchfw::RecordStream* stream, Feeder* feeder,
                 int kind) {
  std::vector<TypedRecord> batch(1000);
  bool more = true;
  while (more) {
    size_t n = 0;
    for (; n < batch.size(); ++n) {
      if (!stream->Next(&batch[n].rec)) break;
      batch[n].kind = kind;
    }
    more = n == batch.size();
    batch.resize(n);
    ODH_RETURN_IF_ERROR(feeder->IngestBatch(batch, -1, -1));
  }
  return Status::OK();
}

/// Loads the history, then runs a fixed serial query prefix whose counters
/// are exact for the seed (it also warms the pool).
odh::Result<Instance> SetUp(uint64_t seed, const std::vector<Query>& queries,
                            Tracer* off,
                            std::map<std::string, int64_t>* exact) {
  Instance in;
  in.odh = std::make_unique<OdhSystem>(Options());
  odh::benchfw::TdGenerator td(TdHistory(seed));
  odh::benchfw::LdGenerator ld(LdHistory(seed));
  ODH_ASSIGN_OR_RETURN(in.td_type, DefineStream(in.odh.get(), td.info()));
  ODH_ASSIGN_OR_RETURN(in.ld_type, DefineStream(in.odh.get(), ld.info()));
  ODH_RETURN_IF_ERROR(in.odh->FlushAll());
  Feeder feeder(in.odh.get(), {in.td_type, in.ld_type}, kLoadCadence,
                kSegmentSpan, off);
  ODH_RETURN_IF_ERROR(Load(&td, &feeder, 0));
  ODH_RETURN_IF_ERROR(Load(&ld, &feeder, 1));
  ODH_RETURN_IF_ERROR(in.odh->FlushAll());
  ODH_RETURN_IF_ERROR(
      in.odh->Reorganize(in.ld_type, odh::kMaxTimestamp).status());
  for (int type : {in.td_type, in.ld_type}) {
    ODH_RETURN_IF_ERROR(in.odh->CompactSegments(type).status());
  }
  ODH_RETURN_IF_ERROR(
      odh::benchfw::LoadTdRelational(td, in.odh->database()));
  ODH_RETURN_IF_ERROR(
      odh::benchfw::LoadLdRelational(ld, in.odh->database()));
  for (const char* t : {"customer", "account", "linkedsensor"}) {
    ODH_RETURN_IF_ERROR(in.odh->engine()->catalog()->Analyze(t));
  }
  ODH_RETURN_IF_ERROR(in.odh->database()->pool()->FlushAll());
  const Counters loaded = Counters::Read(in.odh.get());
  (*exact)["load.storage_bytes"] =
      static_cast<int64_t>(in.odh->storage_bytes());
  (*exact)["load.disk_bytes_written"] =
      static_cast<int64_t>(loaded.bytes_written);
  (*exact)["load.wal_synced_bytes"] =
      static_cast<int64_t>(loaded.wal_synced_bytes);
  (*exact)["load.values"] = feeder.values_acked();
  (*exact)["load.records"] = feeder.records_acked();

  in.odh->config()->SetQueryParallelism(1);
  odh::sql::Session session(in.odh->engine());
  const Counters before = Counters::Read(in.odh.get());
  for (int k = 0; k < kKinds; ++k) {
    for (int j = 0; j < kExactPerKind; ++j) {
      const std::string& sql = queries[k * kQueriesPerKind + j].odh_sql;
      auto result = Run(&session, sql);
      if (!result.ok()) {
        return Status::Internal(sql + ": " + result.status().ToString());
      }
    }
  }
  const Counters d = Counters::Read(in.odh.get()).Minus(before);
  in.odh->config()->SetQueryParallelism(-1);
  (*exact)["serial.page_reads"] = static_cast<int64_t>(d.page_reads);
  (*exact)["serial.blobs_decoded"] = d.blobs_decoded;
  (*exact)["serial.blobs_pruned"] = d.blobs_pruned;
  (*exact)["serial.blobs_skipped_by_summary"] = d.blobs_skipped_by_summary;
  (*exact)["serial.segments_pruned"] = d.segments_pruned;
  (*exact)["serial.router_lookups"] = d.router_lookups;
  (*exact)["serial.blobs_examined"] = d.blobs_examined;
  return in;
}

/// What the timed loop keeps of each distinct query's first answer.
struct Answer {
  bool seen = false;
  uint64_t digest = 0;
  std::vector<Row> rows;  // Aggregates only, sorted.
};

void Canonicalize(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    return a[0].is_null() ? false
           : b[0].is_null() ? true
                            : a[0].int64_value() < b[0].int64_value();
  });
}

bool Matches(const Query& q, const Answer& want, std::vector<Row>* rows) {
  if (!q.aggregate) return RowsetDigest(*rows) == want.digest;
  Canonicalize(rows);
  if (rows->size() != want.rows.size()) return false;
  for (size_t i = 0; i < rows->size(); ++i) {
    if (!RowsClose((*rows)[i], want.rows[i])) return false;
  }
  return true;
}

Answer MakeAnswer(const Query& q, std::vector<Row> rows) {
  Answer a;
  a.seen = true;
  if (q.aggregate) {
    Canonicalize(&rows);
    a.rows = std::move(rows);
  } else {
    a.digest = RowsetDigest(rows);
  }
  return a;
}

/// One relational table per stream: (ts, id, tags...) with a B-tree on ts,
/// rows inserted in stream order and committed every 1000.
odh::Status LoadOracleTable(odh::benchfw::RecordStream* stream,
                            odh::relational::Database* db) {
  const odh::benchfw::StreamInfo& info = stream->info();
  std::vector<odh::relational::Column> columns = {
      {"ts", odh::DataType::kTimestamp}, {"id", odh::DataType::kInt64}};
  for (const std::string& tag : info.tag_names) {
    columns.push_back({tag, odh::DataType::kDouble});
  }
  ODH_ASSIGN_OR_RETURN(odh::relational::Table * table,
                       db->CreateTable(info.name,
                                       odh::relational::Schema(columns)));
  ODH_RETURN_IF_ERROR(table->AddIndex({"by_ts", {0}}));
  OperationalRecord rec;
  Row row(columns.size());
  for (int64_t n = 1; stream->Next(&rec); ++n) {
    row[0] = Datum::Time(rec.ts);
    row[1] = Datum::Int64(rec.id);
    for (size_t t = 0; t < rec.tags.size(); ++t) {
      row[2 + t] = std::isnan(rec.tags[t]) ? Datum::Null()
                                           : Datum::Double(rec.tags[t]);
    }
    ODH_RETURN_IF_ERROR(table->Insert(row).status());
    if (n % 1000 == 0) ODH_RETURN_IF_ERROR(table->Commit());
  }
  return table->Commit();
}

/// Loads the same data into the relational engine and runs every query
/// the timed loop executed; returns the number that disagree with ODH.
int64_t CheckWithOracle(uint64_t seed, const std::vector<Query>& queries,
                        const std::vector<Answer>& answers, Report* report) {
  const int64_t t0 = NowNs();
  odh::relational::Database db(odh::relational::EngineProfile::Rdb());
  for (int k = 0; k < 2; ++k) {
    std::unique_ptr<odh::benchfw::RecordStream> stream;
    if (k == 0) {
      stream = std::make_unique<odh::benchfw::TdGenerator>(TdHistory(seed));
    } else {
      stream = std::make_unique<odh::benchfw::LdGenerator>(LdHistory(seed));
    }
    ODH_CHECK_OK(LoadOracleTable(stream.get(), &db));
  }
  ODH_CHECK_OK(odh::benchfw::LoadTdRelational(
      odh::benchfw::TdGenerator(TdHistory(seed)), &db));
  ODH_CHECK_OK(odh::benchfw::LoadLdRelational(
      odh::benchfw::LdGenerator(LdHistory(seed)), &db));
  odh::sql::SqlEngine engine(&db);
  for (const char* t : {"customer", "account", "linkedsensor", "TD", "LD"}) {
    ODH_CHECK_OK(engine.catalog()->Analyze(t));
  }
  odh::sql::Session session(&engine);
  const int64_t t_loaded = NowNs();
  int64_t wrong = 0, checked = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!answers[i].seen) continue;
    ++checked;
    auto result = session.Execute(queries[i].oracle_sql);
    ODH_CHECK_OK(result.status());
    if (!Matches(queries[i], answers[i], &result->rows)) {
      ++wrong;
      report->Info("oracle disagrees on %s: %s", kKindNames[queries[i].kind],
                   queries[i].odh_sql.c_str());
    }
  }
  report->Info("oracle: %lld distinct queries checked, %lld disagree "
               "(load %.2f s, queries %.2f s)",
               static_cast<long long>(checked), static_cast<long long>(wrong),
               static_cast<double>(t_loaded - t0) / 1e9,
               static_cast<double>(NowNs() - t_loaded) / 1e9);
  return wrong;
}

/// The scan a query asks for, for the layer replays.
ScanSpec ScanOf(const Query& q, const Instance& in) {
  ScanSpec scan;
  const bool ld = q.kind == kLQ2;
  scan.schema_type = ld ? in.ld_type : in.td_type;
  scan.num_tags = ld ? odh::benchfw::LdConfig{}.num_tags
                     : odh::benchfw::TdGenerator::kNumTags;
  scan.lo = q.lo;
  scan.hi = q.hi;
  const bool historical = q.kind == kTQ1 || q.kind == kTQ3 ||
                          q.kind == kAQ1 || q.kind == kAQ2;
  if (historical) scan.id = q.id;
  scan.aggregate = q.kind == kAQ1 || q.kind == kAQ2 || q.kind == kAQ3;
  switch (q.kind) {
    case kTQ1: case kTQ2: case kGroupBy: case kTopN: scan.tags = {0}; break;
    default: scan.tags = {1}; break;  // t_chrg, or LD's airtemperature.
  }
  if (q.kind == kTQ2) scan.tags = {0, 1};
  if (q.kind == kAQ3) {
    odh::core::TagFilter above;
    above.tag = 0;
    above.min = q.threshold;
    above.min_exclusive = true;
    scan.filters.push_back(above);
  }
  return scan;
}

}  // namespace

int RunHistoryScan(const Args& args, Report* report) {
  Tracer tracer(args.trace);
  Tracer off(false);
  const std::vector<Query> queries = MakeQueries(args.seed);
  std::vector<int> round;  // One round of template slots.
  for (int k = 0; k < kKinds; ++k) round.insert(round.end(), kKindWeights[k], k);
  std::map<std::string, int64_t> first_exact;
  auto made = RepeatSetUp<Instance>(
      [&](std::map<std::string, int64_t>* exact) {
        return SetUp(args.seed, queries, &off, exact);
      },
      &first_exact, report);
  if (!made.ok()) {
    report->Fail("set-up: " + made.status().ToString());
    return report->Finish(args, tracer);
  }
  Instance in = std::move(*made);
  SetLoadMetrics(first_exact, report);
  report->Info("set-up prefix: %lld records loaded, "
               "%lld B stored, pool %zu B",
               static_cast<long long>(first_exact["load.records"]),
               static_cast<long long>(first_exact["load.storage_bytes"]),
               kPoolPages * odh::storage::SimDisk::kDefaultPageSize);

  const double crc_rate = CalibrateCrcBytesPerUs();
  odh::sql::Session session(in.odh->engine());
  std::vector<Answer> answers(queries.size());
  PhaseStats untraced, traced;
  std::vector<Samples> kind_ms(kKinds);
  LayerTotals layers;
  ReplayTotals replay;
  double plan_us = 0, session_us = 0;
  int64_t rows_scanned = 0, rows_returned = 0, mem_peak = 0, spill = 0;
  int64_t spilled_ops = 0;
  odh::Random rng(args.seed * 3 + 1);
  // The session and each read-pool worker get a CPU of their own, moved
  // over the CPUs once a second. Left to the scheduler, the workers were
  // seen on the session's CPU for a whole run, parallel scans and all.
  CpuRotation rotation;
  int lane = 0;
  for (const int tid : ProcessThreadIds()) {
    if (tid != ThisThreadId()) rotation.SetLane(tid, ++lane);
  }
  const int64_t phase_start = NowNs();
  const int64_t phase_end =
      phase_start + static_cast<int64_t>(args.seconds * 1e9);
  for (int64_t op = 0; NowNs() < phase_end; ++op) {
    rotation.Tick();
    const size_t slot = static_cast<size_t>(op) % round.size();
    if (slot == 0) {
      for (size_t i = round.size() - 1; i > 0; --i) {
        std::swap(round[i], round[rng.Uniform(i + 1)]);
      }
    }
    const size_t qi = static_cast<size_t>(round[slot]) * kQueriesPerKind +
                      rng.Uniform(kQueriesPerKind);
    const Query& q = queries[qi];
    const bool tracing = InTracedWindow(args.trace, phase_start);
    Counters before;
    if (tracing) before = Counters::Read(in.odh.get());
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    odh::Result<Rows> result = Status::OK();
    {
      ScopedSpan span(tracing ? &tracer : &off, kKindNames[q.kind], op);
      result = Run(&session, q.odh_sql);
    }
    const int64_t op_ns = NowNs() - t0;
    const int64_t cpu_ns = ProcessCpuNs() - cpu0;
    if (!result.ok()) {
      report->Attempt(false);
      report->Fail("query " + q.odh_sql + ": " + result.status().ToString());
      break;
    }
    const int64_t dp = NonNullValues(result->rows);
    (tracing ? traced : untraced).Add(op_ns, dp, cpu_ns);
    kind_ms[q.kind].Add(static_cast<double>(op_ns) / 1e6);
    const odh::sql::QueryProfile& profile = result->profile;
    if (!answers[qi].seen) {
      answers[qi] = MakeAnswer(q, std::move(result->rows));
      report->Attempt(true);
    } else {
      const bool same = Matches(q, answers[qi], &result->rows);
      report->Attempt(same);
      if (!same) report->Fail("answer changed between runs: " + q.odh_sql);
    }
    if (profile.spill_runs > 0) ++spilled_ops;
    if (!tracing) continue;
    layers.AddDelta(Counters::Read(in.odh.get()).Minus(before));
    plan_us += profile.plan_micros;
    session_us += static_cast<double>(op_ns) / 1e3;
    rows_scanned += profile.rows_scanned;
    rows_returned += profile.rows_returned;
    mem_peak += profile.mem_peak_bytes;
    spill += profile.spill_bytes;
    if (op % 4 == 0) {
      ReplayScan(in.odh.get(), ScanOf(q, in), op, &tracer, &replay);
    }
  }
  const double peak_rss = PeakRssMb();
  report->Info("measured: %zu untraced ops, %zu traced ops, %lld spilled",
               untraced.op_ms.size(), traced.op_ms.size(),
               static_cast<long long>(spilled_ops));
  for (int k = 0; k < kKinds; ++k) {
    report->Info("  %-8s %6zu ops  p50 %8.3f ms  p99 %8.3f ms", kKindNames[k],
                 kind_ms[k].size(), kind_ms[k].Quantile(0.5),
                 kind_ms[k].Quantile(0.99));
  }
  report->Set("dp_per_s", untraced.DpPerS());
  SetLatencyMetrics(untraced.op_ms, report, !args.trace);
  report->Set("cpu_ns_per_dp",
              untraced.dp > 0
                  ? static_cast<double>(untraced.cpu_ns) / untraced.dp
                  : 0);
  report->Set("peak_rss_mb", peak_rss);

  if (args.trace) {
    const double n = static_cast<double>(std::max<int64_t>(layers.ops, 1));
    const double rn = static_cast<double>(std::max<int64_t>(replay.ops, 1));
    SetLayerMetrics(layers, 0, crc_rate, report);
    SetOverheadMetrics(untraced, traced, report);
    report->Set("sql.plan_us_per_op", plan_us / n);
    report->Set("sql.exec_us_per_op",
                std::max(0.0, (session_us - plan_us) / n -
                                  replay.reader_us / rn));
    report->Set("sql.rows_scanned_per_row_returned",
                rows_returned > 0
                    ? static_cast<double>(rows_scanned) / rows_returned
                    : 0);
    report->Set("sql.mem_peak_bytes_per_op", mem_peak / n);
    report->Set("sql.spill_bytes_per_op", spill / n);
    SetReplayMetrics(replay, report);
    double prepare_us = 0;
    int prepared = 0;
    for (int k = 0; k <= kTopN; ++k) {
      for (const Query& q : queries) {
        if (q.kind != k) continue;
        odh::sql::Session fresh(in.odh->engine());
        const int64_t t0 = NowNs();
        ODH_CHECK_OK(fresh.Prepare(q.odh_sql).status());
        const double us = MicrosSince(t0);
        report->Info("prepare %-8s %.2f us", kKindNames[k], us);
        prepare_us += us;
        ++prepared;
        break;
      }
    }
    report->Set("sql.prepare_us", prepared > 0 ? prepare_us / prepared : 0);
  }

  const int64_t wrong = CheckWithOracle(args.seed, queries, answers, report);
  report->AddFailures(wrong);
  if (wrong > 0) report->Fail("answers differ from the relational engine");
  return report->Finish(args, tracer);
}

}  // namespace histbench
