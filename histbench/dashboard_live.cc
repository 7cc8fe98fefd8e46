// dashboard_live: reads beside writes, over the wire.
//   - Writer: one thread feeds TD-shaped sources (200 accounts at 20 Hz of
//     stream time) open loop at 150k records/s of wall time in batches of
//     1000, with ingest_steady's flush and compaction cadences.
//   - Reader: one net::Client connection to an in-process HistorianServer
//     runs a closed loop of prepared statements: the last 10 s of one
//     source, COUNT/AVG/MAX over its last minute, and its latest value.
//     Sources are drawn Zipf(1.1) toward a hot set; every window ends at the
//     writer's last completed FlushAll.
// Everything fits: the live data (120 s of retention) sits in the 32 MiB
// pool and the queried working set in the 64 MiB blob cache. Per-query
// fixed costs dominate here: wire, session, plan, SQL-metadata router, VTI
// assembly and the dirty-buffer merge.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "common/logging.h"
#include "core/value_blob.h"
#include "net/client.h"
#include "net/server.h"
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
constexpr Timestamp kSegmentSpan = 20 * kSec;
constexpr Cadence kCadence{2 * kSec, 20 * kSec};
constexpr Timestamp kRetention = 120 * kSec;
constexpr Timestamp kPreloadSpan = 120 * kSec;
constexpr int64_t kAccounts = 200;
constexpr double kAccountHz = 20;
constexpr size_t kBatch = 1000;
/// Offered ingest rate, records per wall second (about a quarter of
/// ingest_steady's closed-loop rate on a 4-core x86 VM).
constexpr double kOfferedRecordsPerSecond = 150000;
constexpr int kWarmupQueries = 400;
/// One query in this many has its answer recomputed from the generator.
constexpr int kCheckEvery = 8;

enum Template { kWindow = 0, kAggregate = 1, kLatest = 2 };
const char* const kTemplateNames[] = {"window_10s", "agg_1min", "latest"};
const char* const kTemplateSql[] = {
    "SELECT ts, t_trade_price, t_chrg FROM TD_v WHERE id = ? AND ts "
    "BETWEEN ? AND ?",
    "SELECT COUNT(*), AVG(t_trade_price), MAX(t_trade_price) FROM TD_v "
    "WHERE id = ? AND ts BETWEEN ? AND ?",
    "SELECT ts, t_trade_price FROM TD_v WHERE id = ? AND ts <= ? ORDER BY "
    "ts DESC LIMIT 1",
};

OdhOptions Options() {
  OdhOptions options;
  options.segment_span = kSegmentSpan;
  options.blob_cache_bytes = 64 << 20;
  options.query_parallelism = 0;  // Keeps the workload at three threads.
  return options;
}

odh::benchfw::TdConfig TdStream(uint64_t seed) {
  odh::benchfw::TdConfig td;
  td.num_accounts = kAccounts;
  td.per_account_hz = kAccountHz;
  td.duration_seconds = 1e6;
  td.seed = seed * 7919 + 3;
  td.first_source_id = 1;
  return td;
}

/// Zipf(s) over the accounts, hot ranks mapped to a seeded permutation.
class ZipfSources {
 public:
  ZipfSources(int64_t n, double s, uint64_t seed) : ids_(n), cdf_(n) {
    double total = 0;
    for (int64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
      ids_[i] = 1 + i;
    }
    for (double& c : cdf_) c /= total;
    odh::Random rng(seed ^ 0x5eed);
    for (int64_t i = n - 1; i > 0; --i) {
      std::swap(ids_[i], ids_[rng.Uniform(static_cast<uint64_t>(i + 1))]);
    }
  }
  SourceId Draw(odh::Random* rng) const {
    const double u = rng->NextDouble();
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return ids_[std::min(i, ids_.size() - 1)];
  }

 private:
  std::vector<SourceId> ids_;
  std::vector<double> cdf_;
};

struct Query {
  Template tmpl = kWindow;
  SourceId id = 0;
  Timestamp lo = 0;
  Timestamp hi = 0;

  std::vector<Datum> Params() const {
    if (tmpl == kLatest) return {Datum::Int64(id), Datum::Time(hi)};
    return {Datum::Int64(id), Datum::Time(lo), Datum::Time(hi)};
  }
};

/// Draws the next dashboard query. `acked` is the boundary of the last
/// completed FlushAll: a window ending just below it reads only flushed
/// data. (Windows ending at the raw ingest watermark can race a concurrent
/// FlushAll and miss the rows of a blob in flight between the writer's
/// buffers and the store, so they cannot be checked exactly.)
Query DrawQuery(odh::Random* rng, const ZipfSources& zipf, Timestamp acked) {
  Query q;
  const uint64_t pick = rng->Uniform(10);
  q.tmpl = pick < 4 ? kWindow : pick < 8 ? kAggregate : kLatest;
  q.id = zipf.Draw(rng);
  q.hi = acked - 1;
  q.lo = q.hi - (q.tmpl == kAggregate ? 60 * kSec : 10 * kSec);
  return q;
}

struct Instance {
  std::unique_ptr<OdhSystem> odh;
  std::unique_ptr<odh::benchfw::TdGenerator> stream;
  std::unique_ptr<Feeder> feeder;
  std::unique_ptr<odh::net::HistorianServer> server;
  std::unique_ptr<odh::net::Client> client;
  std::vector<odh::net::ClientStatement> statements;
  int td_type = -1;
};

/// Pulls the next batch of TD records from the generator.
void NextBatch(odh::benchfw::TdGenerator* stream,
               std::vector<TypedRecord>* batch) {
  batch->resize(kBatch);
  for (TypedRecord& r : *batch) stream->Next(&r.rec);
}

odh::Result<Instance> SetUp(uint64_t seed, Tracer* tracer,
                            const ZipfSources& zipf,
                            std::map<std::string, int64_t>* exact) {
  Instance in;
  in.odh = std::make_unique<OdhSystem>(Options());
  in.stream = std::make_unique<odh::benchfw::TdGenerator>(TdStream(seed));
  ODH_ASSIGN_OR_RETURN(in.td_type,
                       DefineStream(in.odh.get(), in.stream->info()));
  ODH_RETURN_IF_ERROR(in.odh->SetRetention(in.td_type, kRetention).status());
  ODH_RETURN_IF_ERROR(in.odh->FlushAll());
  in.feeder = std::make_unique<Feeder>(
      in.odh.get(), std::vector<int>{in.td_type}, kCadence, kSegmentSpan,
      tracer);
  std::vector<TypedRecord> batch;
  while (in.feeder->watermark() < kPreloadSpan) {
    NextBatch(in.stream.get(), &batch);
    ODH_RETURN_IF_ERROR(in.feeder->IngestBatch(batch, -1, -1));
  }
  ODH_RETURN_IF_ERROR(in.odh->database()->pool()->FlushAll());
  const Counters loaded = Counters::Read(in.odh.get());
  (*exact)["load.storage_bytes"] =
      static_cast<int64_t>(in.odh->storage_bytes());
  (*exact)["load.disk_bytes_written"] =
      static_cast<int64_t>(loaded.bytes_written);
  (*exact)["load.wal_synced_bytes"] =
      static_cast<int64_t>(loaded.wal_synced_bytes);
  (*exact)["load.values"] = in.feeder->values_acked();
  (*exact)["load.records"] = in.feeder->records_acked();

  odh::net::ServerOptions server_options;
  server_options.max_sessions = 2;
  in.server = std::make_unique<odh::net::HistorianServer>(
      in.odh->engine(), server_options, in.odh->metrics());
  ODH_ASSIGN_OR_RETURN(int port, in.server->Start());
  ODH_ASSIGN_OR_RETURN(in.client, odh::net::Client::Connect("127.0.0.1", port));
  for (const char* sql : kTemplateSql) {
    ODH_ASSIGN_OR_RETURN(odh::net::ClientStatement stmt,
                         in.client->Prepare(sql));
    in.statements.push_back(stmt);
  }
  // Warm the pool and the blob cache with a fixed query sequence while
  // the writer is idle: its counters are exact for the seed.
  odh::Random rng(seed * 104729 + 11);
  const Counters before = Counters::Read(in.odh.get());
  for (int i = 0; i < kWarmupQueries; ++i) {
    const Query q = DrawQuery(&rng, zipf, in.feeder->acked_before());
    ODH_RETURN_IF_ERROR(
        in.client->Execute(in.statements[q.tmpl], q.Params()).status());
  }
  const Counters warm = Counters::Read(in.odh.get()).Minus(before);
  (*exact)["warmup.page_reads"] = static_cast<int64_t>(warm.page_reads);
  (*exact)["warmup.blobs_decoded"] = warm.blobs_decoded;
  (*exact)["warmup.blobs_pruned"] = warm.blobs_pruned;
  (*exact)["warmup.blobs_skipped_by_summary"] = warm.blobs_skipped_by_summary;
  (*exact)["warmup.router_lookups"] = warm.router_lookups;
  (*exact)["warmup.blob_cache_hits"] = warm.cache_hits;
  return in;
}

/// A sampled answer, recomputed from the generator after the run.
struct Sample {
  Query query;
  std::vector<Row> rows;
};

/// Expected answer of `q` from the records of its source (ts order).
std::vector<Row> Expected(const Query& q,
                          const std::vector<OperationalRecord>& records) {
  std::vector<Row> rows;
  if (q.tmpl == kWindow) {
    for (const OperationalRecord& r : records) {
      if (r.ts >= q.lo && r.ts <= q.hi) {
        rows.push_back({Datum::Time(r.ts), Datum::Double(r.tags[0]),
                        Datum::Double(r.tags[1])});
      }
    }
  } else if (q.tmpl == kAggregate) {
    int64_t n = 0;
    double sum = 0, max = 0;
    for (const OperationalRecord& r : records) {
      if (r.ts < q.lo || r.ts > q.hi) continue;
      max = n == 0 ? r.tags[0] : std::max(max, r.tags[0]);
      sum += r.tags[0];
      ++n;
    }
    rows.push_back({Datum::Int64(n),
                    n > 0 ? Datum::Double(sum / n) : Datum::Null(),
                    n > 0 ? Datum::Double(max) : Datum::Null()});
  } else {
    const OperationalRecord* last = nullptr;
    for (const OperationalRecord& r : records) {
      if (r.ts <= q.hi) last = &r;
    }
    if (last != nullptr) {
      rows.push_back({Datum::Time(last->ts), Datum::Double(last->tags[0])});
    }
  }
  return rows;
}

/// Regenerates the TD stream up to the newest sampled query and checks
/// every sampled answer. Returns the number of wrong answers.
int64_t CheckSamples(uint64_t seed, const std::vector<Sample>& samples,
                     Report* report) {
  Timestamp newest = 0;
  std::map<SourceId, std::vector<OperationalRecord>> by_source;
  for (const Sample& s : samples) {
    newest = std::max(newest, s.query.hi);
    by_source[s.query.id];
  }
  odh::benchfw::TdGenerator stream(TdStream(seed));
  OperationalRecord rec;
  while (stream.Next(&rec) && rec.ts <= newest) {
    auto it = by_source.find(rec.id);
    if (it != by_source.end()) it->second.push_back(rec);
  }
  int64_t wrong = 0;
  for (const Sample& s : samples) {
    const std::vector<Row> want = Expected(s.query, by_source[s.query.id]);
    bool ok = want.size() == s.rows.size();
    if (ok && s.query.tmpl == kWindow) {
      ok = RowsetDigest(want) == RowsetDigest(s.rows);
    } else {
      for (size_t i = 0; ok && i < want.size(); ++i) {
        ok = RowsClose(want[i], s.rows[i]);
      }
    }
    if (!ok) {
      ++wrong;
      if (wrong <= 3) {
        report->Info("wrong answer: %s id=%lld [%lld, %lld]: %zu rows, "
                     "expected %zu",
                     kTemplateNames[s.query.tmpl],
                     static_cast<long long>(s.query.id),
                     static_cast<long long>(s.query.lo),
                     static_cast<long long>(s.query.hi), s.rows.size(),
                     want.size());
      }
    }
  }
  return wrong;
}

/// Open-loop writer: batch i is due at start + i * period; its latency runs
/// from when it was due, so a stall shows up in the batches behind it.
class Writer {
 public:
  Writer(Feeder* feeder, odh::benchfw::TdGenerator* stream)
      : feeder_(feeder), stream_(stream) {}

  void Run(int64_t start_ns, int64_t end_ns) {
    const double period_ns = kBatch / kOfferedRecordsPerSecond * 1e9;
    std::vector<TypedRecord> batch;
    for (int64_t i = 0;; ++i) {
      const int64_t due = start_ns + static_cast<int64_t>(i * period_ns);
      if (due >= end_ns || stop_.load(std::memory_order_relaxed)) break;
      NextBatch(stream_, &batch);
      int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      lateness_ms_.Add(static_cast<double>(now - due) / 1e6);
      const Status s = feeder_->IngestBatch(batch, -1, -1);
      latency_ms_.Add(static_cast<double>(NowNs() - due) / 1e6);
      if (!s.ok()) {
        status_ = s;
        break;
      }
      ++batches_;
      acked_.store(feeder_->acked_before(), std::memory_order_release);
    }
  }
  void Stop() { stop_.store(true); }

  /// Every record stamped before this stream time is flushed.
  Timestamp acked() const { return acked_.load(std::memory_order_acquire); }
  void set_acked(Timestamp t) { acked_.store(t); }
  // Read after the thread is joined.
  const Samples& lateness_ms() const { return lateness_ms_; }
  const Samples& latency_ms() const { return latency_ms_; }
  int64_t batches() const { return batches_; }
  const Status& status() const { return status_; }

 private:
  Feeder* feeder_;
  odh::benchfw::TdGenerator* stream_;
  std::atomic<bool> stop_{false};
  std::atomic<Timestamp> acked_{0};
  Samples lateness_ms_, latency_ms_;
  int64_t batches_ = 0;
  Status status_;
};

/// The scan a dashboard query asks for, for the layer replays.
ScanSpec ScanOf(const Query& q, int td_type) {
  ScanSpec scan;
  scan.schema_type = td_type;
  scan.id = q.id;
  scan.lo = q.tmpl == kLatest ? odh::kMinTimestamp : q.lo;
  scan.hi = q.hi;
  scan.tags = q.tmpl == kWindow ? std::vector<int>{0, 1} : std::vector<int>{0};
  scan.num_tags = odh::benchfw::TdGenerator::kNumTags;
  scan.aggregate = q.tmpl == kAggregate;
  return scan;
}

}  // namespace

int RunDashboardLive(const Args& args, Report* report) {
  // The client and the server's session thread never run at the same time
  // (closed loop), so they share one CPU and hand off without cross-CPU
  // wake-ups; the server's threads inherit this pin. In the measured phase
  // a CpuRotation moves them together over the CPUs and keeps the writer
  // one CPU ahead of them.
  PinThisThread(0);
  Tracer tracer(args.trace);
  Tracer off(false);
  const ZipfSources zipf(kAccounts, 1.1, args.seed);
  std::map<std::string, int64_t> first_exact;
  auto made = RepeatSetUp<Instance>(
      [&](std::map<std::string, int64_t>* exact) {
        return SetUp(args.seed, &off, zipf, exact);
      },
      &first_exact, report);
  if (!made.ok()) {
    report->Fail("set-up: " + made.status().ToString());
    return report->Finish(args, tracer);
  }
  Instance in = std::move(*made);
  SetLoadMetrics(first_exact, report);
  report->Info("set-up prefix: preload %lld records",
               static_cast<long long>(first_exact["load.records"]));

  const double crc_rate = CalibrateCrcBytesPerUs();
  odh::common::MetricsRegistry* m = in.odh->metrics();
  odh::common::Counter* frames = m->GetCounter("net.frames_sent");
  odh::common::Histogram* request_us = m->GetHistogram("net.request_micros");
  Writer writer(in.feeder.get(), in.stream.get());
  writer.set_acked(in.feeder->acked_before());
  const int64_t values_before = in.feeder->values_ingested();
  odh::Random rng(args.seed * 7 + 5);
  odh::Random sample_rng(args.seed * 13 + 1);
  PhaseStats untraced, traced;
  std::vector<Samples> template_ms(std::size(kTemplateSql));
  LayerTotals layers;
  ReplayTotals replay;
  double wire_us = 0, plan_us = 0, server_total_us = 0;
  int64_t frames_total = 0, rows_scanned = 0, rows_returned = 0;
  int64_t mem_peak = 0, spill_bytes = 0, profiled = 0;
  std::vector<Sample> samples;
  CpuRotation rotation;
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t phase_start = NowNs();
  const int64_t phase_end =
      phase_start + static_cast<int64_t>(args.seconds * 1e9);
  std::atomic<int> writer_tid{-1};
  std::thread writer_thread([&writer, &writer_tid, phase_start, phase_end] {
    writer_tid.store(ThisThreadId());
    writer.Run(phase_start, phase_end);
  });
  while (writer_tid.load() < 0) std::this_thread::yield();
  rotation.SetLane(writer_tid.load(), 1);
  for (int64_t op = 0; NowNs() < phase_end; ++op) {
    rotation.Tick();
    const bool tracing = InTracedWindow(args.trace, phase_start);
    const Query q = DrawQuery(&rng, zipf, writer.acked());
    Counters before;
    int64_t frames0 = 0, req_count0 = 0, req_sum0 = 0;
    if (tracing) {
      before = Counters::Read(in.odh.get());
      frames0 = frames->value();
      req_count0 = request_us->count();
      req_sum0 = request_us->sum();
    }
    const int64_t cpu_op0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    odh::Result<odh::net::ClientResult> result = Status::OK();
    {
      ScopedSpan span(tracing ? &tracer : &off, kTemplateNames[q.tmpl], op);
      result = in.client->Execute(in.statements[q.tmpl], q.Params());
    }
    const int64_t op_ns = NowNs() - t0;
    const int64_t op_cpu = ProcessCpuNs() - cpu_op0;
    report->Attempt(result.ok());
    if (!result.ok()) {
      report->Fail("query: " + result.status().ToString());
      break;
    }
    const int64_t dp = NonNullValues(result->rows);
    (tracing ? traced : untraced).Add(op_ns, dp, op_cpu);
    template_ms[q.tmpl].Add(static_cast<double>(op_ns) / 1e6);
    if (sample_rng.Uniform(kCheckEvery) == 0) {
      samples.push_back({q, std::move(result->rows)});
    }
    if (!tracing) continue;
    layers.AddDelta(Counters::Read(in.odh.get()).Minus(before));
    const int64_t req_n = request_us->count() - req_count0;
    const double server_us =
        req_n > 0 ? static_cast<double>(request_us->sum() - req_sum0) / req_n
                  : 0;
    wire_us += static_cast<double>(op_ns) / 1e3 - server_us;
    server_total_us += result->done.total_micros;
    plan_us += result->done.plan_micros;
    frames_total += frames->value() - frames0;
    if (op % 4 != 0) continue;
    // Sampled ops: the server-side profile (the newest entry of the
    // engine's statement ring is this op's) and the layer replays.
    const std::vector<odh::sql::QueryProfile> recent =
        in.odh->engine()->RecentQueries();
    if (!recent.empty()) {
      ++profiled;
      rows_scanned += recent.back().rows_scanned;
      rows_returned += recent.back().rows_returned;
      mem_peak += recent.back().mem_peak_bytes;
      spill_bytes += recent.back().spill_bytes;
    }
    ReplayScan(in.odh.get(), ScanOf(q, in.td_type), op, &tracer, &replay);
  }
  writer.Stop();
  writer_thread.join();
  const double phase_s = static_cast<double>(NowNs() - phase_start) / 1e9;
  const int64_t cpu_ns = ProcessCpuNs() - cpu0;
  const double peak_rss = PeakRssMb();
  if (!writer.status().ok()) {
    report->Attempt(false);
    report->Fail("writer: " + writer.status().ToString());
  }
  const int64_t values_ingested = in.feeder->values_ingested() - values_before;
  const PhaseStats& main_stats = untraced;
  report->Info("writer: %lld batches in %.2f s (%.0f records/s offered, "
               "%.0f achieved); lateness p50 %.4f ms p99 %.4f ms; batch "
               "latency from due time p99 %.4f ms",
               static_cast<long long>(writer.batches()), phase_s,
               kOfferedRecordsPerSecond,
               writer.batches() * kBatch / phase_s,
               writer.lateness_ms().Quantile(0.5),
               writer.lateness_ms().Quantile(0.99),
               writer.latency_ms().Quantile(0.99));
  report->Info("dashboard: %zu untraced ops, %zu traced ops",
               untraced.op_ms.size(), traced.op_ms.size());
  for (size_t k = 0; k < template_ms.size(); ++k) {
    report->Info("  %-10s %6zu ops  p50 %8.4f ms  p99 %8.4f ms",
                 kTemplateNames[k], template_ms[k].size(),
                 template_ms[k].Quantile(0.5), template_ms[k].Quantile(0.99));
  }
  report->Set("dp_per_s", main_stats.DpPerS());
  SetLatencyMetrics(main_stats.op_ms, report, !args.trace);
  report->Set("cpu_ns_per_dp",
              static_cast<double>(cpu_ns) /
                  static_cast<double>(values_ingested + untraced.dp +
                                      traced.dp));
  report->Set("peak_rss_mb", peak_rss);
  report->Set("ingest.lateness_p99_ms", writer.lateness_ms().Quantile(0.99));

  const int64_t wrong = CheckSamples(args.seed, samples, report);
  report->AddFailures(wrong);
  report->Info("answers: %zu sampled, %lld wrong", samples.size(),
               static_cast<long long>(wrong));
  if (wrong > 0) report->Fail("dashboard answers differ from the generator");

  if (args.trace) {
    const double n = static_cast<double>(std::max<int64_t>(layers.ops, 1));
    SetLayerMetrics(layers, 0, crc_rate, report);
    SetOverheadMetrics(untraced, traced, report);
    report->Set("net.wire_us_per_op", wire_us / n);
    report->Set("net.frames_per_op", frames_total / n);
    report->Set("sql.plan_us_per_op", plan_us / n);
    const double rn = static_cast<double>(std::max<int64_t>(replay.ops, 1));
    report->Set("sql.exec_us_per_op",
                std::max(0.0, (server_total_us - plan_us) / n -
                                  replay.reader_us / rn));
    report->Set("sql.rows_scanned_per_row_returned",
                rows_returned > 0
                    ? static_cast<double>(rows_scanned) / rows_returned
                    : 0);
    const double pn = static_cast<double>(std::max<int64_t>(profiled, 1));
    report->Set("sql.mem_peak_bytes_per_op", mem_peak / pn);
    report->Set("sql.spill_bytes_per_op", spill_bytes / pn);
    SetReplayMetrics(replay, report);
    double prepare_us = 0;
    for (const char* sql : kTemplateSql) {
      odh::sql::Session fresh(in.odh->engine());
      const int64_t t0 = NowNs();
      ODH_CHECK_OK(fresh.Prepare(sql).status());
      prepare_us += static_cast<double>(NowNs() - t0) / 1e3;
    }
    report->Set("sql.prepare_us", prepare_us / std::size(kTemplateSql));
  }
  in.client->Close();
  in.server->Stop();
  return report->Finish(args, tracer);
}

}  // namespace histbench
