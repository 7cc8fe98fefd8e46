#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/logging.h"
#include "storage/checksum.h"

namespace histbench {

using odh::Datum;
using odh::Row;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MicrosSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

namespace {

/// The CPUs the process may run on, read once before the first pin.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return out;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
    }
    return out;
  }();
  return cpus;
}

void PinThread(int tid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(tid, sizeof(one), &one);
}

}  // namespace

void PinThisThread(int index) {
  const std::vector<int>& cpus = AllowedCpus();
  if (index < static_cast<int>(cpus.size())) PinThread(0, cpus[index]);
}

int ThisThreadId() { return static_cast<int>(syscall(SYS_gettid)); }

std::vector<int> ProcessThreadIds() {
  std::vector<int> tids;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.push_back(std::atoi(task.path().filename().c_str()));
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

CpuRotation::CpuRotation() : cpus_(AllowedCpus()) { Apply(); }

void CpuRotation::SetLane(int tid, int lane) {
  lanes_[tid] = lane;
  Apply();
}

void CpuRotation::Tick() {
  if (NowNs() - last_move_ns_ < 1000000000) return;
  ++step_;
  Apply();
}

void CpuRotation::Apply() {
  last_move_ns_ = NowNs();
  const int64_t n = static_cast<int64_t>(cpus_.size());
  if (n < 2) return;
  for (const int tid : ProcessThreadIds()) {
    const auto it = lanes_.find(tid);
    const int lane = it == lanes_.end() ? 0 : it->second;
    PinThread(tid, cpus_[(step_ + lane) % n]);
  }
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

size_t Samples::CountAbove(double q) const {
  const double cut = Quantile(q);
  return static_cast<size_t>(
      std::count_if(values_.begin(), values_.end(),
                    [cut](double x) { return x > cut; }));
}

int Tracer::Begin(const char* name, int64_t op, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, op, parent, NowNs(), 0});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

odh::Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return odh::Status::IoError("cannot open " + path);
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"op\":" << s.op
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns - t0
        << ",\"end_ns\":" << s.end_ns - t0 << "}\n";
  }
  return out ? odh::Status::OK() : odh::Status::IoError("write " + path);
}

void Tracer::PrintSummary() const {
  if (!enabled_) return;
  // Children of a span run inside its interval (they are opened and closed
  // while it is open), so self time is duration minus the children's sum.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Row {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    const int64_t d = spans_[i].end_ns - spans_[i].start_ns;
    ++r.count;
    r.total_ns += d;
    r.self_ns += d - child_ns[i];
  }
  std::printf("spans: %zu recorded\n", spans_.size());
  for (const auto& [name, r] : rows) {
    std::printf("  span %-28s count %8lld  total %10.3f ms  self %10.3f ms\n",
                name.c_str(), static_cast<long long>(r.count),
                static_cast<double>(r.total_ns) / 1e6,
                static_cast<double>(r.self_ns) / 1e6);
  }
}

namespace {

/// Every Counters field, so deltas and sums cannot miss one.
constexpr int64_t Counters::*kCounterFields[] = {
    &Counters::pool_hits,        &Counters::pool_misses,
    &Counters::pool_evictions,   &Counters::crc_stamps,
    &Counters::crc_verifies,     &Counters::page_reads,
    &Counters::bytes_written,    &Counters::blobs_decoded,
    &Counters::blobs_pruned,     &Counters::blobs_skipped_by_summary,
    &Counters::segments_pruned,  &Counters::parallel_tasks,
    &Counters::merge_stalls,     &Counters::blobs_examined,
    &Counters::router_lookups,   &Counters::cache_hits,
    &Counters::cache_misses,     &Counters::points_ingested,
    &Counters::blobs_written,    &Counters::blob_bytes,
    &Counters::wal_synced_bytes, &Counters::flush_count,
    &Counters::flush_sum_us,
};

}  // namespace

Counters Counters::Read(odh::core::OdhSystem* odh) {
  Counters c;
  odh::storage::BufferPool* pool = odh->database()->pool();
  c.pool_hits = static_cast<int64_t>(pool->hit_count());
  c.pool_misses = static_cast<int64_t>(pool->miss_count());
  c.pool_evictions = static_cast<int64_t>(pool->eviction_count());
  c.crc_stamps = static_cast<int64_t>(pool->checksum_stamp_count());
  c.crc_verifies = static_cast<int64_t>(pool->checksum_verify_count());
  const odh::storage::IoStats io = odh->io_stats();
  c.page_reads = static_cast<int64_t>(io.page_reads);
  c.bytes_written = static_cast<int64_t>(io.bytes_written);
  const odh::core::ReadStats rs = odh->reader()->stats();
  c.blobs_decoded = rs.blobs_decoded;
  c.blobs_pruned = rs.blobs_pruned;
  c.blobs_skipped_by_summary = rs.blobs_skipped_by_summary;
  c.segments_pruned = rs.segments_pruned;
  c.parallel_tasks = rs.parallel_tasks;
  c.merge_stalls = rs.merge_stalls;
  c.blobs_examined = odh->store()->blobs_examined();
  c.router_lookups = odh->router()->lookups();
  if (odh->blob_cache() != nullptr) {
    const odh::core::BlobCacheStats bc = odh->blob_cache()->stats();
    c.cache_hits = bc.hits;
    c.cache_misses = bc.misses;
  }
  const odh::core::WriterStats ws = odh->writer()->stats();
  c.points_ingested = ws.points_ingested;
  c.blobs_written = ws.rts_blobs + ws.irts_blobs + ws.mg_blobs;
  c.blob_bytes = ws.blob_bytes;
  if (const odh::core::Wal* wal = odh->store()->wal()) {
    c.wal_synced_bytes = static_cast<int64_t>(wal->synced_bytes());
  }
  const odh::common::Histogram* flush =
      odh->metrics()->GetHistogram("odh.writer.flush_micros");
  c.flush_count = flush->count();
  c.flush_sum_us = flush->sum();
  return c;
}

Counters Counters::Minus(const Counters& base) const {
  Counters d;
  for (auto field : kCounterFields) d.*field = this->*field - base.*field;
  return d;
}

void Counters::Add(const Counters& delta) {
  for (auto field : kCounterFields) this->*field += delta.*field;
}

void Report::Info(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::printf("CHECK FAILED: %s\n", why.c_str());
}

int Report::Finish(const Args& args, const Tracer& tracer) {
  if (args.trace) {
    tracer.PrintSummary();
    if (!args.trace_out.empty()) {
      const odh::Status s = tracer.Write(args.trace_out);
      if (!s.ok()) Fail("span file: " + s.ToString());
    }
  }
  const std::vector<MetricDecl>& decls =
      args.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::printf("EXACT {");
  bool first = true;
  for (const auto& [name, value] : exact_) {
    std::printf("%s\"%s\": %lld", first ? "" : ", ", name.c_str(),
                static_cast<long long>(value));
    first = false;
  }
  std::printf("}\n");
  const double error_ratio =
      attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;
  std::printf("op_error_ratio %.6f ratio (%lld of %lld ops)\n", error_ratio,
              static_cast<long long>(failed_),
              static_cast<long long>(attempted_));
  for (const MetricDecl& d : decls) {
    auto it = metrics_.find(d.name);
    if (it == metrics_.end()) {
      if (!args.trace) Fail(std::string("metric ") + d.name + " not measured");
      metrics_[d.name] = 0;  // A layer this workload does not exercise.
    } else if (!std::isfinite(it->second)) {
      Fail(std::string("metric ") + d.name + " is not finite");
      it->second = 0;
    }
    std::printf("metric %-44s %16.6f %s\n", d.name, metrics_[d.name], d.unit);
  }
  const bool ok = correct_ && failed_ == 0 && attempted_ > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              ok ? "true" : "false", static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  first = true;
  for (const MetricDecl& d : decls) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", d.name, metrics_[d.name], d.unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return ok ? 0 : 1;
}

const std::vector<MetricDecl>& EndToEndMetrics() {
  static const std::vector<MetricDecl> decls = {
      {"setup_s", "s"},
      {"dp_per_s", "dp/s"},
      {"op_p50_ms", "ms"},
      {"op_p99_ms", "ms"},
      {"cpu_ns_per_dp", "ns"},
      {"storage_bytes_per_dp", "B"},
      {"write_amp", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return decls;
}

const std::vector<MetricDecl>& PerLayerMetrics() {
  static const std::vector<MetricDecl> decls = {
      {"net.wire_us_per_op", "us"},
      {"net.frames_per_op", "count"},
      {"sql.prepare_us", "us"},
      {"sql.plan_us_per_op", "us"},
      {"sql.exec_us_per_op", "us"},
      {"sql.rows_scanned_per_row_returned", "ratio"},
      {"sql.mem_peak_bytes_per_op", "B"},
      {"sql.spill_bytes_per_op", "B"},
      {"core.router.lookups_per_op", "count"},
      {"core.router.us_per_lookup", "us"},
      {"core.reader.us_per_op", "us"},
      {"core.reader.blobs_decoded_per_op", "count"},
      {"core.reader.blobs_pruned_per_op", "count"},
      {"core.reader.blobs_skipped_by_summary_per_op", "count"},
      {"core.reader.segments_pruned_per_op", "count"},
      {"core.reader.parallel_tasks_per_op", "count"},
      {"core.reader.merge_stalls_per_op", "count"},
      {"core.store.fetch_us_per_op", "us"},
      {"core.store.blobs_examined_per_op", "count"},
      {"core.store.put_us_per_blob", "us"},
      {"core.value_blob.decode_ns_per_dp", "ns"},
      {"core.value_blob.encode_ns_per_dp", "ns"},
      {"core.value_blob.bytes_per_dp", "B"},
      {"core.blob_cache.hit_ratio", "ratio"},
      {"core.writer.ingest_ns_per_record", "ns"},
      {"core.writer.flush_us_p99", "us"},
      {"core.writer.points_per_blob", "count"},
      {"core.wal.sync_us_p50", "us"},
      {"core.wal.sync_us_p99", "us"},
      {"core.wal.bytes_per_dp", "B"},
      {"core.compactor.ms_per_cycle", "ms"},
      {"core.compactor.bytes_rewritten_per_dp", "B"},
      {"storage.buffer_pool.hit_ratio", "ratio"},
      {"storage.buffer_pool.misses_per_op", "count"},
      {"storage.buffer_pool.evictions_per_op", "count"},
      {"storage.checksum.crc_us_per_op", "us"},
      {"storage.sim_disk.page_reads_per_op", "count"},
      {"storage.sim_disk.bytes_written_per_dp", "B"},
      {"replay.buffer_pool.hit_ratio", "ratio"},
      {"replay.blob_cache.hit_ratio", "ratio"},
      {"ingest.lateness_p99_ms", "ms"},
      {"trace.overhead_dp_per_s_pct", "%"},
      {"trace.overhead_op_p50_pct", "%"},
  };
  return decls;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void SetLoadMetrics(const std::map<std::string, int64_t>& exact,
                    Report* report) {
  const double values = static_cast<double>(exact.at("load.values"));
  const double raw_bytes =
      8.0 * values + 16.0 * static_cast<double>(exact.at("load.records"));
  report->Set("storage_bytes_per_dp",
              static_cast<double>(exact.at("load.storage_bytes")) / values);
  report->Set("write_amp",
              static_cast<double>(exact.at("load.disk_bytes_written")) /
                  raw_bytes);
}

void SetLayerMetrics(const LayerTotals& t, double values,
                     double crc_bytes_per_us, Report* report) {
  const Counters& s = t.sum;
  const double ops = static_cast<double>(t.ops);
  const double page = odh::storage::SimDisk::kDefaultPageSize;
  report->Set("storage.buffer_pool.hit_ratio",
              Ratio(s.pool_hits, s.pool_hits + s.pool_misses));
  report->Set("storage.buffer_pool.misses_per_op", Ratio(s.pool_misses, ops));
  report->Set("storage.buffer_pool.evictions_per_op",
              Ratio(s.pool_evictions, ops));
  report->Set("storage.checksum.crc_us_per_op",
              Ratio((s.crc_stamps + s.crc_verifies) * page / crc_bytes_per_us,
                    ops));
  report->Set("storage.sim_disk.page_reads_per_op", Ratio(s.page_reads, ops));
  report->Set("storage.sim_disk.bytes_written_per_dp",
              Ratio(s.bytes_written, values));
  report->Set("core.reader.blobs_decoded_per_op", Ratio(s.blobs_decoded, ops));
  report->Set("core.reader.blobs_pruned_per_op", Ratio(s.blobs_pruned, ops));
  report->Set("core.reader.blobs_skipped_by_summary_per_op",
              Ratio(s.blobs_skipped_by_summary, ops));
  report->Set("core.reader.segments_pruned_per_op",
              Ratio(s.segments_pruned, ops));
  report->Set("core.reader.parallel_tasks_per_op",
              Ratio(s.parallel_tasks, ops));
  report->Set("core.reader.merge_stalls_per_op", Ratio(s.merge_stalls, ops));
  report->Set("core.store.blobs_examined_per_op",
              Ratio(s.blobs_examined, ops));
  report->Set("core.router.lookups_per_op", Ratio(s.router_lookups, ops));
  report->Set("core.blob_cache.hit_ratio",
              Ratio(s.cache_hits, s.cache_hits + s.cache_misses));
  report->Set("core.value_blob.bytes_per_dp",
              Ratio(s.blob_bytes, s.points_ingested));
  report->Set("core.writer.points_per_blob",
              Ratio(s.points_ingested, s.blobs_written));
  report->Set("core.wal.bytes_per_dp", Ratio(s.wal_synced_bytes, values));
}

bool InTracedWindow(bool trace, int64_t phase_start_ns) {
  constexpr int64_t kWindowNs = 500'000'000;
  return trace && ((NowNs() - phase_start_ns) / kWindowNs) % 2 == 1;
}

void SetOverheadMetrics(const PhaseStats& untraced, const PhaseStats& traced,
                        Report* report) {
  const double dp_u = untraced.DpPerS(), dp_t = traced.DpPerS();
  const double p50_u = untraced.op_ms.Quantile(0.5);
  const double p50_t = traced.op_ms.Quantile(0.5);
  report->Info("tracing overhead: dp/s %.0f untraced vs %.0f traced; "
               "op p50 %.4f ms untraced vs %.4f ms traced",
               dp_u, dp_t, p50_u, p50_t);
  report->Set("trace.overhead_dp_per_s_pct",
              dp_u > 0 ? (dp_u - dp_t) / dp_u * 100 : 0);
  report->Set("trace.overhead_op_p50_pct",
              p50_u > 0 ? (p50_t - p50_u) / p50_u * 100 : 0);
}

void SetLatencyMetrics(const Samples& op_ms, Report* report, bool enforce) {
  report->Set("op_p50_ms", op_ms.Quantile(0.5));
  report->Set("op_p99_ms", op_ms.Quantile(0.99));
  report->Info("op latency: %zu samples, p50 %.4f ms, p99 %.4f ms with %zu "
               "samples beyond it",
               op_ms.size(), op_ms.Quantile(0.5), op_ms.Quantile(0.99),
               op_ms.CountAbove(0.99));
  if (enforce && op_ms.CountAbove(0.99) < 10) {
    report->Fail("fewer than 10 samples beyond p99");
  }
}

namespace {

void Drain(odh::Result<std::unique_ptr<odh::core::RecordBatchCursor>> cursor) {
  ODH_CHECK_OK(cursor.status());
  odh::core::RecordBatch batch;
  while (true) {
    auto more = (*cursor)->Next(&batch);
    ODH_CHECK_OK(more.status());
    if (!*more) break;
  }
}

}  // namespace

void ReplayScan(odh::core::OdhSystem* odh, const ScanSpec& scan, int64_t op,
                Tracer* tracer, ReplayTotals* t) {
  const bool slice = scan.id < 0;
  const Counters before = Counters::Read(odh);
  int64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, "replay.core.router", op);
    ODH_CHECK_OK(slice ? odh->router()->RouteSlice(scan.schema_type).status()
                       : odh->router()
                             ->RouteHistorical(scan.schema_type, scan.id)
                             .status());
  }
  t->router_us += MicrosSince(t0);
  odh::core::OdhReader* reader = odh->reader();
  t0 = NowNs();
  {
    ScopedSpan span(tracer, "replay.core.reader", op);
    if (scan.aggregate) {
      ODH_CHECK_OK(reader
                       ->Aggregate(scan.schema_type, scan.id, scan.lo,
                                   scan.hi, scan.filters, scan.tags, true)
                       .status());
    } else if (slice) {
      Drain(reader->OpenSliceBatches(scan.schema_type, scan.lo, scan.hi,
                                     scan.tags, scan.filters));
    } else {
      Drain(reader->OpenHistoricalBatches(scan.schema_type, scan.id, scan.lo,
                                          scan.hi, scan.tags, scan.filters));
    }
  }
  t->reader_us += MicrosSince(t0);
  // Every series the workloads read is irregular (IRTS), before and after
  // compaction and reorganization.
  std::vector<odh::core::BlobRecord> blobs;
  t0 = NowNs();
  {
    ScopedSpan span(tracer, "replay.core.store", op);
    if (slice) {
      odh::core::OdhStore::SliceCursor cursor;
      bool done = false;
      while (!done) {
        std::vector<odh::core::BlobRecord> chunk;
        ODH_CHECK_OK(odh->store()->NextSliceChunk(
            scan.schema_type, true, scan.lo, scan.hi, &cursor, &chunk, &done));
        for (auto& b : chunk) blobs.push_back(std::move(b));
      }
    } else {
      auto got = odh->store()->GetIrts(scan.schema_type, scan.id, scan.lo,
                                       scan.hi);
      ODH_CHECK_OK(got.status());
      blobs = std::move(*got);
    }
  }
  t->fetch_us += MicrosSince(t0);
  const odh::core::ValueBlobCodec codec{odh::core::CompressionSpec{}};
  t0 = NowNs();
  {
    ScopedSpan span(tracer, "replay.core.value_blob", op);
    odh::core::SeriesBatch series;
    for (const odh::core::BlobRecord& b : blobs) {
      ODH_CHECK_OK(codec.DecodeIrts(b.blob, b.id, b.begin, scan.tags,
                                    scan.num_tags, &series));
      t->decoded_values +=
          static_cast<int64_t>(series.num_points() * scan.tags.size());
    }
  }
  t->decode_us += MicrosSince(t0);
  ++t->ops;
  t->warmth.Add(Counters::Read(odh).Minus(before));
}

void SetReplayMetrics(const ReplayTotals& t, Report* report) {
  const double n = static_cast<double>(std::max<int64_t>(t.ops, 1));
  const Counters& w = t.warmth;
  report->Set("core.router.us_per_lookup", t.router_us / n);
  report->Set("core.reader.us_per_op", t.reader_us / n);
  report->Set("core.store.fetch_us_per_op", t.fetch_us / n);
  report->Set("core.value_blob.decode_ns_per_dp",
              Ratio(t.decode_us * 1e3, static_cast<double>(t.decoded_values)));
  report->Set("replay.buffer_pool.hit_ratio",
              Ratio(w.pool_hits, w.pool_hits + w.pool_misses));
  report->Set("replay.blob_cache.hit_ratio",
              Ratio(w.cache_hits, w.cache_hits + w.cache_misses));
}

double CalibrateCrcBytesPerUs() {
  std::vector<char> page(odh::storage::SimDisk::kDefaultPageSize);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<char>(i * 131 + 7);
  }
  uint32_t sink = 0;
  constexpr int kRounds = 4096;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kRounds; ++i) {
    page[0] = static_cast<char>(sink);
    sink ^= odh::storage::Crc32c(page.data(), page.size());
  }
  const double us = static_cast<double>(NowNs() - t0) / 1000.0;
  if (sink == 0x12345678) std::printf("(crc sink)\n");  // Keeps the loop.
  return static_cast<double>(page.size()) * kRounds / std::max(us, 1e-3);
}

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t DatumHash(const Datum& d) {
  if (d.is_null()) return 0x9e3779b97f4a7c15ULL;
  if (d.is_double()) {
    double v = d.double_value();
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return Mix(bits ^ 0x1);
  }
  if (d.is_string()) return Mix(std::hash<std::string>{}(d.string_value()));
  if (d.is_bool()) return Mix(d.bool_value() ? 3 : 5);
  // Timestamps and integers compare by value: the relational oracle and
  // the virtual table may type an id or ts column differently.
  return Mix(static_cast<uint64_t>(d.int64_value()) ^ 0x2);
}

}  // namespace

uint64_t RowsetDigest(const std::vector<Row>& rows) {
  uint64_t digest = rows.size();
  for (const Row& row : rows) {
    uint64_t h = 0;
    for (const Datum& d : row) h = Mix(h * 31 + DatumHash(d));
    digest += h;  // Addition commutes: row order does not matter.
  }
  return digest;
}

bool RowsClose(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const Datum& x = a[i];
    const Datum& y = b[i];
    if (x.is_null() || y.is_null()) {
      if (x.is_null() != y.is_null()) return false;
      continue;
    }
    if (x.is_double() || y.is_double()) {
      if (!x.is_numeric() || !y.is_numeric()) return false;
      const double u = x.is_double() ? x.double_value()
                                     : static_cast<double>(x.int64_value());
      const double v = y.is_double() ? y.double_value()
                                     : static_cast<double>(y.int64_value());
      if (std::fabs(u - v) >
          1e-9 * std::max({1.0, std::fabs(u), std::fabs(v)})) {
        return false;
      }
      continue;
    }
    if (x.is_string() || y.is_string()) {
      if (!x.is_string() || !y.is_string() ||
          x.string_value() != y.string_value()) {
        return false;
      }
      continue;
    }
    if (x.int64_value() != y.int64_value()) return false;
  }
  return true;
}

int64_t NonNullValues(const std::vector<Row>& rows) {
  int64_t n = 0;
  for (const Row& row : rows) {
    for (const Datum& d : row) n += d.is_null() ? 0 : 1;
  }
  return n;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace histbench
