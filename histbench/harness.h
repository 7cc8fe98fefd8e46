// Shared plumbing for the historian benchmark: clocks, latency samples,
// in-memory spans, counter snapshots taken through the layers' public
// getters, layer replays, and the result printer. Nothing here reaches
// inside src/; every number comes from a public function of the system
// under test or from a clock read around a call the benchmark makes itself.
#ifndef HISTBENCH_HARNESS_H_
#define HISTBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/odh.h"

namespace histbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Span file written at the end of a traced run.
};

int64_t NowNs();           // steady_clock.
double MicrosSince(int64_t start_ns);
int64_t ProcessCpuNs();    // CPU time of every thread of the process.
double PeakRssMb();        // Peak resident set so far.

/// Pins the calling thread to the `index`-th CPU the process may run on
/// (threads it creates afterwards inherit the pin). A no-op when fewer CPUs
/// are available. Fixing placement removes run-to-run variance that comes
/// from where the scheduler happens to put communicating threads.
void PinThisThread(int index);

/// The kernel's id of the calling thread.
int ThisThreadId();

/// The kernel's ids of every thread of the process.
std::vector<int> ProcessThreadIds();

/// Rotates the process's threads over the CPUs it may run on. On a shared
/// VM each virtual CPU runs at its own drifting speed (a fixed loop read
/// 62k to 98k iterations per second depending on the CPU and the minute), so
/// a run that stays on one CPU measures that CPU's spell. Every second the
/// threads move one CPU on, and a run samples every CPU. Lanes keep
/// threads that must not share a CPU apart: lane i runs on CPU
/// (step + i) mod n, and a thread given no lane sits in lane 0. Moves
/// happen only from Tick(), which the measuring loop calls between ops.
/// A no-op with fewer than two CPUs.
class CpuRotation {
 public:
  /// Moves every thread of the process to lane 0's first CPU.
  CpuRotation();
  /// Puts thread `tid` in `lane` and moves every thread to its lane.
  void SetLane(int tid, int lane);
  /// Moves the lanes one CPU on when a second has passed since the last
  /// move.
  void Tick();

 private:
  void Apply();

  std::vector<int> cpus_;
  int64_t last_move_ns_ = 0;
  int64_t step_ = 0;
  std::map<int, int> lanes_;  // Thread id -> lane.
};

/// Latency (or any) samples; quantiles interpolate linearly between the two
/// nearest ranks.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Quantile(double q) const;
  /// Number of samples strictly above Quantile(q).
  size_t CountAbove(double q) const;

 private:
  std::vector<double> values_;
};

/// In-memory spans: name, op id, parent, start and end. Written as JSON
/// lines when the run ends; self time (span minus the part its children
/// cover) is summarised per span name.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// Opens a span; returns its index (or -1 when disabled).
  int Begin(const char* name, int64_t op, int parent = -1);
  void End(int span);
  odh::Status Write(const std::string& path) const;
  /// Prints "span name: count, total ms, self ms" rows.
  void PrintSummary() const;

 private:
  struct Span {
    const char* name;
    int64_t op;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op, int parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Every counter the benchmark reads from the system's public getters, in
/// one snapshot. Deltas between two snapshots give per-op counts.
struct Counters {
  int64_t pool_hits = 0, pool_misses = 0, pool_evictions = 0;
  int64_t crc_stamps = 0, crc_verifies = 0;
  int64_t page_reads = 0, bytes_written = 0;
  int64_t blobs_decoded = 0, blobs_pruned = 0, blobs_skipped_by_summary = 0;
  int64_t segments_pruned = 0, parallel_tasks = 0, merge_stalls = 0;
  int64_t blobs_examined = 0;
  int64_t router_lookups = 0;
  int64_t cache_hits = 0, cache_misses = 0;
  int64_t points_ingested = 0, blobs_written = 0, blob_bytes = 0;
  int64_t wal_synced_bytes = 0;
  int64_t flush_count = 0, flush_sum_us = 0;  // odh.writer.flush_micros

  static Counters Read(odh::core::OdhSystem* odh);
  Counters Minus(const Counters& base) const;
  void Add(const Counters& delta);
};

/// Per-op counter deltas summed over the traced ops.
struct LayerTotals {
  int64_t ops = 0;
  Counters sum;
  void AddDelta(const Counters& d) {
    ++ops;
    sum.Add(d);
  }
};

/// The result of one run: human-readable lines go to stdout as they are
/// produced; Finish() prints the one-line JSON object last.
class Report {
 public:
  void Info(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Records a metric; its unit is the one BENCHMARK.json declares.
  void Set(const std::string& name, double value) { metrics_[name] = value; }
  /// Counts one op attempt; `ok` false means it failed, was refused, or
  /// returned a wrong answer.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Counts answers found wrong after the timed phase.
  void AddFailures(int64_t failed) { failed_ += failed; }
  void Fail(const std::string& why);
  /// Exact (seed-deterministic) counters, printed on an "EXACT" line so
  /// repeated runs of one seed can be diffed bit for bit.
  void SetExact(const std::string& name, int64_t value) {
    exact_[name] = value;
  }
  /// Prints the span summary (and writes the span file) of a traced run,
  /// the EXACT line, the op error ratio, and last the JSON object holding
  /// the end-to-end metrics (untraced run) or the per-layer metrics
  /// (traced run; layers the workload does not exercise read 0). Returns
  /// the process exit code.
  int Finish(const Args& args, const Tracer& tracer);

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, int64_t> exact_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

/// A metric BENCHMARK.json declares.
struct MetricDecl {
  const char* name;
  const char* unit;
};
const std::vector<MetricDecl>& EndToEndMetrics();
const std::vector<MetricDecl>& PerLayerMetrics();

/// Sets storage_bytes_per_dp and write_amp from the exact counters of the
/// set-up's load: load.storage_bytes and load.disk_bytes_written (pool
/// written back) per load.values, with raw input at 8 B per value plus 16 B
/// per record (load.records).
void SetLoadMetrics(const std::map<std::string, int64_t>& exact,
                    Report* report);

/// Fills every per-layer metric a LayerTotals can derive; `values` is the
/// data points ingested over the same ops (per-dp ratios read 0 without
/// ingest).
void SetLayerMetrics(const LayerTotals& t, double values,
                     double crc_bytes_per_us, Report* report);

/// Op latencies, busy time, data points and CPU of one class of ops.
struct PhaseStats {
  Samples op_ms;
  double busy_s = 0;
  int64_t dp = 0;
  int64_t cpu_ns = 0;
  void Add(int64_t op_ns, int64_t op_dp, int64_t op_cpu_ns) {
    op_ms.Add(static_cast<double>(op_ns) / 1e6);
    busy_s += static_cast<double>(op_ns) / 1e9;
    dp += op_dp;
    cpu_ns += op_cpu_ns;
  }
  double DpPerS() const { return busy_s > 0 ? dp / busy_s : 0; }
};

/// A traced run alternates half-second windows with tracing off and on, so
/// both see the same system state; the difference is the tracing overhead.
bool InTracedWindow(bool trace, int64_t phase_start_ns);

/// Sets trace.overhead_* from the two window classes.
void SetOverheadMetrics(const PhaseStats& untraced, const PhaseStats& traced,
                        Report* report);

/// Sets op_p50_ms / op_p99_ms from op samples and prints the sample count
/// and how many samples lie beyond the p99; with `enforce`, fewer than 10
/// fails the run.
void SetLatencyMetrics(const Samples& op_ms, Report* report, bool enforce);

/// One scan an op asked the historian for, replayed a layer down.
struct ScanSpec {
  int schema_type = -1;
  odh::SourceId id = -1;  // -1: a slice over every source.
  odh::Timestamp lo = odh::kMinTimestamp;
  odh::Timestamp hi = odh::kMaxTimestamp;
  std::vector<int> tags;  // Tags the op reads.
  int num_tags = 0;       // Tags of the schema type.
  bool aggregate = false;  // Aggregate pushdown instead of a scan.
  std::vector<odh::core::TagFilter> filters;
};

/// Replay time per layer, summed over the sampled ops.
struct ReplayTotals {
  int64_t ops = 0;
  double router_us = 0, reader_us = 0, fetch_us = 0, decode_us = 0;
  int64_t decoded_values = 0;
  Counters warmth;  // Pool and blob-cache counters during the replays.
};

/// Replays `scan` after its op: the router alone, the native reader (scan
/// or aggregate), the store fetch, and the decode of the fetched blobs,
/// each under its own span.
void ReplayScan(odh::core::OdhSystem* odh, const ScanSpec& scan, int64_t op,
                Tracer* tracer, ReplayTotals* totals);

/// Sets the replay-based per-layer metrics.
void SetReplayMetrics(const ReplayTotals& t, Report* report);

/// CRC32C throughput of this process, bytes per microsecond, calibrated on
/// page-sized buffers.
double CalibrateCrcBytesPerUs();

/// Order-independent digest of a result: multiset hash of its rows. Values
/// must be exact (no floating-point aggregates).
uint64_t RowsetDigest(const std::vector<odh::Row>& rows);

/// NULL-safe comparison of two rows with a relative tolerance on doubles
/// (aggregates may sum in a different order).
bool RowsClose(const odh::Row& a, const odh::Row& b);

/// Non-NULL values in a result (the paper's Table 8 data points).
int64_t NonNullValues(const std::vector<odh::Row>& rows);

double Median(std::vector<double> v);

int RunIngestSteady(const Args& args, Report* report);
int RunDashboardLive(const Args& args, Report* report);
int RunHistoryScan(const Args& args, Report* report);

constexpr int kSetups = 5;

/// Runs kSetups set-ups (each builds a fresh instance and fills its exact
/// counters), keeps the last one, sets setup_s to their median, and fails
/// the report when the exact counters of two set-ups differ.
template <typename Instance, typename SetUpFn>
odh::Result<Instance> RepeatSetUp(SetUpFn set_up,
                                  std::map<std::string, int64_t>* exact,
                                  Report* report) {
  std::vector<double> seconds;
  Instance last;
  for (int i = 0; i < kSetups; ++i) {
    last = Instance{};  // Frees the previous set-up before the next one.
    std::map<std::string, int64_t> counters;
    const int64_t t0 = NowNs();
    odh::Result<Instance> made = set_up(&counters);
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!made.ok()) return made.status();
    last = std::move(*made);
    if (i == 0) {
      *exact = counters;
    } else if (counters != *exact) {
      report->Fail("exact counters drifted between set-ups of one seed");
    }
  }
  for (const auto& [name, value] : *exact) report->SetExact(name, value);
  report->Set("setup_s", Median(seconds));
  report->Info("set-up: %d runs, median %.3f s", kSetups, Median(seconds));
  return last;
}

}  // namespace histbench

#endif  // HISTBENCH_HARNESS_H_
