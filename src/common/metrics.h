#ifndef ODH_COMMON_METRICS_H_
#define ODH_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace odh::common {

/// A monotonically increasing counter. Add() is one relaxed atomic
/// fetch-add — cheap enough for flush/sync/eviction granularity, still
/// too expensive for the per-record ingest fast path (instrument at blob
/// boundaries, not per point).
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket latency histogram over int64 values (conventionally
/// microseconds). Buckets are powers of two: bucket b holds values in
/// (2^(b-1), 2^b], bucket 0 holds values <= 1. Observe() is three relaxed
/// atomic adds and entirely lock-free; quantiles interpolate linearly
/// within the winning bucket, which is plenty for p50/p95/p99 dashboards.
class Histogram {
 public:
  static constexpr int kNumBuckets = 36;  // Covers up to ~2^35 us (~9.5 h).

  void Observe(int64_t value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Approximate value at quantile `q` in [0, 1]; 0 when empty.
  double Quantile(double q) const;

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// One exported sample: histograms expand into .count/.sum/.p50/.p95/.p99.
struct MetricSample {
  std::string name;
  std::string kind;  // "counter" | "gauge" | "histogram"
  double value = 0;
};

/// Name -> instrument registry. Get-or-create takes a mutex but returns a
/// stable pointer, so components look their instruments up once at wiring
/// time and touch only atomics afterwards. Gauges are pull-style callbacks
/// (typically closing over an existing atomic counter elsewhere), sampled
/// at Collect() time; callbacks must be thread-safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  void RegisterGauge(const std::string& name, std::function<double()> fn);

  /// Snapshot of every instrument, sorted by name.
  std::vector<MetricSample> Collect() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<double()>> gauges_;
};

/// Per-query scan counters for QueryProfile: the SQL engine plants one of
/// these in the scan specs of a statement and the ODH scan paths bump it
/// alongside the reader's global counters. Atomic because historical scans
/// pre-decode blobs on a thread pool. Increments happen per blob / per
/// batch / per emitted row — never per ingested record.
struct ScanCounters {
  std::atomic<int64_t> rows_scanned{0};
  std::atomic<int64_t> batches{0};
  std::atomic<int64_t> blobs_decoded{0};
  std::atomic<int64_t> blobs_pruned{0};
  std::atomic<int64_t> blobs_skipped_by_summary{0};
  std::atomic<int64_t> blob_bytes_read{0};
  std::atomic<int64_t> segments_pruned{0};
  /// Distinct (structure, segment) scan units handed to pool workers by the
  /// segment-parallel driver; 0 when the units ran inline.
  std::atomic<int64_t> segments_scanned_parallel{0};
  /// Blobs served from the decoded-blob cache instead of decoding. Disjoint
  /// from blobs_decoded: every candidate blob lands in exactly one of
  /// {pruned, skipped_by_summary, cache hit, decoded}.
  std::atomic<int64_t> blob_cache_hits{0};
};

}  // namespace odh::common

#endif  // ODH_COMMON_METRICS_H_
