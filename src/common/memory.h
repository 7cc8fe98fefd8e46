#ifndef ODH_COMMON_MEMORY_H_
#define ODH_COMMON_MEMORY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/datum.h"
#include "common/result.h"
#include "common/status.h"

namespace odh::common {

/// A node in the historian's memory-governance hierarchy:
///
///   process  ->  session (one per sql::Session)  ->  query (one per stream)
///
/// Each node carries its own budget (0 = unbounded) and its own usage;
/// TryReserve charges every ancestor atomically, so a reservation that
/// fits the query budget can still be refused because the process is full
/// — the signal HistorianServer's admission gate and the spill paths act
/// on. Release walks the same chain. All counters are relaxed atomics:
/// concurrent sessions reserve against the shared process root without a
/// lock, and exact cross-thread ordering of peak() is not needed.
///
/// Lifetime: a child must not outlive its parent. A tracker destroyed with
/// residual usage returns that residual to its ancestors (the leak stays
/// visible in the owner's own used() until then, which is what the
/// eager-release tests assert on).
class MemoryTracker {
 public:
  /// `limit_bytes` 0 means unbounded (track usage, never refuse).
  explicit MemoryTracker(std::string name, int64_t limit_bytes = 0,
                         MemoryTracker* parent = nullptr)
      : name_(std::move(name)), limit_(limit_bytes), parent_(parent) {}
  ~MemoryTracker();

  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  /// Charges `bytes` to this node and every ancestor. On refusal (any
  /// level over its limit) nothing is charged anywhere and the status
  /// names the level that refused.
  Status TryReserve(int64_t bytes);

  /// Returns `bytes` to this node and every ancestor.
  void Release(int64_t bytes);

  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  int64_t limit() const { return limit_.load(std::memory_order_relaxed); }
  /// Reconfigures the budget (engine wiring time, before traffic).
  void set_limit(int64_t limit_bytes) {
    limit_.store(limit_bytes, std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }
  MemoryTracker* parent() { return parent_; }

 private:
  /// Adds `bytes` here only (no parent walk); false + rollback when over
  /// limit.
  bool AddLocal(int64_t bytes);
  void SubLocal(int64_t bytes);

  const std::string name_;
  std::atomic<int64_t> limit_;
  MemoryTracker* const parent_;
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
};

/// Accumulating RAII reservation against one tracker: Reserve() grows it,
/// the destructor (or ReleaseAll) returns everything. The unit the
/// buffered execution paths use so early returns and error paths can
/// never leak accounted bytes.
class ScopedReservation {
 public:
  explicit ScopedReservation(MemoryTracker* tracker) : tracker_(tracker) {}
  ~ScopedReservation() { ReleaseAll(); }

  ScopedReservation(const ScopedReservation&) = delete;
  ScopedReservation& operator=(const ScopedReservation&) = delete;

  /// No-op success when constructed with a null tracker (governance off).
  Status Reserve(int64_t bytes) {
    if (tracker_ == nullptr || bytes <= 0) return Status::OK();
    ODH_RETURN_IF_ERROR(tracker_->TryReserve(bytes));
    bytes_ += bytes;
    return Status::OK();
  }
  /// Returns part of the reservation early (e.g. a row handed out).
  void Release(int64_t bytes) {
    if (tracker_ == nullptr || bytes <= 0) return;
    if (bytes > bytes_) bytes = bytes_;
    tracker_->Release(bytes);
    bytes_ -= bytes;
  }
  void ReleaseAll() { Release(bytes_); }
  int64_t bytes() const { return bytes_; }

 private:
  MemoryTracker* tracker_;
  int64_t bytes_ = 0;
};

/// A bump-pointer arena for query-lifetime byte buffers (spill page
/// staging, merge read buffers): allocation is a pointer increment, and
/// every block is charged to the query's MemoryTracker the moment it is
/// carved from the heap. Only trivially destructible data belongs here —
/// Reset and the destructor free the blocks without running destructors.
/// Not thread-safe; one arena per query, used from the query's thread.
class Arena {
 public:
  explicit Arena(MemoryTracker* tracker = nullptr) : tracker_(tracker) {}
  ~Arena() { Reset(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// 8-aligned allocation; refused (ResourceExhausted) when the tracker's
  /// budget cannot cover a fresh block.
  Result<char*> Allocate(size_t bytes);

  /// Total bytes carved from the heap (allocation granularity, >= the sum
  /// of Allocate sizes).
  int64_t bytes_allocated() const { return bytes_allocated_; }

  /// Frees every block and returns the bytes to the tracker.
  void Reset();

 private:
  static constexpr size_t kMinBlock = 4096;
  static constexpr size_t kMaxBlock = 256 * 1024;

  MemoryTracker* tracker_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  char* cursor_ = nullptr;
  size_t remaining_ = 0;
  size_t next_block_ = kMinBlock;
  int64_t bytes_allocated_ = 0;
};

/// Accounting estimate for one SQL value / row as held by the buffered
/// execution paths. Deliberately an estimate (container headers plus
/// string payload), consistently applied on reserve and release. A string
/// is charged its out-of-line std::string object and that string's
/// capacity.
inline int64_t ApproxDatumBytes(const Datum& d) {
  int64_t n = static_cast<int64_t>(sizeof(Datum));
  if (d.is_string()) {
    n += static_cast<int64_t>(sizeof(std::string) +
                              d.string_value().capacity());
  }
  return n;
}

inline int64_t ApproxRowBytes(const Row& row) {
  int64_t n = static_cast<int64_t>(sizeof(Row));
  for (const Datum& d : row) n += ApproxDatumBytes(d);
  return n;
}

}  // namespace odh::common

#endif  // ODH_COMMON_MEMORY_H_
