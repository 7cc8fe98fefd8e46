#ifndef ODH_STORAGE_BUFFER_POOL_H_
#define ODH_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/checksum.h"
#include "storage/sim_disk.h"

namespace odh::storage {

class BufferPool;

/// RAII pin on a buffered page. While alive, the frame cannot be evicted.
/// Call MarkDirty() after mutating data().
class PageRef {
 public:
  PageRef() = default;
  PageRef(BufferPool* pool, int32_t frame);
  ~PageRef();

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  PageRef(PageRef&& other) noexcept;
  PageRef& operator=(PageRef&& other) noexcept;

  bool valid() const { return pool_ != nullptr; }
  char* data();
  const char* data() const;
  FileId file() const;
  PageNo page_no() const;
  void MarkDirty();

  /// Releases the pin early (also done by the destructor).
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  int32_t frame_ = -1;
};

/// A fixed-capacity LRU page cache over a SimDisk. Mirrors the role of the
/// Informix buffer pools the paper's AMI case study credits for most of the
/// machine's memory use.
///
/// Thread-safe via sharded latches (see DESIGN.md "Threading model"): the
/// page table, LRU list and free list are partitioned into shards, each
/// under its own mutex, and every frame is permanently owned by one shard.
/// A page maps to its shard by hash(file, page), so two threads faulting
/// different shards' pages never contend, and eviction in one shard does
/// not serialize readers of another. Per-frame pin counts are atomic.
/// Small pools (fewer than kMinFramesPerShard frames) collapse to a single
/// shard, preserving the exact global-LRU semantics the durability tests
/// rely on. Hit/miss/retry/checksum counters are atomics.
///
/// Durability duties (see DESIGN.md "Durability & failure model"):
///  - Every page written back gets a CRC32C trailer over its first
///    usable_page_size() bytes; every page fetched from disk is verified,
///    so torn writes and bit rot surface as Status::DataLoss instead of
///    silently decoding garbage. Clients must keep their data within
///    usable_page_size() — the trailer belongs to the pool.
///  - Transient disk faults (Status::Unavailable) on read, write and
///    allocate are retried with bounded exponential backoff before being
///    reported; a writeback that still fails leaves the frame dirty and in
///    the LRU so a later flush can retry it.
class BufferPool {
 public:
  /// `capacity_pages` frames of disk->page_size() bytes each.
  BufferPool(SimDisk* disk, size_t capacity_pages);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Bytes of a page that clients may use; the remainder is the pool's
  /// checksum trailer.
  size_t usable_page_size() const {
    return disk_->page_size() - kPageTrailerBytes;
  }

  /// Pins (and if needed reads + checksum-verifies) page `page` of `file`.
  Result<PageRef> FetchPage(FileId file, PageNo page);

  /// Allocates a new page on disk and returns it pinned (zeroed, dirty).
  Result<PageRef> NewPage(FileId file, PageNo* page_no);

  /// Writes back all dirty frames (in ascending frame order).
  Status FlushAll();

  /// Drops every cached page of `file` without writing back (the file is
  /// being deleted). Fails if any of its pages is pinned.
  Status InvalidateFile(FileId file);

  /// Drops every clean, unpinned frame. Dirty or pinned frames are kept.
  /// Used by tests and by memory-pressure simulations to force re-reads
  /// (and hence checksum verification) from disk.
  void DropCleanPages();

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  uint64_t hit_count() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t miss_count() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Transparent retries of transient I/O faults (reads+writes+allocates).
  uint64_t io_retry_count() const {
    return io_retries_.load(std::memory_order_relaxed);
  }
  /// Pages that failed CRC32C verification on fetch.
  uint64_t checksum_failure_count() const {
    return checksum_failures_.load(std::memory_order_relaxed);
  }
  /// Checksum trailers stamped (writebacks) / verified (disk reads).
  uint64_t checksum_stamp_count() const {
    return checksum_stamps_.load(std::memory_order_relaxed);
  }
  uint64_t checksum_verify_count() const {
    return checksum_verifies_.load(std::memory_order_relaxed);
  }
  /// Cached pages evicted to make room (LRU victims, not free frames).
  uint64_t eviction_count() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  SimDisk* disk() const { return disk_; }

 private:
  friend class PageRef;

  /// Below this many frames per shard the pool stops sharding: tiny pools
  /// need the whole capacity reachable from every page.
  static constexpr size_t kMinFramesPerShard = 16;
  static constexpr size_t kMaxShards = 16;

  struct Frame {
    FileId file = 0;
    PageNo page = 0;
    bool in_use = false;
    bool dirty = false;
    /// Written only under the owning shard's mutex; read lock-free by
    /// pinning callers (a pinned frame's identity fields are stable).
    std::atomic<int> pins{0};
    std::unique_ptr<char[]> data;
    std::list<int32_t>::iterator lru_pos;  // Valid iff pins == 0 && in_use.
    bool in_lru = false;
  };

  /// One latch shard: a partition of the page table plus the LRU and free
  /// lists of the frames this shard owns. The page table is hashed on
  /// PageKey: it is only ever looked up, never walked in order (file-wide
  /// passes walk the frames).
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, int32_t> page_table;
    std::list<int32_t> lru;  // Front = most recent; only unpinned frames.
    std::vector<int32_t> free_frames;
  };

  static uint64_t PageKey(FileId file, PageNo page) {
    return (static_cast<uint64_t>(file) << 32) | page;
  }
  size_t ShardOf(FileId file, PageNo page) const {
    if (shards_.size() == 1) return 0;
    uint64_t h = PageKey(file, page);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    return static_cast<size_t>(h % shards_.size());
  }
  Shard& ShardOfFrame(int32_t frame) {
    return *shards_[static_cast<size_t>(frame) % shards_.size()];
  }

  void Pin(int32_t frame);        // Takes the frame's shard latch.
  void Unpin(int32_t frame);      // Takes the frame's shard latch.
  void PinLocked(Shard& shard, int32_t frame);
  void SetDirty(int32_t frame) { frames_[frame].dirty = true; }
  char* FrameData(int32_t frame) { return frames_[frame].data.get(); }
  const Frame& FrameAt(int32_t frame) const { return frames_[frame]; }

  /// Finds a frame of `shard` to host a new page, evicting if needed.
  /// Caller holds shard.mu.
  Result<int32_t> GetVictimFrameLocked(Shard& shard);
  /// Caller holds the owning shard's mutex.
  Status WriteBackLocked(int32_t frame);

  // Retrying wrappers around the disk (bounded exponential backoff on
  // Status::Unavailable). The disk carries its own mutex, so these are
  // safe under a shard latch (shard latch -> disk mutex lock order).
  Status ReadPageRetry(FileId file, PageNo page, char* buf);
  Status WritePageRetry(FileId file, PageNo page, const char* buf);
  Result<PageNo> AllocatePageRetry(FileId file);

  SimDisk* disk_;
  size_t capacity_ = 0;
  /// Frames are in a plain array (atomics are not movable); frame i is
  /// owned by shard i % num_shards() for its whole lifetime.
  std::unique_ptr<Frame[]> frames_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> io_retries_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  std::atomic<uint64_t> checksum_stamps_{0};
  std::atomic<uint64_t> checksum_verifies_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace odh::storage

#endif  // ODH_STORAGE_BUFFER_POOL_H_
