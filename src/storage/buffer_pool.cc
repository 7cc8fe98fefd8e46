#include "storage/buffer_pool.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "common/coding.h"
#include "common/logging.h"

namespace odh::storage {
namespace {

// Bounded exponential backoff for transient faults: up to kMaxIoAttempts
// tries, sleeping base * 2^attempt between them (capped). The simulated
// disk clears transient faults immediately, so the sleeps only matter as a
// model; they are microseconds so even fault-heavy tests stay fast.
constexpr int kMaxIoAttempts = 6;
constexpr std::chrono::microseconds kBackoffBase{1};
constexpr std::chrono::microseconds kBackoffCap{64};

void Backoff(int attempt) {
  auto delay = kBackoffBase * (1 << attempt);
  if (delay > kBackoffCap) delay = kBackoffCap;
  std::this_thread::sleep_for(delay);
}

}  // namespace

PageRef::PageRef(BufferPool* pool, int32_t frame)
    : pool_(pool), frame_(frame) {}

PageRef::~PageRef() { Release(); }

PageRef::PageRef(PageRef&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_) {
  other.pool_ = nullptr;
  other.frame_ = -1;
}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = -1;
  }
  return *this;
}

char* PageRef::data() {
  ODH_CHECK(valid());
  return pool_->FrameData(frame_);
}

const char* PageRef::data() const {
  ODH_CHECK(valid());
  return pool_->FrameData(frame_);
}

FileId PageRef::file() const { return pool_->FrameAt(frame_).file; }
PageNo PageRef::page_no() const { return pool_->FrameAt(frame_).page; }

void PageRef::MarkDirty() {
  ODH_CHECK(valid());
  pool_->SetDirty(frame_);
}

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    frame_ = -1;
  }
}

BufferPool::BufferPool(SimDisk* disk, size_t capacity_pages)
    : disk_(disk), capacity_(capacity_pages) {
  ODH_CHECK(capacity_pages > 0);
  ODH_CHECK(disk_->page_size() > kPageTrailerBytes);
  size_t num_shards = capacity_pages / kMinFramesPerShard;
  if (num_shards > kMaxShards) num_shards = kMaxShards;
  if (num_shards < 1) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  frames_ = std::make_unique<Frame[]>(capacity_pages);
  for (size_t i = 0; i < capacity_pages; ++i) {
    frames_[i].data = std::make_unique<char[]>(disk_->page_size());
  }
  // Free lists pop from the back, so push each shard's frames in
  // descending order: frames are handed out in ascending allocation order,
  // which FlushAll's write-back ordering contract builds on.
  for (size_t i = capacity_pages; i-- > 0;) {
    shards_[i % num_shards]->free_frames.push_back(static_cast<int32_t>(i));
  }
}

BufferPool::~BufferPool() { (void)FlushAll(); }

void BufferPool::PinLocked(Shard& shard, int32_t frame) {
  Frame& f = frames_[frame];
  if (f.pins.load(std::memory_order_relaxed) == 0 && f.in_lru) {
    shard.lru.erase(f.lru_pos);
    f.in_lru = false;
  }
  f.pins.fetch_add(1, std::memory_order_relaxed);
}

void BufferPool::Pin(int32_t frame) {
  Shard& shard = ShardOfFrame(frame);
  std::lock_guard<std::mutex> lock(shard.mu);
  PinLocked(shard, frame);
}

void BufferPool::Unpin(int32_t frame) {
  Shard& shard = ShardOfFrame(frame);
  std::lock_guard<std::mutex> lock(shard.mu);
  Frame& f = frames_[frame];
  int old_pins = f.pins.fetch_sub(1, std::memory_order_relaxed);
  ODH_CHECK(old_pins > 0);
  if (old_pins == 1) {
    shard.lru.push_front(frame);
    f.lru_pos = shard.lru.begin();
    f.in_lru = true;
  }
}

Status BufferPool::ReadPageRetry(FileId file, PageNo page, char* buf) {
  Status status;
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    status = disk_->ReadPage(file, page, buf);
    if (!status.IsUnavailable()) return status;
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    Backoff(attempt);
  }
  return status;
}

Status BufferPool::WritePageRetry(FileId file, PageNo page, const char* buf) {
  Status status;
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    status = disk_->WritePage(file, page, buf);
    if (!status.IsUnavailable()) return status;
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    Backoff(attempt);
  }
  return status;
}

Result<PageNo> BufferPool::AllocatePageRetry(FileId file) {
  Result<PageNo> result = Status::Internal("unreachable");
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    result = disk_->AllocatePage(file);
    if (!result.status().IsUnavailable()) return result;
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    Backoff(attempt);
  }
  return result;
}

Status BufferPool::WriteBackLocked(int32_t frame) {
  Frame& f = frames_[frame];
  if (f.dirty) {
    // Stamp the CRC32C trailer over the usable prefix. The trailer bytes
    // belong to the pool; clients never touch them.
    const size_t usable = usable_page_size();
    uint32_t crc = Crc32c(f.data.get(), usable);
    EncodeFixed32(f.data.get() + usable, crc);
    checksum_stamps_.fetch_add(1, std::memory_order_relaxed);
    ODH_RETURN_IF_ERROR(WritePageRetry(f.file, f.page, f.data.get()));
    f.dirty = false;
  }
  return Status::OK();
}

Result<int32_t> BufferPool::GetVictimFrameLocked(Shard& shard) {
  if (!shard.free_frames.empty()) {
    int32_t frame = shard.free_frames.back();
    shard.free_frames.pop_back();
    return frame;
  }
  if (shard.lru.empty()) {
    return Status::ResourceExhausted("buffer pool: all frames pinned");
  }
  int32_t victim = shard.lru.back();
  shard.lru.pop_back();
  Frame& f = frames_[victim];
  f.in_lru = false;
  Status written = WriteBackLocked(victim);
  if (!written.ok()) {
    // The frame stays dirty and cached; put it back in the LRU so a later
    // flush (or the next eviction attempt, once the fault clears) retries.
    shard.lru.push_back(victim);
    f.lru_pos = std::prev(shard.lru.end());
    f.in_lru = true;
    return written;
  }
  shard.page_table.erase(PageKey(f.file, f.page));
  f.in_use = false;
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return victim;
}

Result<PageRef> BufferPool::FetchPage(FileId file, PageNo page) {
  Shard& shard = *shards_[ShardOf(file, page)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.page_table.find(PageKey(file, page));
  if (it != shard.page_table.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    PinLocked(shard, it->second);
    return PageRef(this, it->second);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // The disk I/O below runs under this shard's latch: fetches of pages in
  // other shards proceed in parallel, and a concurrent fetch of the same
  // page must wait for this one anyway.
  ODH_ASSIGN_OR_RETURN(int32_t frame, GetVictimFrameLocked(shard));
  Frame& f = frames_[frame];
  Status read = ReadPageRetry(file, page, f.data.get());
  if (!read.ok()) {
    shard.free_frames.push_back(frame);
    return read;
  }
  // Verify the CRC32C trailer. A page of all zeroes is a freshly allocated
  // page that was never written back; it carries no checksum and is valid
  // by definition (no client payload decodes from it either).
  const size_t usable = usable_page_size();
  if (!IsZeroFilled(f.data.get(), disk_->page_size())) {
    checksum_verifies_.fetch_add(1, std::memory_order_relaxed);
    uint32_t stored = DecodeFixed32(f.data.get() + usable);
    uint32_t actual = Crc32c(f.data.get(), usable);
    if (stored != actual) {
      checksum_failures_.fetch_add(1, std::memory_order_relaxed);
      shard.free_frames.push_back(frame);
      return Status::DataLoss(
          "page checksum mismatch (torn write or corruption): file " +
          std::to_string(file) + " page " + std::to_string(page));
    }
  }
  f.file = file;
  f.page = page;
  f.in_use = true;
  f.dirty = false;
  f.pins.store(0, std::memory_order_relaxed);
  f.in_lru = false;
  shard.page_table[PageKey(file, page)] = frame;
  PinLocked(shard, frame);
  return PageRef(this, frame);
}

Result<PageRef> BufferPool::NewPage(FileId file, PageNo* page_no) {
  // Allocate first: the page number decides the owning shard.
  ODH_ASSIGN_OR_RETURN(PageNo page, AllocatePageRetry(file));
  *page_no = page;
  Shard& shard = *shards_[ShardOf(file, page)];
  std::lock_guard<std::mutex> lock(shard.mu);
  ODH_ASSIGN_OR_RETURN(int32_t frame, GetVictimFrameLocked(shard));
  Frame& f = frames_[frame];
  std::memset(f.data.get(), 0, disk_->page_size());
  f.file = file;
  f.page = page;
  f.in_use = true;
  f.dirty = true;
  f.pins.store(0, std::memory_order_relaxed);
  f.in_lru = false;
  shard.page_table[PageKey(file, page)] = frame;
  PinLocked(shard, frame);
  return PageRef(this, frame);
}

Status BufferPool::InvalidateFile(FileId file) {
  for (size_t i = 0; i < capacity_; ++i) {
    Shard& shard = ShardOfFrame(static_cast<int32_t>(i));
    std::lock_guard<std::mutex> lock(shard.mu);
    Frame& f = frames_[i];
    if (!f.in_use || f.file != file) continue;
    if (f.pins.load(std::memory_order_relaxed) > 0) {
      return Status::FailedPrecondition("page of dropped file is pinned");
    }
    if (f.in_lru) {
      shard.lru.erase(f.lru_pos);
      f.in_lru = false;
    }
    shard.page_table.erase(PageKey(f.file, f.page));
    f.in_use = false;
    f.dirty = false;
    shard.free_frames.push_back(static_cast<int32_t>(i));
  }
  return Status::OK();
}

void BufferPool::DropCleanPages() {
  for (size_t i = 0; i < capacity_; ++i) {
    Shard& shard = ShardOfFrame(static_cast<int32_t>(i));
    std::lock_guard<std::mutex> lock(shard.mu);
    Frame& f = frames_[i];
    if (!f.in_use || f.dirty ||
        f.pins.load(std::memory_order_relaxed) > 0) {
      continue;
    }
    if (f.in_lru) {
      shard.lru.erase(f.lru_pos);
      f.in_lru = false;
    }
    shard.page_table.erase(PageKey(f.file, f.page));
    f.in_use = false;
    shard.free_frames.push_back(static_cast<int32_t>(i));
  }
}

Status BufferPool::FlushAll() {
  // Ascending global frame order regardless of sharding: the page
  // allocated into the lowest frame hits the disk first (crash tests pin
  // down this ordering).
  for (size_t i = 0; i < capacity_; ++i) {
    Shard& shard = ShardOfFrame(static_cast<int32_t>(i));
    std::lock_guard<std::mutex> lock(shard.mu);
    if (frames_[i].in_use) {
      ODH_RETURN_IF_ERROR(WriteBackLocked(static_cast<int32_t>(i)));
    }
  }
  return Status::OK();
}

}  // namespace odh::storage
