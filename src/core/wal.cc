#include "core/wal.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/coding.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "storage/checksum.h"

namespace odh::core {
namespace {

constexpr size_t kFrameHeader = 8;  // payload_len(4) + crc32c(4).

// Same bounded backoff model as the buffer pool; the WAL bypasses the pool
// so it carries its own retry loop.
constexpr int kMaxIoAttempts = 6;
constexpr std::chrono::microseconds kBackoffBase{1};
constexpr std::chrono::microseconds kBackoffCap{64};

void Backoff(int attempt) {
  auto delay = kBackoffBase * (1 << attempt);
  if (delay > kBackoffCap) delay = kBackoffCap;
  std::this_thread::sleep_for(delay);
}

Status Truncated(uint64_t lsn, uint64_t head) {
  return Status::OutOfRange("wal lsn " + std::to_string(lsn) +
                            " is below the log head " + std::to_string(head) +
                            ": truncated; re-bootstrap");
}

std::string HeadMarkerName(const std::string& name, uint64_t lsn) {
  return name + ".head." + std::to_string(lsn);
}

}  // namespace

void EncodeWalPayload(WalRecord::Kind kind, int schema_type,
                      int64_t id_or_group, Timestamp begin, Timestamp end,
                      Timestamp interval, int64_t n, const Slice& blob,
                      const Slice& zone_map, std::string* dst) {
  dst->push_back(static_cast<char>(kind));
  PutVarint32(dst, static_cast<uint32_t>(schema_type));
  PutVarintSigned64(dst, id_or_group);
  PutVarintSigned64(dst, begin);
  PutVarintSigned64(dst, end);
  PutVarintSigned64(dst, interval);
  PutVarintSigned64(dst, n);
  PutLengthPrefixed(dst, blob);
  PutLengthPrefixed(dst, zone_map);
}

void WalRecord::EncodeTo(std::string* dst) const {
  EncodeWalPayload(kind, schema_type, id_or_group, begin, end, interval, n,
                   blob, zone_map, dst);
}

bool WalRecord::Decode(Slice input, WalRecord* record) {
  if (input.empty()) return false;
  uint8_t kind = static_cast<uint8_t>(input[0]);
  if (kind < 1 || kind > 7) return false;
  record->kind = static_cast<Kind>(kind);
  input.remove_prefix(1);
  uint32_t schema_type;
  if (!GetVarint32(&input, &schema_type)) return false;
  record->schema_type = static_cast<int>(schema_type);
  Slice blob, zone_map;
  if (!GetVarintSigned64(&input, &record->id_or_group) ||
      !GetVarintSigned64(&input, &record->begin) ||
      !GetVarintSigned64(&input, &record->end) ||
      !GetVarintSigned64(&input, &record->interval) ||
      !GetVarintSigned64(&input, &record->n) ||
      !GetLengthPrefixed(&input, &blob) ||
      !GetLengthPrefixed(&input, &zone_map)) {
    return false;
  }
  record->blob.assign(blob.data(), blob.size());
  record->zone_map.assign(zone_map.data(), zone_map.size());
  return input.empty();
}

Wal::Wal(storage::SimDisk* disk, std::string name, uint64_t file_bytes,
         storage::FileId first)
    : disk_(disk),
      name_(std::move(name)),
      file_bytes_(file_bytes),
      page_size_(disk->page_size()),
      files_{first},
      tail_page_(std::make_unique<char[]>(disk->page_size())) {}

Result<std::unique_ptr<Wal>> Wal::Create(storage::SimDisk* disk,
                                         const std::string& name,
                                         uint64_t file_bytes) {
  if (file_bytes % disk->page_size() != 0) {
    return Status::InvalidArgument("wal file size must be whole pages");
  }
  const std::string first = file_bytes == 0 ? name : name + ".0";
  ODH_ASSIGN_OR_RETURN(storage::FileId file, disk->CreateFile(first));
  return std::unique_ptr<Wal>(new Wal(disk, name, file_bytes, file));
}

std::string Wal::FileName(uint64_t index) const {
  return file_bytes_ == 0 ? name_ : name_ + "." + std::to_string(index);
}

Result<storage::FileId> Wal::FileFor(uint64_t lsn) const {
  const uint64_t index = FileIndexOf(lsn);
  std::lock_guard<std::mutex> lock(files_mu_);
  if (index < first_file_ || index - first_file_ >= files_.size()) {
    return Status::OutOfRange("wal lsn " + std::to_string(lsn) +
                              " is not in the log");
  }
  return files_[index - first_file_];
}

uint64_t Wal::live_bytes() const {
  std::lock_guard<std::mutex> lock(files_mu_);
  return synced_bytes_.load(std::memory_order_acquire) -
         first_file_ * file_bytes_;
}

uint64_t Wal::Append(const Slice& payload) {
  ODH_CHECK(!payload.empty());
  // Short critical section: framing into the append queue only. Disk I/O
  // is the leader's job in Sync.
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t lsn = appended_lsn_;
  if (file_bytes_ != 0) {
    const uint64_t index = FileIndexOf(lsn);
    if (first_frame_.empty() || first_frame_.rbegin()->first < index) {
      first_frame_.emplace(index, lsn);
    }
  }
  PutFixed32(&pending_, static_cast<uint32_t>(payload.size()));
  PutFixed32(&pending_, storage::Crc32c(payload.data(), payload.size()));
  pending_.append(payload.data(), payload.size());
  appended_lsn_ += kFrameHeader + payload.size();
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  return lsn;
}

Status Wal::WritePageRetry(storage::FileId file, storage::PageNo page,
                           const char* buf) {
  Status status;
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    status = disk_->WritePage(file, page, buf);
    if (!status.IsUnavailable()) return status;
    ++io_retries_;
    Backoff(attempt);
  }
  return status;
}

Result<storage::PageNo> Wal::AllocatePageRetry(storage::FileId file) {
  Result<storage::PageNo> result = Status::Internal("unreachable");
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    result = disk_->AllocatePage(file);
    if (!result.status().IsUnavailable()) return result;
    ++io_retries_;
    Backoff(attempt);
  }
  return result;
}

Status Wal::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  // Group commit: `target` is everything this caller needs durable. If a
  // concurrent leader's batch covers it, piggyback on that sync; otherwise
  // become the leader once the active one (if any) finishes.
  const uint64_t target = records_appended_.load(std::memory_order_relaxed);
  bool waited = false;
  for (;;) {
    if (records_synced_.load(std::memory_order_relaxed) >= target) {
      if (waited && piggybacked_ != nullptr) piggybacked_->Add();
      return Status::OK();
    }
    if (!sync_active_) break;
    sync_cv_.wait(lock);
    waited = true;
  }

  // Leader: take the whole queue (our records plus any appended since) and
  // write it with the mutex released, so appenders keep streaming into the
  // spare queue, which the previous leader emptied but did not release: a
  // queue of the last batch's size does not regrow from zero.
  // tail_pages_, tail_page_ and spare_ are leader-only state, handed from
  // leader to leader through mu_.
  sync_active_ = true;
  std::string batch;
  batch.swap(spare_);
  batch.swap(pending_);
  const uint64_t batch_target =
      records_appended_.load(std::memory_order_relaxed);
  lock.unlock();

  const Stopwatch sync_timer;
  Status result = Status::OK();
  size_t consumed = 0;
  while (consumed < batch.size()) {
    const uint64_t synced = synced_bytes_.load(std::memory_order_relaxed);
    const uint64_t index = FileIndexOf(synced);
    const uint64_t in_file = synced - index * file_bytes_;
    const uint64_t page = in_file / page_size_;
    const size_t offset = in_file % page_size_;
    storage::FileId file;
    {
      std::unique_lock<std::mutex> files_lock(files_mu_);
      if (index - first_file_ < files_.size()) {
        file = files_[index - first_file_];
      } else {
        // The stream crossed into the next rolled file.
        files_lock.unlock();
        Result<storage::FileId> created = disk_->CreateFile(FileName(index));
        if (!created.ok()) {
          result = created.status();
          break;
        }
        file = *created;
        files_lock.lock();
        files_.push_back(file);
        tail_pages_ = 0;
      }
    }
    if (page >= tail_pages_) {
      Result<storage::PageNo> allocated = AllocatePageRetry(file);
      if (!allocated.ok()) {
        result = allocated.status();
        break;
      }
      ODH_CHECK(*allocated == page);
      ++tail_pages_;
      std::memset(tail_page_.get(), 0, page_size_);
    }
    size_t n = std::min(page_size_ - offset, batch.size() - consumed);
    std::memcpy(tail_page_.get() + offset, batch.data() + consumed, n);
    Status written = WritePageRetry(file, static_cast<storage::PageNo>(page),
                                    tail_page_.get());
    if (!written.ok()) {
      result = written;
      break;
    }
    // Release pairs with ReadDurable's acquire: a cursor that observes the
    // advanced watermark must also observe the page bytes behind it.
    synced_bytes_.store(synced + n, std::memory_order_release);
    consumed += n;
  }

  if (sync_hist_ != nullptr) sync_hist_->Observe(sync_timer.ElapsedMicros());
  if (group_commits_ != nullptr) group_commits_->Add();

  lock.lock();
  if (result.ok()) {
    records_synced_.store(batch_target, std::memory_order_relaxed);
  } else {
    // The durable prefix (previous iterations) stays durable. The
    // unwritten suffix goes back to the FRONT of the queue — ahead of
    // anything appended while we were writing — so log order always
    // equals append order.
    batch.erase(0, consumed);
    batch.append(pending_);
    pending_.swap(batch);
  }
  batch.clear();
  spare_.swap(batch);
  sync_active_ = false;
  lock.unlock();
  sync_cv_.notify_all();
  return result;
}

Status Wal::ReleaseBelow(uint64_t lsn) {
  if (file_bytes_ == 0) return Status::OK();  // The flat log only grows.
  if (lsn > synced_bytes_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("wal release past the durable end");
  }
  // Whole files go: the new head is the first record of the file holding
  // `lsn` (`lsn` itself when no earlier record starts in that file).
  const uint64_t keep = FileIndexOf(lsn);
  uint64_t head = lsn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = first_frame_.find(keep);
    if (it != first_frame_.end()) head = std::min(head, it->second);
    first_frame_.erase(first_frame_.begin(), first_frame_.lower_bound(keep));
  }
  const uint64_t old_head = head_lsn();
  if (head <= old_head) return Status::OK();
  // The new head is durable before anything below it goes: recovery reads
  // from the newest marker, and every file at or above it still exists.
  ODH_RETURN_IF_ERROR(
      disk_->CreateFile(HeadMarkerName(name_, head)).status());
  head_lsn_.store(head, std::memory_order_release);
  if (old_head > 0) {
    Status removed = disk_->DeleteFile(HeadMarkerName(name_, old_head));
    if (!removed.ok() && !removed.IsNotFound()) return removed;
  }
  std::vector<uint64_t> dead;
  {
    std::lock_guard<std::mutex> lock(files_mu_);
    while (!files_.empty() && first_file_ < keep) {
      dead.push_back(first_file_);
      files_.pop_front();
      ++first_file_;
    }
  }
  for (uint64_t index : dead) {
    ODH_RETURN_IF_ERROR(disk_->DeleteFile(FileName(index)));
    bytes_released_.fetch_add(file_bytes_, std::memory_order_relaxed);
    if (bytes_released_counter_ != nullptr) {
      bytes_released_counter_->Add(static_cast<int64_t>(file_bytes_));
    }
  }
  return Status::OK();
}

Result<Wal::TailChunk> Wal::ReadDurable(uint64_t from_lsn,
                                        size_t max_bytes) const {
  TailChunk out;
  const uint64_t durable = synced_bytes_.load(std::memory_order_acquire);
  out.durable_lsn = durable;
  out.next_lsn = from_lsn;
  if (from_lsn > durable) {
    return Status::OutOfRange("lsn " + std::to_string(from_lsn) +
                              " beyond durable log end " +
                              std::to_string(durable));
  }
  if (from_lsn < head_lsn()) {
    return Truncated(from_lsn, head_lsn());
  }
  if (from_lsn == durable) return out;

  // Pages are loaded lazily as frames demand them (a blob record may
  // straddle several pages and files); a transient read fault retries with
  // the same bounded backoff the write path uses. A file freed under the
  // read (a release raced past an unpinned cursor) reads as truncation.
  const uint64_t base = (from_lsn / page_size_) * page_size_;
  std::string buf;
  uint64_t loaded_end = base;
  auto ensure = [&](uint64_t upto) -> Status {
    while (loaded_end < upto) {
      Result<storage::FileId> file = FileFor(loaded_end);
      if (!file.ok()) return Truncated(from_lsn, head_lsn());
      const auto page = static_cast<storage::PageNo>(
          (loaded_end - FileIndexOf(loaded_end) * file_bytes_) / page_size_);
      const size_t off = buf.size();
      buf.resize(off + page_size_);
      Status read;
      for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
        read = disk_->ReadPage(*file, page, &buf[off]);
        if (!read.IsUnavailable()) break;
        Backoff(attempt);
      }
      if (read.IsNotFound()) return Truncated(from_lsn, head_lsn());
      ODH_RETURN_IF_ERROR(read);
      loaded_end += page_size_;
    }
    return Status::OK();
  };

  uint64_t pos = from_lsn;
  size_t produced = 0;
  while (pos + kFrameHeader <= durable && produced < max_bytes) {
    ODH_RETURN_IF_ERROR(ensure(pos + kFrameHeader));
    const char* header = buf.data() + (pos - base);
    const uint32_t len = DecodeFixed32(header);
    const uint32_t crc = DecodeFixed32(header + 4);
    if (len == 0) {
      return Status::DataLoss("zero-length frame below the durable "
                              "watermark at lsn " + std::to_string(pos));
    }
    // A frame straddling the watermark is still being synced; it becomes
    // readable once the watermark moves past it.
    if (pos + kFrameHeader + len > durable) break;
    ODH_RETURN_IF_ERROR(ensure(pos + kFrameHeader + len));
    const char* payload = buf.data() + (pos - base) + kFrameHeader;
    if (storage::Crc32c(payload, len) != crc) {
      return Status::DataLoss("crc mismatch below the durable watermark "
                              "at lsn " + std::to_string(pos));
    }
    out.records.emplace_back(payload, len);
    produced += len;
    pos += kFrameHeader + len;
  }
  out.next_lsn = pos;
  return out;
}

Result<Wal::ReadResult> Wal::ReadLog(storage::SimDisk* disk,
                                     const std::string& name,
                                     uint64_t file_bytes) {
  ReadResult result;
  const size_t page_size = disk->page_size();
  // The files holding the log from its head on, in LSN order.
  std::vector<storage::FileId> files;
  uint64_t start = 0;  // LSN of the first byte of files[0].
  if (file_bytes == 0) {
    Result<storage::FileId> file = disk->OpenFile(name);
    if (file.status().IsNotFound()) return result;  // Never synced.
    ODH_RETURN_IF_ERROR(file.status());
    files.push_back(*file);
  } else {
    // The newest head marker wins: a crash between creating it and
    // deleting its predecessor leaves both.
    const std::string marker_prefix = name + ".head.";
    for (const std::string& f : disk->ListFiles()) {
      if (f.compare(0, marker_prefix.size(), marker_prefix) != 0) continue;
      const std::string digits = f.substr(marker_prefix.size());
      if (digits.empty() || digits.size() > 19 ||
          digits.find_first_not_of("0123456789") != std::string::npos) {
        continue;  // Not a marker this log wrote.
      }
      result.head_lsn = std::max<uint64_t>(result.head_lsn,
                                           std::stoull(digits));
    }
    start = result.head_lsn / file_bytes * file_bytes;
    for (uint64_t index = result.head_lsn / file_bytes;; ++index) {
      Result<storage::FileId> file =
          disk->OpenFile(name + "." + std::to_string(index));
      if (file.status().IsNotFound()) break;
      ODH_RETURN_IF_ERROR(file.status());
      files.push_back(*file);
    }
  }

  // Concatenate the pages. Every rolled file but the tail is full; a short
  // one ends the log (nothing after it can be contiguous).
  std::string log;
  for (size_t i = 0; i < files.size(); ++i) {
    ODH_ASSIGN_OR_RETURN(uint32_t pages, disk->PageCount(files[i]));
    const size_t off = log.size();
    log.resize(off + static_cast<size_t>(pages) * page_size);
    for (uint32_t p = 0; p < pages; ++p) {
      ODH_RETURN_IF_ERROR(
          disk->ReadPage(files[i], p, &log[off + p * page_size]));
    }
    if (file_bytes != 0 && pages * page_size < file_bytes) break;
  }

  // Logical end of the log: the last non-zero byte. Anything between the
  // first bad frame and this point is a torn tail.
  size_t logical_end = log.size();
  while (logical_end > 0 && log[logical_end - 1] == '\0') --logical_end;

  const size_t first = static_cast<size_t>(result.head_lsn - start);
  size_t pos = first;
  while (pos + kFrameHeader <= log.size()) {
    uint32_t len = DecodeFixed32(log.data() + pos);
    uint32_t crc = DecodeFixed32(log.data() + pos + 4);
    if (len == 0) break;  // Zero-filled region: clean end of log.
    if (pos + kFrameHeader + len > log.size()) break;  // Torn length.
    const char* payload = log.data() + pos + kFrameHeader;
    if (storage::Crc32c(payload, len) != crc) break;  // Torn payload.
    result.records.emplace_back(payload, len);
    pos += kFrameHeader + len;
  }
  result.valid_bytes = pos - first;
  if (logical_end > pos) result.torn_bytes_dropped = logical_end - pos;
  return result;
}

}  // namespace odh::core
