#ifndef ODH_CORE_WAL_H_
#define ODH_CORE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/slice.h"
#include "core/config.h"
#include "storage/sim_disk.h"

namespace odh::core {

/// One logical redo record: a blob Put against a container (or, for the
/// reorganizer, an MG blob deletion). The store appends one of these
/// (encoded) to its WAL before the heap/index write, so a crash after Sync
/// can be replayed blob-by-blob into a fresh store.
struct WalRecord {
  enum class Kind : uint8_t {
    kRts = 1,
    kIrts = 2,
    kMg = 3,
    /// The reorganizer removed an MG blob (it was converted to RTS/IRTS).
    /// On replay this cancels one earlier kMg record with the same
    /// (schema_type, group, begin, end, n); rids are not stable across
    /// recovery, so the match is by content key.
    kMgDelete = 4,
    /// Segment compaction episode. Begin carries the compacted segment's
    /// nominal time bounds in begin/end and its key in id_or_group; the
    /// replacement kRts/kIrts records follow contiguously, then Commit
    /// closes the episode. Recovery replays a committed episode's
    /// replacement blobs and suppresses every earlier data record of that
    /// schema type whose begin falls inside the bounds; an episode with no
    /// Commit is discarded wholesale (the old segment survives untouched).
    kSegmentCompactBegin = 5,
    kSegmentCompactCommit = 6,
    /// Retention dropped a whole segment: same bounds-in-record layout as
    /// kSegmentCompactBegin. Recovery suppresses every earlier data record
    /// of that schema type whose begin falls inside [begin, end].
    kSegmentDrop = 7,
  };

  Kind kind = Kind::kRts;
  int schema_type = 0;
  int64_t id_or_group = 0;  // SourceId for RTS/IRTS, group for MG.
  Timestamp begin = 0;
  Timestamp end = 0;
  Timestamp interval = 0;  // RTS only.
  int64_t n = 0;
  std::string blob;        // Empty for kMgDelete.
  std::string zone_map;

  void EncodeTo(std::string* dst) const;
  static bool Decode(Slice input, WalRecord* record);
};

/// Encodes a record from loose fields, sparing the caller the string copies
/// a temporary WalRecord would make (Put is the ingest hot path).
void EncodeWalPayload(WalRecord::Kind kind, int schema_type,
                      int64_t id_or_group, Timestamp begin, Timestamp end,
                      Timestamp interval, int64_t n, const Slice& blob,
                      const Slice& zone_map, std::string* dst);

/// An append-only log on SimDisk files, written with raw page I/O (no
/// buffer pool, so no page-trailer checksum — each record carries its own
/// CRC32C instead, which is what lets recovery find the torn tail).
///
/// On-disk format: records are packed back to back, each framed as
///
///   [u32 payload_len][u32 crc32c(payload)][payload bytes]
///
/// with no alignment — a record may straddle pages (and files). An LSN is
/// a byte offset into this stream, counted from the first record the log
/// ever held; LSNs stay absolute when the front of the log is freed. The
/// tail page is rewritten in place as it fills. A zero-filled region
/// (fresh pages) marks the end of the log; a frame whose length overruns
/// the file or whose CRC does not match the payload is a torn tail and
/// everything from it on is discarded by ReadLog.
///
/// Two layouts:
///  - flat (`file_bytes == 0`): one file, `name`, that only grows;
///  - rolled: files `<name>.<n>` of `file_bytes` each, file n holding LSNs
///    [n * file_bytes, (n + 1) * file_bytes). ReleaseBelow(lsn) frees the
///    front of the log a whole file at a time: it first creates the empty
///    marker file `<name>.head.<head>`, where the head is the first record
///    of the file holding `lsn`, then deletes the previous marker and every
///    file below. ReadLog starts at the newest marker, so any crash between
///    those steps reads the same log.
///    File creation and deletion are atomic metadata operations on
///    SimDisk; a real-file backend would sync the directory after each.
///    A live record is never rewritten.
///
/// Append only buffers in memory; Sync makes the buffered suffix durable
/// (retrying transient faults with bounded backoff). Crash-consistency
/// contract: records appended before a Sync that returned OK survive a
/// power cut; records appended after the last successful Sync are lost.
///
/// Thread-safe with leader-based group commit: Append is a short critical
/// section on the append queue; concurrent Sync callers elect one leader
/// that drains the whole queue to disk while followers wait. A follower
/// whose records were covered by the leader's batch returns OK without
/// touching the disk; one that arrived too late (or whose leader failed)
/// retries as the next leader. This keeps PR 1's recovery contract intact
/// under multi-threaded ingestion: log order equals Append order, and a
/// successful Sync makes every record appended before it durable.
class Wal {
 public:
  /// Creates the log (fails if its first file exists). `file_bytes` == 0
  /// selects the flat layout; otherwise it is the size of each rolled file,
  /// a multiple of the disk's page size.
  static Result<std::unique_ptr<Wal>> Create(storage::SimDisk* disk,
                                             const std::string& name,
                                             uint64_t file_bytes = 0);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Frames `payload` and buffers it for the next Sync. Returns the
  /// record's LSN (the byte offset of its frame).
  uint64_t Append(const Slice& payload);

  /// Writes all buffered bytes to disk. On failure the already-durable
  /// prefix stays durable and the unwritten suffix stays buffered.
  Status Sync();

  uint64_t records_appended() const {
    return records_appended_.load(std::memory_order_relaxed);
  }
  uint64_t records_synced() const {
    return records_synced_.load(std::memory_order_relaxed);
  }
  uint64_t synced_bytes() const {
    return synced_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t pending_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  }
  /// LSN the next appended record will get (durable or not).
  uint64_t appended_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return appended_lsn_;
  }

  /// Frees the rolled files wholly below the one holding `lsn`, a frame
  /// boundary at or below synced_bytes(). The head moves to the first
  /// record of that file, where recovery and ReadDurable start from then
  /// on: the records between it and `lsn` stay readable. A no-op in the
  /// flat layout and when the head would not move.
  Status ReleaseBelow(uint64_t lsn);

  /// Lowest LSN still in the log (0 until the first release).
  uint64_t head_lsn() const {
    return head_lsn_.load(std::memory_order_acquire);
  }
  /// Durable log bytes still held on disk: from the start of the oldest
  /// surviving file to the durable end.
  uint64_t live_bytes() const;
  /// Log bytes freed by deleting whole files.
  uint64_t bytes_released() const {
    return bytes_released_.load(std::memory_order_relaxed);
  }
  /// Transparent retries of transient faults during Sync.
  uint64_t io_retries() const {
    return io_retries_.load(std::memory_order_relaxed);
  }

  /// Hooks group-commit observability up: per-leader batch latency lands
  /// in `sync_hist`, each leader-written batch bumps `group_commits`, and
  /// each follower whose records were made durable by someone else's batch
  /// bumps `piggybacked`. Takes pre-resolved instruments (any may be null)
  /// rather than a registry so callers holding their own locks never
  /// acquire the registry mutex — gauges sample those same callers while
  /// the registry collects, and nesting the locks both ways deadlocks.
  void SetInstruments(common::Histogram* sync_hist,
                      common::Counter* group_commits,
                      common::Counter* piggybacked,
                      common::Counter* bytes_released = nullptr) {
    sync_hist_ = sync_hist;
    group_commits_ = group_commits;
    piggybacked_ = piggybacked;
    bytes_released_counter_ = bytes_released;
  }

  struct ReadResult {
    std::vector<std::string> records;  // Decoded payloads, in log order.
    uint64_t head_lsn = 0;             // LSN of the first record.
    uint64_t valid_bytes = 0;          // Frame bytes of `records`.
    uint64_t torn_bytes_dropped = 0;   // Non-zero trailing bytes discarded.
  };

  /// Scans the log on `disk` (typically a post-crash CloneDurable()) and
  /// returns every record from the head up to the first torn or corrupt
  /// frame. `file_bytes` names the layout, as in Create. A missing log
  /// yields an empty result, not an error: a store that never synced has
  /// nothing to recover.
  static Result<ReadResult> ReadLog(storage::SimDisk* disk,
                                    const std::string& name,
                                    uint64_t file_bytes = 0);

  /// One chunk of the durable log, read by a replication cursor. An LSN is
  /// a byte offset into the log; LSNs handed out here are always frame
  /// boundaries, so `next_lsn` can be fed straight back into ReadDurable.
  struct TailChunk {
    std::vector<std::string> records;  // Decoded payloads, in log order.
    uint64_t next_lsn = 0;             // Resume position (frame-aligned).
    uint64_t durable_lsn = 0;          // Durable log length at read time.
  };

  /// Cursor read over the live log: decodes complete frames starting at
  /// byte offset `from_lsn` (0 or a `next_lsn` returned earlier), stopping
  /// once roughly `max_bytes` of payload have been collected or the
  /// durable watermark is reached. Only bytes below synced_bytes() are
  /// trusted — a frame still being written by a concurrent Sync straddles
  /// the watermark and is left for the next call. Thread-safe against
  /// concurrent Append/Sync: the durable prefix is immutable (the tail
  /// page is only ever extended, and page I/O is serialized by the disk).
  /// A CRC mismatch below the watermark is real corruption, not a torn
  /// tail, and fails with kDataLoss. A `from_lsn` below the head (freed by
  /// ReleaseBelow) fails with kOutOfRange.
  Result<TailChunk> ReadDurable(uint64_t from_lsn, size_t max_bytes) const;

 private:
  Wal(storage::SimDisk* disk, std::string name, uint64_t file_bytes,
      storage::FileId first);

  /// Name of rolled file `index` (the flat file's name for index 0 of a
  /// flat log).
  std::string FileName(uint64_t index) const;
  /// Index of the file holding `lsn`; always 0 in the flat layout.
  uint64_t FileIndexOf(uint64_t lsn) const {
    return file_bytes_ == 0 ? 0 : lsn / file_bytes_;
  }
  /// The file holding `lsn`, or OutOfRange when it was freed.
  Result<storage::FileId> FileFor(uint64_t lsn) const;

  Status WritePageRetry(storage::FileId file, storage::PageNo page,
                        const char* buf);
  Result<storage::PageNo> AllocatePageRetry(storage::FileId file);

  storage::SimDisk* disk_;
  const std::string name_;
  const uint64_t file_bytes_;  // 0 = flat.
  size_t page_size_;

  /// Files of the log, index first_file_ onward. Guarded by files_mu_ (a
  /// leaf lock; no disk I/O under it): the Sync leader appends, ReleaseBelow
  /// pops, ReadDurable looks up.
  mutable std::mutex files_mu_;
  std::deque<storage::FileId> files_;
  uint64_t first_file_ = 0;

  /// Guards the append queue and the group-commit handshake. Disk I/O
  /// happens with mu_ released (only the elected leader touches the
  /// leader-only fields below, so they need no lock of their own).
  mutable std::mutex mu_;
  std::condition_variable sync_cv_;
  bool sync_active_ = false;            // A leader is writing.
  std::string pending_;                 // Framed, not yet durable.
  uint64_t appended_lsn_ = 0;           // LSN after the last Append.
  /// Rolled layout: LSN of the first record starting in each file (index
  /// -> LSN), the head candidates for ReleaseBelow.
  std::map<uint64_t, uint64_t> first_frame_;

  // Leader-only state (handed off leader-to-leader through mu_).
  uint64_t tail_pages_ = 0;             // Pages allocated in the tail file.
  std::unique_ptr<char[]> tail_page_;   // Image of the last durable page.
  std::string spare_;                   // Empty queue that keeps capacity.

  std::atomic<uint64_t> synced_bytes_{0};  // Durable log end (an LSN).
  std::atomic<uint64_t> head_lsn_{0};
  std::atomic<uint64_t> bytes_released_{0};
  std::atomic<uint64_t> records_appended_{0};
  std::atomic<uint64_t> records_synced_{0};
  std::atomic<uint64_t> io_retries_{0};

  // Registry-backed instruments; null until SetMetrics. Bumped per sync
  // batch, never per record.
  common::Histogram* sync_hist_ = nullptr;
  common::Counter* group_commits_ = nullptr;
  common::Counter* piggybacked_ = nullptr;
  common::Counter* bytes_released_counter_ = nullptr;
};

}  // namespace odh::core

#endif  // ODH_CORE_WAL_H_
