#ifndef ODH_RELATIONAL_HEAP_FILE_H_
#define ODH_RELATIONAL_HEAP_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "storage/buffer_pool.h"

namespace odh::relational {

/// Record id: the physical address of a heap record.
struct Rid {
  storage::PageNo page = 0;
  uint32_t slot = 0;

  bool operator==(const Rid&) const = default;

  /// 8-byte fixed encoding used as B-tree index values / key suffixes.
  std::string Encode() const;
  static bool Decode(Slice input, Rid* rid);
};

/// Unordered record storage in slotted pages. Records larger than a page
/// are stored in overflow page chains (needed for ODH ValueBlobs, which can
/// exceed a page at large batch sizes).
///
/// Deletion marks slots dead; space is not compacted (the paper's workloads
/// are append-heavy; only the MG reorganizer deletes).
class HeapFile {
 public:
  static Result<std::unique_ptr<HeapFile>> Create(storage::BufferPool* pool,
                                                  const std::string& name);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Appends a record, returning its Rid.
  Result<Rid> Insert(const Slice& record);

  class Iterator;

  /// Keeps one fetched record readable without copying it off its page:
  /// a record on a slotted page is viewed in place while the buffer pins
  /// that page; an overflow chain is assembled into the buffer's own
  /// string. Reusing one buffer across reads keeps that string's capacity;
  /// each read unpins the previous page before it fetches.
  class RecordBuffer {
   public:
    /// The record read last; valid until the next read or destruction.
    Slice data() const { return assembled_view_ ? Slice(assembled_) : view_; }
    /// Unpins the page (the view becomes invalid).
    void Release() {
      page_.Release();
      view_ = Slice();
      assembled_view_ = false;
    }

   private:
    friend class HeapFile;
    friend class HeapFile::Iterator;
    storage::PageRef page_;
    std::string assembled_;
    Slice view_;  // Into the pinned page, unless assembled_view_.
    bool assembled_view_ = false;
  };

  /// Reads the record at `rid` into *out. NotFound for deleted/invalid
  /// Rids.
  Status Read(const Rid& rid, RecordBuffer* out);

  /// Fetches a copy of a record by Rid. NotFound for deleted/invalid Rids.
  Result<std::string> Get(const Rid& rid);

  /// Marks a record deleted. Overflow chains release their pages' content
  /// logically (pages remain allocated; see class comment).
  Status Delete(const Rid& rid);

  /// Safe to read while another thread inserts: the SQL planner sizes a
  /// table from it without the engine's write mutex that inserts hold.
  int64_t record_count() const {
    return record_count_.load(std::memory_order_relaxed);
  }
  storage::FileId file() const { return file_; }

  /// Sequential scan over live records in physical order. The iterator
  /// keeps the page of its current record pinned until it moves to another
  /// page, is exhausted or is destroyed, so a page of small records costs
  /// one fetch. Records appended while it is open are seen when it reaches
  /// them: the page count is re-read from the disk only once the iterator
  /// passes the last page it knows of.
  class Iterator {
   public:
    /// Positions on the first record; check Valid() afterwards.
    Status SeekToFirst();
    /// Positions on the first live record physically after `rid` (the
    /// resume point of a chunked scan; physical order is stable for
    /// insert-only tables). Check Valid() afterwards.
    Status SeekAfter(const Rid& rid);
    bool Valid() const { return valid_; }
    Status Next();
    /// The current record, in place on the pinned page (or, for an
    /// overflow chain, in the iterator's buffer); valid until the next
    /// Seek*/Next.
    Slice record() const { return record_.data(); }
    Rid rid() const { return rid_; }

   private:
    friend class HeapFile;
    explicit Iterator(HeapFile* file) : file_(file) {}

    /// Advances from the current position to the next live record.
    Status FindNext();

    HeapFile* file_;
    bool valid_ = false;
    storage::PageNo page_ = 0;
    uint32_t slot_ = 0;
    /// Pages of the file as last read from the disk.
    uint32_t known_pages_ = 0;
    /// Pins page_ while the iterator stands on it.
    RecordBuffer record_;
    Rid rid_;
  };

  Iterator NewIterator() { return Iterator(this); }

 private:
  HeapFile(storage::BufferPool* pool, storage::FileId file)
      : pool_(pool), file_(file) {}

  Result<Rid> InsertOverflow(const Slice& record);

  /// Pins page `no` in *buf, unpinning the page it held first (unless it
  /// is the same page).
  Status PinPage(storage::PageNo no, RecordBuffer* buf);
  /// Assembles the overflow chain whose head is page `no`, pinned in *buf,
  /// into buf->assembled_ and makes it the buffer's record. NotFound for a
  /// deleted chain.
  Status AssembleOverflow(storage::PageNo no, RecordBuffer* buf);

  storage::BufferPool* pool_;
  storage::FileId file_;
  // Page the next small insert should try first; -1 when none yet.
  int64_t current_page_ = -1;
  std::atomic<int64_t> record_count_{0};
  uint32_t page_count_ = 0;
};

}  // namespace odh::relational

#endif  // ODH_RELATIONAL_HEAP_FILE_H_
