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

  /// Keeps one fetched record readable without copying it off its page.
  /// A record on a slotted page is viewed in place while the buffer pins
  /// that page. Of an overflow chain, a head read (ReadHead, or an
  /// iterator positioned on it) views the bytes on the pinned head page
  /// and fetches nothing else; the rest is read by range (ReadRange) or
  /// assembled whole into the buffer's own string (Read). Reusing one
  /// buffer across reads keeps that string's capacity; each read unpins
  /// the previous page before it fetches.
  class RecordBuffer {
   public:
    /// The bytes of the record read last that are on hand: the whole
    /// record once complete(), otherwise the head of its overflow chain.
    /// Valid until the next read or destruction.
    Slice data() const { return view_; }
    /// Length of the whole record.
    size_t size() const { return size_; }
    bool complete() const { return view_.size() == size_; }
    /// Unpins the page (the view becomes invalid).
    void Release() {
      page_.Release();
      view_ = Slice();
      size_ = 0;
    }

   private:
    friend class HeapFile;
    friend class HeapFile::Iterator;
    storage::PageRef page_;
    std::string assembled_;
    Slice view_;  // Into the pinned page, or into assembled_.
    size_t size_ = 0;
  };

  /// Reads the whole record at `rid` into *out. NotFound for
  /// deleted/invalid Rids.
  Status Read(const Rid& rid, RecordBuffer* out);

  /// Reads the head of the record at `rid` into *out: the whole record
  /// when it fits on a page, the bytes on the head page of an overflow
  /// chain otherwise (one page fetch either way). NotFound for
  /// deleted/invalid Rids.
  Status ReadHead(const Rid& rid, RecordBuffer* out);

  /// Appends bytes [offset, offset + len) of the record whose head `head`
  /// holds to *out. Bytes on hand are copied from the buffer; the others
  /// come from the chain's continuation pages, which follow its head
  /// page, so a byte range maps to pages by arithmetic and only the pages
  /// it covers are fetched (each checked by the pool's CRC on a disk
  /// read). OutOfRange for a range past the record; Corruption for a page
  /// that is not a continuation page.
  Status ReadRange(const RecordBuffer& head, uint64_t offset, size_t len,
                   std::string* out);

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
  /// one fetch. An overflow chain is yielded as its head, unassembled:
  /// record() assembles it, ReadRange reads parts of it. Records appended
  /// while it is open are seen when it reaches them: the page count is
  /// re-read from the disk only once the iterator passes the last page it
  /// knows of.
  class Iterator {
   public:
    /// Positions on the first record; check Valid() afterwards.
    Status SeekToFirst();
    /// Positions on the first live record physically after `rid` (the
    /// resume point of a chunked scan; physical order is stable for
    /// insert-only tables). Check Valid() afterwards.
    Status SeekAfter(const Rid& rid);
    bool Valid() const { return valid_; }
    /// Moves to the next record. Past a chain that record() assembled it
    /// walks the chain's (cached) pages as a whole-record scan always has,
    /// which keeps the pool's eviction order of such scans; past one it
    /// did not, it steps over the chain by arithmetic, so pages nobody
    /// asked for stay unread.
    Status Next();
    /// The whole current record: in place on the pinned page, or an
    /// overflow chain assembled into the iterator's buffer on the first
    /// call. Valid until the next Seek*/Next.
    Result<Slice> record();
    /// The current record's head (see HeapFile::ReadHead), for ReadRange.
    const RecordBuffer& buffer() const { return record_; }
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
  /// Points *buf at the record in `slot` of its pinned page (kOverflowSlot:
  /// the overflow chain headed there). NotFound for a page of another
  /// kind, a bad slot or a deleted record.
  Status ViewRecord(uint32_t slot, RecordBuffer* buf);
  /// Assembles the overflow chain whose head *buf holds into
  /// buf->assembled_, which becomes the buffer's whole record.
  Status Assemble(RecordBuffer* buf);
  /// Pages an overflow chain of a `size`-byte record occupies, head
  /// included.
  uint32_t ChainPages(size_t size) const;

  storage::BufferPool* pool_;
  storage::FileId file_;
  // Page the next small insert should try first; -1 when none yet.
  int64_t current_page_ = -1;
  std::atomic<int64_t> record_count_{0};
  uint32_t page_count_ = 0;
};

}  // namespace odh::relational

#endif  // ODH_RELATIONAL_HEAP_FILE_H_
