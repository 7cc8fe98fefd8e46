#include "relational/heap_file.h"

#include <cstring>

#include "common/coding.h"
#include "common/logging.h"

namespace odh::relational {
namespace {

constexpr char kSlottedPage = 1;
constexpr char kOverflowFirst = 2;
constexpr char kOverflowCont = 3;

constexpr size_t kSlottedHeader = 8;   // type(1) pad(1) slot_count(2) end(2) pad(2)
constexpr size_t kSlotBytes = 4;       // offset(2) len(2)
constexpr size_t kOverflowFirstHeader = 8;  // type(1) pad(3) total_len(4)
constexpr size_t kOverflowContHeader = 4;   // type(1) pad(3)
constexpr uint32_t kOverflowSlot = 0xFFFFFFFF;
// Slot offset marking a deleted record (never a valid data offset).
constexpr uint16_t kDeletedOffset = 0xFFFF;

uint16_t ReadU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
void WriteU16(char* p, uint16_t v) { std::memcpy(p, &v, 2); }

}  // namespace

std::string Rid::Encode() const {
  // Big-endian so the 8-byte encoding is memcmp-ordered: index keys use it
  // as a uniquifying suffix, and equal-prefix entries must iterate in
  // insertion (allocation) order.
  std::string out(8, '\0');
  uint32_t p = page, s = slot;
  for (int i = 3; i >= 0; --i) {
    out[i] = static_cast<char>(p & 0xff);
    p >>= 8;
    out[4 + i] = static_cast<char>(s & 0xff);
    s >>= 8;
  }
  return out;
}

bool Rid::Decode(Slice input, Rid* rid) {
  if (input.size() < 8) return false;
  rid->page = 0;
  rid->slot = 0;
  for (int i = 0; i < 4; ++i) {
    rid->page = (rid->page << 8) | static_cast<unsigned char>(input[i]);
    rid->slot = (rid->slot << 8) | static_cast<unsigned char>(input[4 + i]);
  }
  return true;
}

Result<std::unique_ptr<HeapFile>> HeapFile::Create(
    storage::BufferPool* pool, const std::string& name) {
  ODH_ASSIGN_OR_RETURN(storage::FileId file, pool->disk()->CreateFile(name));
  return std::unique_ptr<HeapFile>(new HeapFile(pool, file));
}

Result<Rid> HeapFile::Insert(const Slice& record) {
  // Client-usable bytes; the pool reserves a checksum trailer past this.
  const size_t page_size = pool_->usable_page_size();
  const size_t max_inline = page_size - kSlottedHeader - kSlotBytes;
  if (record.size() > max_inline) return InsertOverflow(record);

  // Try the current append page, else start a new one.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (current_page_ < 0) {
      storage::PageNo page_no;
      ODH_ASSIGN_OR_RETURN(storage::PageRef page,
                           pool_->NewPage(file_, &page_no));
      char* p = page.data();
      p[0] = kSlottedPage;
      WriteU16(p + 2, 0);
      WriteU16(p + 4, static_cast<uint16_t>(kSlottedHeader));
      page.MarkDirty();
      current_page_ = page_no;
      ++page_count_;
    }
    ODH_ASSIGN_OR_RETURN(
        storage::PageRef page,
        pool_->FetchPage(file_, static_cast<storage::PageNo>(current_page_)));
    char* p = page.data();
    uint16_t slot_count = ReadU16(p + 2);
    uint16_t data_end = ReadU16(p + 4);
    size_t slots_begin = page_size - kSlotBytes * (slot_count + 1);
    if (data_end + record.size() <= slots_begin) {
      std::memcpy(p + data_end, record.data(), record.size());
      char* slot = p + page_size - kSlotBytes * (slot_count + 1);
      WriteU16(slot, data_end);
      WriteU16(slot + 2, static_cast<uint16_t>(record.size()));
      WriteU16(p + 2, static_cast<uint16_t>(slot_count + 1));
      WriteU16(p + 4, static_cast<uint16_t>(data_end + record.size()));
      page.MarkDirty();
      ++record_count_;
      return Rid{static_cast<storage::PageNo>(current_page_), slot_count};
    }
    current_page_ = -1;  // Full: retry on a fresh page.
  }
  return Status::Internal("heap insert failed twice");
}

Result<Rid> HeapFile::InsertOverflow(const Slice& record) {
  const size_t page_size = pool_->usable_page_size();
  storage::PageNo first_page;
  {
    ODH_ASSIGN_OR_RETURN(storage::PageRef page,
                         pool_->NewPage(file_, &first_page));
    char* p = page.data();
    p[0] = kOverflowFirst;
    EncodeFixed32(p + 4, static_cast<uint32_t>(record.size()));
    size_t chunk = std::min(record.size(), page_size - kOverflowFirstHeader);
    std::memcpy(p + kOverflowFirstHeader, record.data(), chunk);
    page.MarkDirty();
    ++page_count_;
    size_t written = chunk;
    while (written < record.size()) {
      storage::PageNo cont_page;
      ODH_ASSIGN_OR_RETURN(storage::PageRef cont,
                           pool_->NewPage(file_, &cont_page));
      char* cp = cont.data();
      cp[0] = kOverflowCont;
      size_t n = std::min(record.size() - written,
                          page_size - kOverflowContHeader);
      std::memcpy(cp + kOverflowContHeader, record.data() + written, n);
      cont.MarkDirty();
      written += n;
      ++page_count_;
    }
  }
  ++record_count_;
  return Rid{first_page, kOverflowSlot};
}

Status HeapFile::PinPage(storage::PageNo no, RecordBuffer* buf) {
  if (buf->page_.valid() && buf->page_.file() == file_ &&
      buf->page_.page_no() == no) {
    return Status::OK();
  }
  // Unpin first: the page read next must not find the previous one pinned
  // (it would then land behind it in the LRU order).
  buf->Release();
  ODH_ASSIGN_OR_RETURN(buf->page_, pool_->FetchPage(file_, no));
  return Status::OK();
}

Status HeapFile::AssembleOverflow(storage::PageNo no, RecordBuffer* buf) {
  const size_t page_size = pool_->usable_page_size();
  const char* p = buf->page_.data();
  const uint32_t total = DecodeFixed32(p + 4);
  if (total == 0) return Status::NotFound("deleted overflow record");
  std::string& out = buf->assembled_;
  out.clear();
  out.reserve(total);
  out.append(p + kOverflowFirstHeader,
             std::min<size_t>(total, page_size - kOverflowFirstHeader));
  storage::PageNo next = no + 1;
  while (out.size() < total) {
    ODH_ASSIGN_OR_RETURN(storage::PageRef cont,
                         pool_->FetchPage(file_, next));
    const char* cp = cont.data();
    if (cp[0] != kOverflowCont) {
      return Status::Corruption("broken overflow chain");
    }
    out.append(cp + kOverflowContHeader,
               std::min<size_t>(total - out.size(),
                                page_size - kOverflowContHeader));
    ++next;
  }
  buf->assembled_view_ = true;
  return Status::OK();
}

Status HeapFile::Read(const Rid& rid, RecordBuffer* out) {
  out->view_ = Slice();
  out->assembled_view_ = false;
  ODH_RETURN_IF_ERROR(PinPage(rid.page, out));
  const char* p = out->page_.data();
  if (rid.slot == kOverflowSlot) {
    if (p[0] != kOverflowFirst) return Status::NotFound("not overflow head");
    return AssembleOverflow(rid.page, out);
  }
  if (p[0] != kSlottedPage) return Status::NotFound("not a slotted page");
  uint16_t slot_count = ReadU16(p + 2);
  if (rid.slot >= slot_count) return Status::NotFound("bad slot");
  const char* slot =
      p + pool_->usable_page_size() - kSlotBytes * (rid.slot + 1);
  uint16_t offset = ReadU16(slot);
  uint16_t len = ReadU16(slot + 2);
  if (offset == kDeletedOffset) return Status::NotFound("deleted record");
  out->view_ = Slice(p + offset, len);
  return Status::OK();
}

Result<std::string> HeapFile::Get(const Rid& rid) {
  RecordBuffer buf;
  ODH_RETURN_IF_ERROR(Read(rid, &buf));
  if (rid.slot == kOverflowSlot) return std::move(buf.assembled_);
  return buf.data().ToString();
}

Status HeapFile::Delete(const Rid& rid) {
  const size_t page_size = pool_->usable_page_size();
  ODH_ASSIGN_OR_RETURN(storage::PageRef page,
                       pool_->FetchPage(file_, rid.page));
  char* p = page.data();
  if (rid.slot == kOverflowSlot) {
    if (p[0] != kOverflowFirst) return Status::NotFound("not overflow head");
    if (DecodeFixed32(p + 4) == 0) return Status::NotFound("already deleted");
    EncodeFixed32(p + 4, 0);
    page.MarkDirty();
    --record_count_;
    return Status::OK();
  }
  if (p[0] != kSlottedPage) return Status::NotFound("not a slotted page");
  uint16_t slot_count = ReadU16(p + 2);
  if (rid.slot >= slot_count) return Status::NotFound("bad slot");
  char* slot = p + page_size - kSlotBytes * (rid.slot + 1);
  if (ReadU16(slot) == kDeletedOffset) {
    return Status::NotFound("already deleted");
  }
  WriteU16(slot, kDeletedOffset);
  page.MarkDirty();
  --record_count_;
  return Status::OK();
}

Status HeapFile::Iterator::SeekToFirst() {
  page_ = 0;
  slot_ = 0;
  valid_ = false;
  return FindNext();
}

Status HeapFile::Iterator::SeekAfter(const Rid& rid) {
  page_ = rid.page;
  // An overflow head is the only record on its page chain; resuming with
  // slot 1 makes FindNext skip it and move past the chain. Slotted pages
  // resume at the next slot.
  slot_ = rid.slot == kOverflowSlot ? 1 : rid.slot + 1;
  valid_ = false;
  return FindNext();
}

Status HeapFile::Iterator::Next() {
  if (!valid_) return Status::FailedPrecondition("iterator not valid");
  ++slot_;
  valid_ = false;
  return FindNext();
}

Status HeapFile::Iterator::FindNext() {
  const size_t page_size = file_->pool_->usable_page_size();
  record_.view_ = Slice();
  record_.assembled_view_ = false;
  while (true) {
    if (page_ >= known_pages_) {
      ODH_ASSIGN_OR_RETURN(known_pages_,
                           file_->pool_->disk()->PageCount(file_->file_));
      if (page_ >= known_pages_) break;
    }
    ODH_RETURN_IF_ERROR(file_->PinPage(page_, &record_));
    const char* p = record_.page_.data();
    if (p[0] == kSlottedPage) {
      uint16_t slot_count = ReadU16(p + 2);
      while (slot_ < slot_count) {
        const char* slot = p + page_size - kSlotBytes * (slot_ + 1);
        uint16_t offset = ReadU16(slot);
        uint16_t len = ReadU16(slot + 2);
        if (offset != kDeletedOffset) {
          record_.view_ = Slice(p + offset, len);
          rid_ = Rid{page_, slot_};
          valid_ = true;
          return Status::OK();
        }
        ++slot_;
      }
    } else if (p[0] == kOverflowFirst && slot_ == 0 &&
               DecodeFixed32(p + 4) != 0) {
      ODH_RETURN_IF_ERROR(file_->AssembleOverflow(page_, &record_));
      rid_ = Rid{page_, kOverflowSlot};
      valid_ = true;
      // Arrange to resume after this overflow chain.
      slot_ = 1;
      return Status::OK();
    }
    // Move to the next page (overflow continuation pages are skipped by
    // their type byte; an overflow head we already yielded resumes here).
    ++page_;
    slot_ = 0;
  }
  // Exhausted: hold no pin.
  record_.Release();
  return Status::OK();
}

}  // namespace odh::relational
