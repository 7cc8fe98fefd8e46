#include "relational/table.h"

#include <cstring>

#include "common/key_codec.h"
#include "common/logging.h"

namespace odh::relational {

Result<std::unique_ptr<Table>> Table::Create(storage::BufferPool* pool,
                                             const std::string& name,
                                             Schema schema,
                                             TableOptions options) {
  std::unique_ptr<Table> table(
      new Table(pool, name, std::move(schema), options));
  ODH_ASSIGN_OR_RETURN(table->heap_,
                       HeapFile::Create(pool, name + ".heap"));
  ODH_ASSIGN_OR_RETURN(table->wal_file_,
                       pool->disk()->CreateFile(name + ".wal"));
  return table;
}

Status Table::AddIndex(const IndexDef& def) {
  for (int col : def.columns) {
    if (col < 0 || col >= static_cast<int>(schema_.num_columns())) {
      return Status::InvalidArgument("index column out of range");
    }
  }
  for (const IndexEntry& e : indexes_) {
    if (NameEquals(e.def.name, def.name)) {
      return Status::AlreadyExists("index exists: " + def.name);
    }
  }
  IndexEntry entry;
  entry.def = def;
  ODH_ASSIGN_OR_RETURN(
      entry.tree,
      index::BTree::Create(pool_, name_ + ".idx." + def.name));
  // Index pre-existing rows.
  auto it = heap_->NewIterator();
  ODH_RETURN_IF_ERROR(it.SeekToFirst());
  while (it.Valid()) {
    Row row;
    ODH_RETURN_IF_ERROR(codec_.Decode(it.record(), &row));
    std::string key;
    KeyEncoder enc(&key);
    for (int col : def.columns) enc.AddDatum(row[col]);
    key += it.rid().Encode();
    ODH_RETURN_IF_ERROR(entry.tree->Insert(key, it.rid().Encode()));
    ODH_RETURN_IF_ERROR(it.Next());
  }
  indexes_.push_back(std::move(entry));
  return Status::OK();
}

int Table::FindIndexOnColumn(int column) const {
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (!indexes_[i].def.columns.empty() &&
        indexes_[i].def.columns[0] == column) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::string Table::IndexKeyFor(int index_no, const Row& row,
                               const Rid& rid) const {
  std::string key;
  KeyEncoder enc(&key);
  for (int col : indexes_[index_no].def.columns) enc.AddDatum(row[col]);
  key += rid.Encode();
  return key;
}

Result<Rid> Table::Insert(const Row& row) {
  std::string encoded;
  ODH_RETURN_IF_ERROR(codec_.Encode(row, &encoded));
  ODH_ASSIGN_OR_RETURN(Rid rid, heap_->Insert(Slice(encoded)));
  for (size_t i = 0; i < indexes_.size(); ++i) {
    std::string key = IndexKeyFor(static_cast<int>(i), row, rid);
    ODH_RETURN_IF_ERROR(indexes_[i].tree->Insert(key, rid.Encode()));
  }
  if (options_.enable_wal) wal_buffer_ += encoded;
  return rid;
}

Result<Rid> Table::InsertEncoded(const Slice& encoded) {
  if (!indexes_.empty()) {
    return Status::FailedPrecondition("encoded insert into an indexed table");
  }
  ODH_ASSIGN_OR_RETURN(Rid rid, heap_->Insert(encoded));
  if (options_.enable_wal) wal_buffer_.append(encoded.data(), encoded.size());
  return rid;
}

Status Table::Commit() {
  if (wal_buffer_.empty()) return Status::OK();
  wal_buffer_.append(options_.wal_commit_overhead_bytes, '\0');
  const size_t page_size = pool_->disk()->page_size();
  storage::SimDisk* disk = pool_->disk();
  size_t written = 0;
  while (written < wal_buffer_.size()) {
    ODH_ASSIGN_OR_RETURN(storage::PageNo page, disk->AllocatePage(wal_file_));
    char buf[65536];
    ODH_CHECK(page_size <= sizeof(buf));
    size_t n = std::min(page_size, wal_buffer_.size() - written);
    std::memcpy(buf, wal_buffer_.data() + written, n);
    std::memset(buf + n, 0, page_size - n);
    ODH_RETURN_IF_ERROR(disk->WritePage(wal_file_, page, buf));
    written += n;
  }
  wal_bytes_written_ += wal_buffer_.size();
  wal_buffer_.clear();
  return Status::OK();
}

Status Table::DestroyStorage() {
  storage::SimDisk* disk = pool_->disk();
  ODH_RETURN_IF_ERROR(pool_->InvalidateFile(heap_->file()));
  ODH_RETURN_IF_ERROR(disk->DeleteFile(name_ + ".heap"));
  ODH_RETURN_IF_ERROR(pool_->InvalidateFile(wal_file_));
  ODH_RETURN_IF_ERROR(disk->DeleteFile(name_ + ".wal"));
  for (const IndexEntry& entry : indexes_) {
    ODH_RETURN_IF_ERROR(pool_->InvalidateFile(entry.tree->file()));
    ODH_RETURN_IF_ERROR(disk->DeleteFile(name_ + ".idx." + entry.def.name));
  }
  indexes_.clear();
  heap_.reset();
  return Status::OK();
}

uint64_t Table::ApproxHeapBytes() const {
  auto bytes = pool_->disk()->FileBytes(heap_->file());
  return bytes.ok() ? bytes.value() : 0;
}

Result<Row> Table::Get(const Rid& rid) {
  HeapFile::RecordBuffer buf;
  ODH_RETURN_IF_ERROR(heap_->Read(rid, &buf));
  Row row;
  ODH_RETURN_IF_ERROR(codec_.Decode(buf.data(), &row));
  return row;
}

Result<Slice> Table::GetRecord(const Rid& rid, HeapFile::RecordBuffer* buf) {
  ODH_RETURN_IF_ERROR(heap_->Read(rid, buf));
  return buf->data();
}

Result<Row> Table::GetColumns(const Rid& rid,
                              const std::vector<int>& columns) {
  HeapFile::RecordBuffer buf;
  ODH_RETURN_IF_ERROR(heap_->Read(rid, &buf));
  Row row;
  ODH_RETURN_IF_ERROR(codec_.DecodeColumns(buf.data(), columns, &row));
  return row;
}

Status Table::Delete(const Rid& rid) {
  ODH_ASSIGN_OR_RETURN(Row row, Get(rid));
  for (size_t i = 0; i < indexes_.size(); ++i) {
    std::string key = IndexKeyFor(static_cast<int>(i), row, rid);
    ODH_RETURN_IF_ERROR(indexes_[i].tree->Delete(key));
  }
  return heap_->Delete(rid);
}

Result<Row> Table::Iterator::row() const {
  Row row;
  ODH_RETURN_IF_ERROR(table_->codec_.Decode(it_.record(), &row));
  return row;
}

Result<Table::IndexIterator> Table::IndexScan(int index_no,
                                              const std::string& lower_key,
                                              const std::string& upper_key) {
  if (index_no < 0 || index_no >= static_cast<int>(indexes_.size())) {
    return Status::InvalidArgument("bad index number");
  }
  auto it = std::make_unique<index::BTree::Iterator>(
      indexes_[index_no].tree->NewIterator());
  if (lower_key.empty()) {
    ODH_RETURN_IF_ERROR(it->SeekToFirst());
  } else {
    ODH_RETURN_IF_ERROR(it->Seek(Slice(lower_key)));
  }
  IndexIterator iter(std::move(it), upper_key);
  iter.CheckBounds();
  return iter;
}

void Table::IndexIterator::CheckBounds() {
  valid_ = false;
  if (!it_->Valid()) return;
  if (!upper_.empty()) {
    // Keys contain an 8-byte rid suffix; a key belongs to the range as long
    // as its prefix is <= upper_. Compare only the prefix length.
    Slice key = it_->key();
    size_t prefix_len = std::min(key.size(), upper_.size());
    int c = std::memcmp(key.data(), upper_.data(), prefix_len);
    if (c > 0) return;
  }
  if (!Rid::Decode(it_->value(), &rid_)) return;
  valid_ = true;
}

Status Table::IndexIterator::Next() {
  if (!valid_) return Status::FailedPrecondition("iterator not valid");
  ODH_RETURN_IF_ERROR(it_->Next());
  CheckBounds();
  return Status::OK();
}

}  // namespace odh::relational
