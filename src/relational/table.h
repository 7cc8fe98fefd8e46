#ifndef ODH_RELATIONAL_TABLE_H_
#define ODH_RELATIONAL_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/btree.h"
#include "relational/heap_file.h"
#include "relational/row_codec.h"
#include "relational/schema.h"

namespace odh::relational {

/// Tuning knobs that differentiate the benchmark's relational baselines
/// (see DESIGN.md: one engine, two profiles).
struct TableOptions {
  /// Reserved bytes per stored row (models row headers / txn metadata).
  uint32_t row_header_bytes = 16;
  /// When false, inserts skip the WAL entirely (ODH's transaction-free
  /// ingestion path); Commit() becomes a no-op.
  bool enable_wal = true;
  /// Bytes of write-ahead log written per committed row batch, in addition
  /// to the encoded rows (models commit records / fsync padding).
  uint32_t wal_commit_overhead_bytes = 64;
};

/// Definition of a secondary index on a table.
struct IndexDef {
  std::string name;
  std::vector<int> columns;  // Column positions forming the key prefix.
};

/// A heap table with any number of secondary B+tree indexes.
///
/// Every Insert updates all indexes record-at-a-time — deliberately the
/// classic relational write path whose B-tree maintenance cost the paper
/// identifies as the baseline bottleneck ("relational databases require a
/// B-Tree update for each record insert").
///
/// Durability is modeled with a write-ahead log: inserted rows accumulate
/// in a WAL buffer that Commit() writes to a log file in page units. Calling
/// Commit() per row models JDBC autocommit; calling it per 1000 rows models
/// the paper's executeBatch configuration.
class Table {
 public:
  static Result<std::unique_ptr<Table>> Create(storage::BufferPool* pool,
                                               const std::string& name,
                                               Schema schema,
                                               TableOptions options = {});

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const RowCodec& codec() const { return codec_; }
  int64_t row_count() const { return heap_->record_count(); }

  /// Adds a secondary index over `def.columns` (must be valid positions).
  /// Existing rows are indexed retroactively.
  Status AddIndex(const IndexDef& def);

  int num_indexes() const { return static_cast<int>(indexes_.size()); }
  const IndexDef& index_def(int i) const { return indexes_[i].def; }

  /// Returns the position of the index whose key prefix starts with
  /// `column`, or -1.
  int FindIndexOnColumn(int column) const;

  /// Inserts a row (buffered in the WAL until Commit).
  Result<Rid> Insert(const Row& row);

  /// Inserts a row its caller already encoded in this table's RowCodec
  /// layout; the bytes are stored as given. Only for tables without
  /// indexes (there is no Row to key them by).
  Result<Rid> InsertEncoded(const Slice& encoded);

  /// Flushes the WAL buffer (the per-transaction durability cost).
  Status Commit();

  /// Fetches the row stored at `rid`.
  Result<Row> Get(const Rid& rid);

  /// The head of the row at `rid`'s encoded bytes, viewed through *buf
  /// (see HeapFile::ReadHead): the whole row, with no copy and no Row, for
  /// a record that fits on a page.
  Status ReadHead(const Rid& rid, HeapFile::RecordBuffer* buf) {
    return heap_->ReadHead(rid, buf);
  }
  /// Appends bytes [offset, offset + len) of the row whose head `head`
  /// holds to *out (see HeapFile::ReadRange).
  Status ReadRange(const HeapFile::RecordBuffer& head, uint64_t offset,
                   size_t len, std::string* out) {
    return heap_->ReadRange(head, offset, len, out);
  }

  /// Fetches only `columns` (ascending positions) of the row at `rid`.
  Result<Row> GetColumns(const Rid& rid, const std::vector<int>& columns);

  /// Deletes the row at `rid`, maintaining indexes.
  Status Delete(const Rid& rid);

  /// Sequential scan of all rows.
  class Iterator {
   public:
    Status SeekToFirst() { return it_.SeekToFirst(); }
    /// Resumes a chunked scan after `rid` (physical order).
    Status SeekAfter(const Rid& rid) { return it_.SeekAfter(rid); }
    bool Valid() const { return it_.Valid(); }
    Status Next() { return it_.Next(); }
    Result<Row> row();
    /// The current row's encoded bytes (valid until the next Seek*/Next).
    Result<Slice> record() { return it_.record(); }
    /// The current row's head, for ReadRange (see HeapFile::Iterator).
    const HeapFile::RecordBuffer& buffer() const { return it_.buffer(); }
    Rid rid() const { return it_.rid(); }

   private:
    friend class Table;
    Iterator(Table* table, HeapFile::Iterator it)
        : table_(table), it_(std::move(it)) {}

    Table* table_;
    HeapFile::Iterator it_;
  };

  Iterator NewIterator() { return Iterator(this, heap_->NewIterator()); }

  /// Range scan over index `index_no`: yields Rids of rows whose index key
  /// is in [lower, upper] (encoded key prefixes; empty lower = from start,
  /// empty upper = to end).
  class IndexIterator {
   public:
    bool Valid() const { return valid_; }
    Status Next();
    Rid rid() const { return rid_; }
    /// The full index key (prefix + rid suffix).
    Slice key() const { return it_->key(); }

   private:
    friend class Table;
    IndexIterator(std::unique_ptr<index::BTree::Iterator> it,
                  std::string upper)
        : it_(std::move(it)), upper_(std::move(upper)) {}

    void CheckBounds();

    std::unique_ptr<index::BTree::Iterator> it_;
    std::string upper_;
    bool valid_ = false;
    Rid rid_;
  };

  Result<IndexIterator> IndexScan(int index_no, const std::string& lower_key,
                                  const std::string& upper_key);

  /// Builds the (uniquified) index key for `row` on index `index_no`.
  std::string IndexKeyFor(int index_no, const Row& row,
                          const Rid& rid) const;

  /// Bytes of WAL written so far (for I/O accounting in benches).
  uint64_t wal_bytes_written() const { return wal_bytes_written_; }

  /// Approximate heap size in bytes (allocated pages x page size). Used by
  /// the SQL planner's cost model.
  uint64_t ApproxHeapBytes() const;

  /// Releases all storage (heap, WAL and index files) of this table. The
  /// table must not be used afterwards; used by Database::DropTable.
  Status DestroyStorage();

 private:
  struct IndexEntry {
    IndexDef def;
    std::unique_ptr<index::BTree> tree;
  };

  Table(storage::BufferPool* pool, std::string name, Schema schema,
        TableOptions options)
      : pool_(pool),
        name_(std::move(name)),
        schema_(std::move(schema)),
        options_(options),
        codec_(&schema_, options.row_header_bytes) {}

  storage::BufferPool* pool_;
  std::string name_;
  Schema schema_;
  TableOptions options_;
  RowCodec codec_;
  std::unique_ptr<HeapFile> heap_;
  std::vector<IndexEntry> indexes_;

  storage::FileId wal_file_ = 0;
  std::string wal_buffer_;
  uint64_t wal_bytes_written_ = 0;
};

}  // namespace odh::relational

#endif  // ODH_RELATIONAL_TABLE_H_
