#ifndef ODH_INDEX_BTREE_H_
#define ODH_INDEX_BTREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "storage/buffer_pool.h"

namespace odh::index {

/// A disk-backed B+tree over a BufferPool file.
///
/// Keys are arbitrary byte strings compared with memcmp (see
/// common/key_codec.h for order-preserving encodings); values are arbitrary
/// byte strings. Keys are unique — callers that need duplicates append a
/// uniquifier (e.g. the RID) to the key, which is also how the relational
/// layer builds secondary indexes.
///
/// Leaves are chained for range scans. Deletion is lazy (no rebalancing):
/// the workloads in this reproduction are append-heavy, matching the
/// paper's no-transaction ingestion model.
class BTree {
 public:
  /// Creates a fresh tree in a new file named `name` on the pool's disk.
  static Result<std::unique_ptr<BTree>> Create(storage::BufferPool* pool,
                                               const std::string& name);

  /// Reopens a tree previously created with Create().
  static Result<std::unique_ptr<BTree>> Open(storage::BufferPool* pool,
                                             const std::string& name);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts or overwrites `key`.
  Status Insert(const Slice& key, const Slice& value);

  /// Point lookup. NotFound if absent.
  Result<std::string> Get(const Slice& key);

  /// Removes `key`. NotFound if absent.
  Status Delete(const Slice& key);

  int64_t num_entries() const { return num_entries_; }
  int height() const { return height_; }
  storage::FileId file() const { return file_; }

  /// Reads one serialized node where it lies — in a pinned page or in a
  /// copy of one — and hands out Slices into those bytes. Parse() walks
  /// the node's framing once, checking every count and length against the
  /// page, and records where each key (and, in a leaf, each value) lies;
  /// nothing is copied. A parser keeps its capacity across Parse() calls,
  /// so one reused for a walk allocates only while it first grows.
  class NodeParser {
   public:
    /// Corruption for a bad type byte, a count the page cannot hold, or a
    /// length or child array running off the page.
    Status Parse(Slice page);

    bool leaf() const { return leaf_; }
    size_t count() const { return keys_.size(); }
    /// A leaf's i-th key, or an internal node's i-th separator: the
    /// smallest key in child(i + 1)'s subtree.
    Slice key(size_t i) const { return keys_[i]; }
    /// A leaf's i-th value.
    Slice value(size_t i) const { return values_[i]; }
    /// An internal node's i-th child, i <= count().
    storage::PageNo child(size_t i) const;
    bool has_next_leaf() const { return tail_[0] != 0; }
    storage::PageNo next_leaf() const;

    /// The first i whose key(i) >= `key` (count() when there is none).
    size_t LowerBound(const Slice& key) const;
    /// The first i whose key(i) > `key`; in an internal node, the child
    /// whose subtree may hold `key`.
    size_t UpperBound(const Slice& key) const;

   private:
    friend class BTree;

    /// Parse()'s single pass: checks the framing, calls `on_count(n)` once
    /// the count is known to fit, then `on_entry(key, value)` per entry
    /// (the value is empty in an internal node), and sets leaf() and the
    /// tail child() and next_leaf() read. LoadNode walks with callbacks
    /// that build a Node directly.
    template <typename OnCount, typename OnEntry>
    Status Walk(Slice page, OnCount&& on_count, OnEntry&& on_entry);

    bool leaf_ = true;
    std::vector<Slice> keys_;
    std::vector<Slice> values_;
    // The child array of an internal node; a leaf's next-leaf trailer.
    const char* tail_ = nullptr;
  };

  /// Forward iterator over key order. Invalidated by writes to the tree.
  /// Holds a copy of the current leaf's bytes, so eviction of the page
  /// cannot pull them away; key() and value() point into that copy and
  /// stay valid until the next Seek or Next.
  class Iterator {
   public:
    /// Positions at the first key >= `key`.
    Status Seek(const Slice& key);
    /// Positions at the first key in the tree.
    Status SeekToFirst();
    bool Valid() const { return valid_; }
    Status Next();
    /// Empty when !Valid().
    Slice key() const { return valid_ ? leaf_.key(pos_) : Slice(); }
    Slice value() const { return valid_ ? leaf_.value(pos_) : Slice(); }

   private:
    friend class BTree;
    explicit Iterator(BTree* tree) : tree_(tree) {}

    /// Copies leaf `page` into buf_ and parses it there.
    Status LoadLeaf(storage::PageNo page);
    /// Steps over exhausted leaves along the chain; sets valid_.
    Status SettleOnEntry();

    BTree* tree_;
    bool valid_ = false;
    std::unique_ptr<char[]> buf_;  // Moves keep the bytes where they are.
    NodeParser leaf_;
    size_t pos_ = 0;
  };

  Iterator NewIterator() { return Iterator(this); }

 private:
  friend class Iterator;

  // In-memory decoded node, built only by the write path: an insert or
  // delete decodes each node it touches into strings and re-serializes it.
  // That keeps the code plain and gives the relational baselines a
  // realistic per-record B-tree maintenance cost. Reads use NodeParser.
  struct Node {
    bool leaf = true;
    // For leaves: entries are (key, value). For internals: children has
    // keys.size() + 1 elements; keys[i] is the smallest key in
    // children[i + 1]'s subtree.
    std::vector<std::pair<std::string, std::string>> entries;
    std::vector<std::string> keys;
    std::vector<storage::PageNo> children;
    bool has_next_leaf = false;
    storage::PageNo next_leaf = 0;
  };

  struct SplitResult {
    bool split = false;
    std::string separator;       // First key of the right node.
    storage::PageNo right_page = 0;
  };

  BTree(storage::BufferPool* pool, storage::FileId file)
      : pool_(pool), file_(file) {}

  /// Pins node page `page`. A page number past the file, or the meta
  /// page, is Corruption: only a damaged parent or leaf chain names one.
  Result<storage::PageRef> FetchNode(storage::PageNo page);
  Status LoadNode(storage::PageNo page, Node* node);
  Status StoreNode(storage::PageNo page, const Node& node);
  static size_t SerializedSize(const Node& node);
  Result<storage::PageNo> AllocateNode(const Node& node);

  Status InsertRec(storage::PageNo page, const Slice& key, const Slice& value,
                   SplitResult* split, bool* inserted_new);
  Status WriteMeta();
  Status ReadMeta();

  /// Finds the leaf page that may contain `key`, parsing the internal
  /// nodes on the way down with `parser`.
  Result<storage::PageNo> FindLeaf(const Slice& key, NodeParser* parser);

  storage::BufferPool* pool_;
  storage::FileId file_;
  storage::PageNo root_ = 0;
  int height_ = 1;
  int64_t num_entries_ = 0;
  size_t max_node_bytes_ = 0;  // Set from page size at open.
};

}  // namespace odh::index

#endif  // ODH_INDEX_BTREE_H_
