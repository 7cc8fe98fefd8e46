#include "index/btree.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "common/logging.h"

namespace odh::index {
namespace {

constexpr uint32_t kMetaMagic = 0x0D4B7EEE;
constexpr char kLeafType = 1;
constexpr char kInternalType = 2;
constexpr storage::PageNo kMetaPage = 0;

// Reserve a little slack so a serialized node always fits its page.
constexpr size_t kNodeSlack = 16;

}  // namespace

Result<std::unique_ptr<BTree>> BTree::Create(storage::BufferPool* pool,
                                             const std::string& name) {
  ODH_ASSIGN_OR_RETURN(storage::FileId file,
                       pool->disk()->CreateFile(name));
  std::unique_ptr<BTree> tree(new BTree(pool, file));
  tree->max_node_bytes_ = pool->usable_page_size() - kNodeSlack;

  storage::PageNo meta_page;
  ODH_ASSIGN_OR_RETURN(storage::PageRef meta, pool->NewPage(file, &meta_page));
  ODH_CHECK(meta_page == kMetaPage);
  meta.Release();

  Node root;
  root.leaf = true;
  ODH_ASSIGN_OR_RETURN(tree->root_, tree->AllocateNode(root));
  ODH_RETURN_IF_ERROR(tree->WriteMeta());
  return tree;
}

Result<std::unique_ptr<BTree>> BTree::Open(storage::BufferPool* pool,
                                           const std::string& name) {
  ODH_ASSIGN_OR_RETURN(storage::FileId file, pool->disk()->OpenFile(name));
  std::unique_ptr<BTree> tree(new BTree(pool, file));
  tree->max_node_bytes_ = pool->usable_page_size() - kNodeSlack;
  ODH_RETURN_IF_ERROR(tree->ReadMeta());
  return tree;
}

Status BTree::WriteMeta() {
  ODH_ASSIGN_OR_RETURN(storage::PageRef page, pool_->FetchPage(file_,
                                                               kMetaPage));
  char* p = page.data();
  EncodeFixed32(p, kMetaMagic);
  EncodeFixed32(p + 4, root_);
  EncodeFixed32(p + 8, static_cast<uint32_t>(height_));
  EncodeFixed64(p + 12, static_cast<uint64_t>(num_entries_));
  page.MarkDirty();
  return Status::OK();
}

Status BTree::ReadMeta() {
  ODH_ASSIGN_OR_RETURN(storage::PageRef page, pool_->FetchPage(file_,
                                                               kMetaPage));
  const char* p = page.data();
  if (DecodeFixed32(p) != kMetaMagic) {
    return Status::Corruption("btree meta page magic mismatch");
  }
  root_ = DecodeFixed32(p + 4);
  height_ = static_cast<int>(DecodeFixed32(p + 8));
  num_entries_ = static_cast<int64_t>(DecodeFixed64(p + 12));
  return Status::OK();
}

size_t BTree::SerializedSize(const Node& node) {
  size_t size = 1 + 5;  // Type byte + worst-case count varint.
  if (node.leaf) {
    for (const auto& [k, v] : node.entries) {
      size += 5 + k.size() + 5 + v.size();
    }
    size += 1 + 4;  // has_next + next_leaf.
  } else {
    for (const auto& k : node.keys) size += 5 + k.size();
    size += 4 * node.children.size();
  }
  return size;
}

Status BTree::StoreNode(storage::PageNo page_no, const Node& node) {
  std::string buf;
  buf.reserve(pool_->disk()->page_size());
  buf.push_back(node.leaf ? kLeafType : kInternalType);
  if (node.leaf) {
    PutVarint32(&buf, static_cast<uint32_t>(node.entries.size()));
    for (const auto& [k, v] : node.entries) {
      PutLengthPrefixed(&buf, k);
      PutLengthPrefixed(&buf, v);
    }
    buf.push_back(node.has_next_leaf ? 1 : 0);
    PutFixed32(&buf, node.next_leaf);
  } else {
    PutVarint32(&buf, static_cast<uint32_t>(node.keys.size()));
    for (const auto& k : node.keys) PutLengthPrefixed(&buf, k);
    for (storage::PageNo child : node.children) PutFixed32(&buf, child);
  }
  if (buf.size() > pool_->usable_page_size()) {
    return Status::Internal("btree node overflows page");
  }
  ODH_ASSIGN_OR_RETURN(storage::PageRef page, pool_->FetchPage(file_,
                                                               page_no));
  std::memcpy(page.data(), buf.data(), buf.size());
  page.MarkDirty();
  return Status::OK();
}

namespace {

// GetLengthPrefixed with the one-byte length of every key and value an
// index holds in practice decoded inline.
inline bool GetLength(Slice* input, Slice* result) {
  if (!input->empty() && static_cast<unsigned char>((*input)[0]) < 0x80) {
    const size_t len = static_cast<unsigned char>((*input)[0]);
    if (input->size() < 1 + len) return false;
    *result = Slice(input->data() + 1, len);
    input->remove_prefix(1 + len);
    return true;
  }
  return GetLengthPrefixed(input, result);
}

}  // namespace

template <typename OnCount, typename OnEntry>
Status BTree::NodeParser::Walk(Slice input, OnCount&& on_count,
                               OnEntry&& on_entry) {
  if (input.empty()) return Status::Corruption("empty btree node");
  const char type = input[0];
  input.remove_prefix(1);
  if (type != kLeafType && type != kInternalType) {
    return Status::Corruption("bad node type");
  }
  leaf_ = type == kLeafType;
  uint32_t n = 0;
  if (!GetVarint32(&input, &n)) return Status::Corruption("node count");
  // Every entry takes at least two length bytes in a leaf, and a length
  // byte plus a child in an internal node: refuse a count the rest of the
  // page cannot hold before anything is reserved for it.
  const uint64_t min_bytes =
      leaf_ ? 2ull * n + 5 : 1ull * n + 4ull * (uint64_t{n} + 1);
  if (min_bytes > input.size()) {
    return Status::Corruption("node count overruns page");
  }
  on_count(n);
  for (uint32_t i = 0; i < n; ++i) {
    Slice k, v;
    if (!GetLength(&input, &k) || (leaf_ && !GetLength(&input, &v))) {
      return Status::Corruption("node entry runs off page");
    }
    on_entry(k, v);
  }
  if (input.size() < (leaf_ ? 5 : 4 * (uint64_t{n} + 1))) {
    return Status::Corruption(leaf_ ? "leaf trailer runs off page"
                                    : "child array runs off page");
  }
  tail_ = input.data();
  return Status::OK();
}

Status BTree::NodeParser::Parse(Slice page) {
  keys_.clear();
  values_.clear();
  return Walk(
      page,
      [this](uint32_t n) {
        keys_.reserve(n);
        if (leaf_) values_.reserve(n);
      },
      [this](const Slice& k, const Slice& v) {
        keys_.push_back(k);
        if (leaf_) values_.push_back(v);
      });
}

storage::PageNo BTree::NodeParser::child(size_t i) const {
  return DecodeFixed32(tail_ + 4 * i);
}

storage::PageNo BTree::NodeParser::next_leaf() const {
  return DecodeFixed32(tail_ + 1);
}

size_t BTree::NodeParser::LowerBound(const Slice& key) const {
  return static_cast<size_t>(
      std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
}

size_t BTree::NodeParser::UpperBound(const Slice& key) const {
  return static_cast<size_t>(
      std::upper_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
}

Result<storage::PageRef> BTree::FetchNode(storage::PageNo page_no) {
  if (page_no == kMetaPage) {
    return Status::Corruption("btree node points at the meta page");
  }
  Result<storage::PageRef> page = pool_->FetchPage(file_, page_no);
  if (page.status().code() == StatusCode::kOutOfRange) {
    return Status::Corruption("btree node points past the file: page " +
                              std::to_string(page_no));
  }
  return page;
}

Status BTree::LoadNode(storage::PageNo page_no, Node* node) {
  ODH_ASSIGN_OR_RETURN(storage::PageRef page, FetchNode(page_no));
  node->entries.clear();
  node->keys.clear();
  node->children.clear();
  NodeParser parser;
  ODH_RETURN_IF_ERROR(parser.Walk(
      Slice(page.data(), pool_->usable_page_size()),
      [&](uint32_t n) {
        if (parser.leaf()) {
          node->entries.reserve(n);
        } else {
          node->keys.reserve(n);
        }
      },
      [&](const Slice& k, const Slice& v) {
        if (parser.leaf()) {
          node->entries.emplace_back(k.ToString(), v.ToString());
        } else {
          node->keys.push_back(k.ToString());
        }
      }));
  node->leaf = parser.leaf();
  if (node->leaf) {
    node->has_next_leaf = parser.has_next_leaf();
    node->next_leaf = parser.next_leaf();
  } else {
    node->children.reserve(node->keys.size() + 1);
    for (size_t i = 0; i <= node->keys.size(); ++i) {
      node->children.push_back(parser.child(i));
    }
  }
  return Status::OK();
}

Result<storage::PageNo> BTree::AllocateNode(const Node& node) {
  storage::PageNo page_no;
  ODH_ASSIGN_OR_RETURN(storage::PageRef page, pool_->NewPage(file_,
                                                             &page_no));
  page.Release();
  ODH_RETURN_IF_ERROR(StoreNode(page_no, node));
  return page_no;
}

Status BTree::InsertRec(storage::PageNo page_no, const Slice& key,
                        const Slice& value, SplitResult* split,
                        bool* inserted_new) {
  Node node;
  ODH_RETURN_IF_ERROR(LoadNode(page_no, &node));
  split->split = false;

  if (node.leaf) {
    auto it = std::lower_bound(
        node.entries.begin(), node.entries.end(), key,
        [](const auto& entry, const Slice& k) {
          return Slice(entry.first).compare(k) < 0;
        });
    if (it != node.entries.end() && Slice(it->first) == key) {
      it->second = value.ToString();
      *inserted_new = false;
    } else {
      node.entries.insert(it, {key.ToString(), value.ToString()});
      *inserted_new = true;
    }
  } else {
    auto it = std::upper_bound(node.keys.begin(), node.keys.end(), key,
                               [](const Slice& k, const std::string& nk) {
                                 return k.compare(Slice(nk)) < 0;
                               });
    size_t idx = static_cast<size_t>(it - node.keys.begin());
    SplitResult child_split;
    ODH_RETURN_IF_ERROR(InsertRec(node.children[idx], key, value,
                                  &child_split, inserted_new));
    if (!child_split.split) return Status::OK();
    node.keys.insert(node.keys.begin() + idx, child_split.separator);
    node.children.insert(node.children.begin() + idx + 1,
                         child_split.right_page);
  }

  if (SerializedSize(node) <= max_node_bytes_) {
    return StoreNode(page_no, node);
  }

  // Split: move the upper half to a new right sibling.
  Node right;
  right.leaf = node.leaf;
  if (node.leaf) {
    size_t mid = node.entries.size() / 2;
    if (mid == 0) return Status::InvalidArgument("btree entry exceeds page");
    right.entries.assign(node.entries.begin() + mid, node.entries.end());
    node.entries.resize(mid);
    right.has_next_leaf = node.has_next_leaf;
    right.next_leaf = node.next_leaf;
    ODH_ASSIGN_OR_RETURN(storage::PageNo right_page, AllocateNode(right));
    node.has_next_leaf = true;
    node.next_leaf = right_page;
    split->split = true;
    split->separator = right.entries.front().first;
    split->right_page = right_page;
  } else {
    size_t mid = node.keys.size() / 2;
    if (mid == 0) return Status::InvalidArgument("btree key exceeds page");
    // keys[mid] moves up as the separator.
    split->separator = node.keys[mid];
    right.keys.assign(node.keys.begin() + mid + 1, node.keys.end());
    right.children.assign(node.children.begin() + mid + 1,
                          node.children.end());
    node.keys.resize(mid);
    node.children.resize(mid + 1);
    ODH_ASSIGN_OR_RETURN(storage::PageNo right_page, AllocateNode(right));
    split->split = true;
    split->right_page = right_page;
  }
  return StoreNode(page_no, node);
}

Status BTree::Insert(const Slice& key, const Slice& value) {
  if (key.size() + value.size() > max_node_bytes_ / 4) {
    return Status::InvalidArgument("btree entry too large");
  }
  SplitResult split;
  bool inserted_new = false;
  ODH_RETURN_IF_ERROR(InsertRec(root_, key, value, &split, &inserted_new));
  if (split.split) {
    Node new_root;
    new_root.leaf = false;
    new_root.keys.push_back(split.separator);
    new_root.children.push_back(root_);
    new_root.children.push_back(split.right_page);
    ODH_ASSIGN_OR_RETURN(root_, AllocateNode(new_root));
    ++height_;
  }
  if (inserted_new) ++num_entries_;
  return WriteMeta();
}

Result<storage::PageNo> BTree::FindLeaf(const Slice& key,
                                        NodeParser* parser) {
  // Every leaf sits height_ - 1 levels below the root (splits grow the
  // tree at the top and deletes never merge), so the walk parses internal
  // nodes only and a damaged child pointer cannot send it round a cycle.
  storage::PageNo page_no = root_;
  for (int level = 1; level < height_; ++level) {
    ODH_ASSIGN_OR_RETURN(storage::PageRef page, FetchNode(page_no));
    ODH_RETURN_IF_ERROR(
        parser->Parse(Slice(page.data(), pool_->usable_page_size())));
    if (parser->leaf()) {
      return Status::Corruption("btree leaf above the leaf level");
    }
    page_no = parser->child(parser->UpperBound(key));
  }
  return page_no;
}

Result<std::string> BTree::Get(const Slice& key) {
  NodeParser parser;
  ODH_ASSIGN_OR_RETURN(storage::PageNo leaf, FindLeaf(key, &parser));
  ODH_ASSIGN_OR_RETURN(storage::PageRef page, FetchNode(leaf));
  ODH_RETURN_IF_ERROR(
      parser.Parse(Slice(page.data(), pool_->usable_page_size())));
  if (!parser.leaf()) {
    return Status::Corruption("btree internal node at leaf level");
  }
  const size_t i = parser.LowerBound(key);
  if (i == parser.count() || parser.key(i) != key) {
    return Status::NotFound("key not in btree");
  }
  return parser.value(i).ToString();
}

Status BTree::Delete(const Slice& key) {
  NodeParser parser;
  ODH_ASSIGN_OR_RETURN(storage::PageNo leaf, FindLeaf(key, &parser));
  Node node;
  ODH_RETURN_IF_ERROR(LoadNode(leaf, &node));
  if (!node.leaf) {
    return Status::Corruption("btree internal node at leaf level");
  }
  auto it = std::lower_bound(node.entries.begin(), node.entries.end(), key,
                             [](const auto& entry, const Slice& k) {
                               return Slice(entry.first).compare(k) < 0;
                             });
  if (it == node.entries.end() || Slice(it->first) != key) {
    return Status::NotFound("key not in btree");
  }
  node.entries.erase(it);
  ODH_RETURN_IF_ERROR(StoreNode(leaf, node));
  --num_entries_;
  return WriteMeta();
}

Status BTree::Iterator::LoadLeaf(storage::PageNo page_no) {
  const size_t usable = tree_->pool_->usable_page_size();
  {
    ODH_ASSIGN_OR_RETURN(storage::PageRef page, tree_->FetchNode(page_no));
    if (buf_ == nullptr) buf_ = std::make_unique<char[]>(usable);
    std::memcpy(buf_.get(), page.data(), usable);
  }
  ODH_RETURN_IF_ERROR(leaf_.Parse(Slice(buf_.get(), usable)));
  if (!leaf_.leaf()) {
    return Status::Corruption("btree internal node at leaf level");
  }
  return Status::OK();
}

Status BTree::Iterator::SettleOnEntry() {
  while (pos_ >= leaf_.count()) {
    if (!leaf_.has_next_leaf()) return Status::OK();  // Past the end.
    ODH_RETURN_IF_ERROR(LoadLeaf(leaf_.next_leaf()));
    pos_ = 0;
  }
  valid_ = true;
  return Status::OK();
}

Status BTree::Iterator::Seek(const Slice& key) {
  valid_ = false;
  ODH_ASSIGN_OR_RETURN(storage::PageNo leaf, tree_->FindLeaf(key, &leaf_));
  ODH_RETURN_IF_ERROR(LoadLeaf(leaf));
  pos_ = leaf_.LowerBound(key);
  return SettleOnEntry();
}

Status BTree::Iterator::SeekToFirst() { return Seek(Slice("", 0)); }

Status BTree::Iterator::Next() {
  if (!valid_) return Status::FailedPrecondition("iterator not valid");
  valid_ = false;
  ++pos_;
  return SettleOnEntry();
}

}  // namespace odh::index
