#include "index/btree.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/key_codec.h"
#include "common/random.h"
#include "storage/checksum.h"

namespace odh::index {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : disk_(4096), pool_(&disk_, 64) {
    tree_ = BTree::Create(&pool_, "idx").value();
  }

  static std::string Key(int64_t v) {
    std::string out;
    KeyEncoder enc(&out);
    enc.AddInt64(v);
    return out;
  }

  /// A two-level tree: an internal root over a chain of leaves.
  void BuildTwoLevelTree() {
    for (int64_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(tree_->Insert(Key(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_EQ(tree_->height(), 2);
  }

  storage::PageNo RootPage() {
    auto meta = pool_.FetchPage(tree_->file(), 0).value();
    return DecodeFixed32(meta.data() + 4);
  }

  /// Edits page `page` in place in the pool. Its checksum is recomputed on
  /// writeback, so only the node's framing is wrong.
  template <typename Edit>
  void Damage(storage::PageNo page, Edit edit) {
    auto ref = pool_.FetchPage(tree_->file(), page).value();
    edit(ref.data());
    ref.MarkDirty();
  }

  /// A parse of `page` as it stands; its Slices are only valid while the
  /// tree leaves the page alone.
  BTree::NodeParser Parsed(storage::PageNo page) {
    auto ref = pool_.FetchPage(tree_->file(), page).value();
    BTree::NodeParser parser;
    EXPECT_TRUE(
        parser.Parse(Slice(ref.data(), pool_.usable_page_size())).ok());
    return parser;
  }

  /// Offset of an internal node's child array within its page: it starts
  /// right after the last separator.
  size_t ChildArrayOffset(storage::PageNo page) {
    const BTree::NodeParser parser = Parsed(page);
    const Slice last = parser.key(parser.count() - 1);
    auto ref = pool_.FetchPage(tree_->file(), page).value();
    return static_cast<size_t>(last.data() + last.size() - ref.data());
  }

  void ExpectReadsSeeCorruption(const std::string& key) {
    EXPECT_TRUE(tree_->Get(key).status().IsCorruption());
    auto it = tree_->NewIterator();
    EXPECT_TRUE(it.Seek(key).IsCorruption());
    EXPECT_FALSE(it.Valid());
  }

  storage::SimDisk disk_;
  storage::BufferPool pool_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, EmptyTreeBehaviour) {
  EXPECT_EQ(tree_->num_entries(), 0);
  EXPECT_TRUE(tree_->Get(Key(1)).status().IsNotFound());
  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, InsertAndGet) {
  ASSERT_TRUE(tree_->Insert(Key(5), "five").ok());
  ASSERT_TRUE(tree_->Insert(Key(3), "three").ok());
  ASSERT_TRUE(tree_->Insert(Key(9), "nine").ok());
  EXPECT_EQ(tree_->num_entries(), 3);
  EXPECT_EQ(tree_->Get(Key(3)).value(), "three");
  EXPECT_EQ(tree_->Get(Key(5)).value(), "five");
  EXPECT_EQ(tree_->Get(Key(9)).value(), "nine");
  EXPECT_TRUE(tree_->Get(Key(4)).status().IsNotFound());
}

TEST_F(BTreeTest, OverwriteDoesNotGrowCount) {
  ASSERT_TRUE(tree_->Insert(Key(1), "a").ok());
  ASSERT_TRUE(tree_->Insert(Key(1), "b").ok());
  EXPECT_EQ(tree_->num_entries(), 1);
  EXPECT_EQ(tree_->Get(Key(1)).value(), "b");
}

TEST_F(BTreeTest, Delete) {
  ASSERT_TRUE(tree_->Insert(Key(1), "a").ok());
  ASSERT_TRUE(tree_->Insert(Key(2), "b").ok());
  ASSERT_TRUE(tree_->Delete(Key(1)).ok());
  EXPECT_EQ(tree_->num_entries(), 1);
  EXPECT_TRUE(tree_->Get(Key(1)).status().IsNotFound());
  EXPECT_TRUE(tree_->Delete(Key(1)).IsNotFound());
  EXPECT_EQ(tree_->Get(Key(2)).value(), "b");
}

TEST_F(BTreeTest, SplitsProduceMultipleLevels) {
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree_->Insert(Key(i), "v" + std::to_string(i)).ok());
  }
  EXPECT_EQ(tree_->num_entries(), 2000);
  EXPECT_GT(tree_->height(), 1);
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_EQ(tree_->Get(Key(i)).value(), "v" + std::to_string(i)) << i;
  }
}

TEST_F(BTreeTest, IteratorFullScanInOrder) {
  for (int64_t i = 999; i >= 0; --i) {
    ASSERT_TRUE(tree_->Insert(Key(i), std::to_string(i)).ok());
  }
  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(it.Valid()) << i;
    EXPECT_EQ(it.value().ToString(), std::to_string(i));
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, IteratorSeekRange) {
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Insert(Key(i * 10), std::to_string(i * 10)).ok());
  }
  auto it = tree_->NewIterator();
  // Seek between keys lands on the next larger key.
  ASSERT_TRUE(it.Seek(Key(45)).ok());
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.value().ToString(), "50");
  // Seek past the end is invalid.
  ASSERT_TRUE(it.Seek(Key(10000)).ok());
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, ReopenPreservesContents) {
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree_->Insert(Key(i), std::to_string(i)).ok());
  }
  tree_.reset();
  ASSERT_TRUE(pool_.FlushAll().ok());
  auto reopened = BTree::Open(&pool_, "idx");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_entries(), 500);
  EXPECT_EQ((*reopened)->Get(Key(123)).value(), "123");
}

// Golden pages: a store-shaped index — (source id, batch begin) keys with
// a big-endian 8-byte rid suffix and the rid as value, the shape of the
// historian's blob indexes — built from a seeded op sequence with
// overwrites and deletes on 1-KB pages, so the tree is three levels deep.
// Returns the CRC32C of every page of the file as the disk holds it.
std::vector<uint32_t> StoreShapedPageCrcs(int* height) {
  storage::SimDisk disk(1024);
  storage::BufferPool pool(&disk, 16);
  auto tree = BTree::Create(&pool, "golden").value();
  Random rng(20140622);
  auto rid = [](uint32_t page, uint32_t slot) {
    std::string out;
    for (uint32_t v : {page, slot}) {
      for (int i = 3; i >= 0; --i) {
        out.push_back(static_cast<char>(v >> (8 * i)));
      }
    }
    return out;
  };
  std::vector<std::string> live;
  uint32_t next_slot = 0;
  for (int64_t round = 0; round < 30; ++round) {
    for (int n = 0; n < 40; ++n) {
      std::string key;
      KeyEncoder enc(&key);
      enc.AddInt64(1 + static_cast<int64_t>(rng.Uniform(40)));
      enc.AddInt64(round * 60 * kMicrosPerSecond +
                   static_cast<int64_t>(rng.Uniform(1000)));
      const std::string value = rid(next_slot / 32, next_slot % 32);
      ++next_slot;
      key += value;
      EXPECT_TRUE(tree->Insert(key, value).ok());
      live.push_back(key);
    }
    // Compaction re-points a few batches; retention drops a few.
    for (int n = 0; n < 4; ++n) {
      EXPECT_TRUE(
          tree->Insert(live[rng.Uniform(live.size())], rid(0xFFFF, next_slot++))
              .ok());
    }
    for (int n = 0; n < 6; ++n) {
      const size_t victim = rng.Uniform(live.size());
      EXPECT_TRUE(tree->Delete(live[victim]).ok());
      live[victim] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(tree->num_entries(), static_cast<int64_t>(live.size()));
  *height = tree->height();
  EXPECT_TRUE(pool.FlushAll().ok());
  std::vector<uint32_t> crcs;
  std::string page(disk.page_size(), '\0');
  const uint32_t pages = disk.PageCount(tree->file()).value();
  for (uint32_t p = 0; p < pages; ++p) {
    EXPECT_TRUE(disk.ReadPage(tree->file(), p, page.data()).ok());
    // Over the usable bytes: a CRC run across its own trailer is constant.
    crcs.push_back(storage::Crc32c(page.data(), pool.usable_page_size()));
  }
  return crcs;
}

// The node format on disk is frozen: the write path must reproduce every
// one of these pages byte for byte.
constexpr uint32_t kGoldenPageCrcs[] = {
    0xb3fceeb4, 0xf4f69eb0, 0x7c50d3ac, 0x4bb97995, 0x6b5df472, 0x36bd3ded,
    0x47a47a41, 0x13d4df8b, 0x8f851c14, 0x8f556e5a, 0x4da6d263, 0x9960cb6e,
    0x84d938cf, 0x7471f626, 0x2d97a6aa, 0xe47f684a, 0xcbfe17a9, 0x9e644e23,
    0xc35c655b, 0x8f8e9786, 0xd0333351, 0x5a7df2e8, 0xf3e625b9, 0xc786e5bd,
    0xad66b951, 0xd48baeae, 0x6df77ad2, 0x6f64e7e9, 0xc6770e22, 0x662df3fa,
    0x39f6e98a, 0x8e3af3da, 0x1ba6f057, 0x696aa841, 0x89a2d561, 0xf6f81872,
    0x73135ac4, 0xfdaf85c4, 0x2e192cb4, 0xd18c4716, 0xfb5586c4, 0x0ac117ae,
    0x05e14d8b, 0x8fb4e97a, 0x57adc0ec, 0xeb04ceb0, 0xe9488110, 0xb2cc4ee9,
    0xab5f75e0, 0x744910d0, 0xf20ef44a, 0x6a567b27, 0xd1f10cf6, 0x205fee86,
    0x5a0b5929, 0x2f593570, 0xf13f9ba7, 0xe2120aea, 0x341421fe, 0x6ec4961d,
    0x98e7b0cf, 0x74500554, 0x90a6180b, 0xf3250c30, 0x4bc0b632, 0x62ef2219,
    0x14a4e038, 0x8f375867, 0xfcb4bed8, 0xd01f558a, 0xc3b5e757, 0xca02bf32,
    0x1281e4e7, 0x4e99601e, 0x88b36c97, 0xea77b6fa, 0x5bacabc5, 0x1188504a,
    0x98a8f561,
};

TEST_F(BTreeTest, StoreShapedPagesMatchGoldenChecksums) {
  int height = 0;
  const std::vector<uint32_t> crcs = StoreShapedPageCrcs(&height);
  EXPECT_GE(height, 3);
  ASSERT_EQ(crcs.size(), std::size(kGoldenPageCrcs));
  for (size_t i = 0; i < crcs.size(); ++i) {
    EXPECT_EQ(crcs[i], kGoldenPageCrcs[i]) << "page " << i;
  }
}

TEST_F(BTreeTest, RejectsOversizedEntry) {
  std::string huge(5000, 'x');
  EXPECT_TRUE(tree_->Insert(Key(1), huge).IsInvalidArgument());
}

// Corrupt pages. Reads parse pages where they lie, so every count,
// length and child pointer is checked against the page before it is
// followed; damage surfaces as Corruption, never as a read off the page.
TEST_F(BTreeTest, CorruptBadTypeByte) {
  BuildTwoLevelTree();
  Damage(RootPage(), [](char* p) { p[0] = 7; });
  ExpectReadsSeeCorruption(Key(500));
}

TEST_F(BTreeTest, CorruptCountLargerThanPage) {
  BuildTwoLevelTree();
  // A four-byte varint count of 2^28 - 1 entries in a 4-KB page.
  Damage(RootPage(),
         [](char* p) { std::memcpy(p + 1, "\xff\xff\xff\x7f", 4); });
  ExpectReadsSeeCorruption(Key(500));
}

TEST_F(BTreeTest, CorruptLengthRunsOffPage) {
  BuildTwoLevelTree();
  // The first key of the leaf holding Key(0) claims 16383 bytes: the type
  // byte and a one-byte count precede its length.
  Damage(Parsed(RootPage()).child(0),
         [](char* p) { std::memcpy(p + 2, "\xff\x7f", 2); });
  ExpectReadsSeeCorruption(Key(0));
}

TEST_F(BTreeTest, CorruptChildPastTheFile) {
  BuildTwoLevelTree();
  const storage::PageNo root = RootPage();
  const size_t children = ChildArrayOffset(root);
  Damage(root, [&](char* p) { EncodeFixed32(p + children, 1u << 30); });
  ExpectReadsSeeCorruption(Key(0));
  // A child naming the meta page is refused the same way.
  Damage(root, [&](char* p) { EncodeFixed32(p + children, 0); });
  ExpectReadsSeeCorruption(Key(0));
}

TEST_F(BTreeTest, CorruptLeafChainStopsNext) {
  BuildTwoLevelTree();
  // The second leaf's type byte is damaged: a scan reads the first leaf,
  // then Next reports Corruption at the hand-over.
  Damage(Parsed(RootPage()).child(1), [](char* p) { p[0] = 0; });
  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  Status st;
  while (it.Valid() && st.ok()) st = it.Next();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_FALSE(it.Valid());
}

// The parser on its own, over buffers sized exactly to their bytes so a
// read past the end is a sanitizer error, not a quiet success.
Status ParseExact(const std::string& bytes) {
  std::vector<char> page(bytes.begin(), bytes.end());
  BTree::NodeParser parser;
  return parser.Parse(Slice(page.data(), page.size()));
}

TEST_F(BTreeTest, ParserRejectsTruncatedFraming) {
  using std::string_literals::operator""s;
  EXPECT_TRUE(ParseExact("").IsCorruption());
  EXPECT_TRUE(ParseExact("\x01").IsCorruption());      // No count.
  EXPECT_TRUE(ParseExact("\x01\x80").IsCorruption());  // Cut varint.
  EXPECT_TRUE(ParseExact("\x03\x00"s).IsCorruption());  // Bad type.
  // Leaf, one entry "k" -> "v", but the next-leaf trailer is cut short:
  // the count alone shows the page too small...
  EXPECT_TRUE(ParseExact("\x01\x01\x01k\x01v\x00\x00"s).IsCorruption());
  // ...and with a longer key, only the trailer check does.
  EXPECT_TRUE(ParseExact("\x01\x01\x04kkkk\x01v\x00\x00"s).IsCorruption());
  // The same for an internal node's child array.
  EXPECT_TRUE(ParseExact("\x02\x01\x04kkkk\x05\x00\x00\x00"s).IsCorruption());
  // Leaf whose value length runs past the last byte.
  EXPECT_TRUE(
      ParseExact("\x01\x01\x01k\x7fv\x00\x00\x00\x00\x00"s).IsCorruption());
  // Internal, one separator, but only one of its two children.
  EXPECT_TRUE(ParseExact("\x02\x01\x01k\x05\x00\x00\x00"s).IsCorruption());
}

TEST_F(BTreeTest, ParserReadsWellFormedNodesInPlace) {
  std::vector<char> leaf = {1, 2, 1, 'a', 2, 'v', '1', 1, 'b', 0,
                            1, 9, 0, 0,   0};
  BTree::NodeParser parser;
  ASSERT_TRUE(parser.Parse(Slice(leaf.data(), leaf.size())).ok());
  ASSERT_TRUE(parser.leaf());
  ASSERT_EQ(parser.count(), 2u);
  EXPECT_EQ(parser.key(0), Slice("a"));
  EXPECT_EQ(parser.value(0), Slice("v1"));
  EXPECT_EQ(parser.key(1), Slice("b"));
  EXPECT_EQ(parser.value(1), Slice(""));
  EXPECT_EQ(parser.key(0).data(), leaf.data() + 3);  // In place.
  EXPECT_TRUE(parser.has_next_leaf());
  EXPECT_EQ(parser.next_leaf(), 9u);
  EXPECT_EQ(parser.LowerBound("b"), 1u);
  EXPECT_EQ(parser.LowerBound("c"), 2u);

  std::vector<char> internal = {2, 1, 1, 'm', 4, 0, 0, 0, 5, 0, 0, 0};
  ASSERT_TRUE(parser.Parse(Slice(internal.data(), internal.size())).ok());
  ASSERT_FALSE(parser.leaf());
  EXPECT_EQ(parser.child(parser.UpperBound("a")), 4u);
  EXPECT_EQ(parser.child(parser.UpperBound("m")), 5u);
  EXPECT_EQ(parser.child(parser.UpperBound("z")), 5u);
}

// Property test: a randomized op sequence matches std::map.
struct PropertyParam {
  uint64_t seed;
  int ops;
  int key_space;
};

class BTreePropertyTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  BTreePropertyTest() : disk_(4096), pool_(&disk_, 32) {
    tree_ = BTree::Create(&pool_, "t").value();
  }

  static std::string MakeKey(int64_t v) {
    std::string out;
    KeyEncoder enc(&out);
    enc.AddInt64(v);
    return out;
  }

  /// Applies the parameter's seeded mix of inserts, lookups and deletes
  /// to the tree and to reference_, checking each lookup and delete.
  void RunOps() {
    const PropertyParam param = GetParam();
    Random rng(param.seed);
    for (int op = 0; op < param.ops; ++op) {
      std::string key = MakeKey(static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(param.key_space))));
      switch (rng.Uniform(4)) {
        case 0:
        case 1: {  // Insert (50%).
          std::string value = "v" + std::to_string(rng.Uniform(1000));
          ASSERT_TRUE(tree_->Insert(key, value).ok());
          reference_[key] = value;
          break;
        }
        case 2: {  // Lookup.
          auto got = tree_->Get(key);
          auto it = reference_.find(key);
          if (it == reference_.end()) {
            EXPECT_TRUE(got.status().IsNotFound());
          } else {
            ASSERT_TRUE(got.ok());
            EXPECT_EQ(got.value(), it->second);
          }
          break;
        }
        case 3: {  // Delete.
          Status s = tree_->Delete(key);
          auto it = reference_.find(key);
          if (it == reference_.end()) {
            EXPECT_TRUE(s.IsNotFound());
          } else {
            EXPECT_TRUE(s.ok());
            reference_.erase(it);
          }
          break;
        }
      }
    }
  }

  /// Seeks to `target` and walks up to `steps` entries on, leaf chain
  /// included, checking each against the reference.
  void ExpectSeekMatches(const std::string& target, int steps) {
    auto want = reference_.lower_bound(target);
    auto it = tree_->NewIterator();
    ASSERT_TRUE(it.Seek(target).ok());
    for (int i = 0; i < steps && want != reference_.end(); ++i, ++want) {
      ASSERT_TRUE(it.Valid()) << "step " << i;
      ASSERT_EQ(it.key().ToString(), want->first) << "step " << i;
      ASSERT_EQ(it.value().ToString(), want->second) << "step " << i;
      ASSERT_TRUE(it.Next().ok());
    }
    if (want == reference_.end()) {
      EXPECT_FALSE(it.Valid());
    }
  }

  storage::SimDisk disk_;
  storage::BufferPool pool_;
  std::unique_ptr<BTree> tree_;
  std::map<std::string, std::string> reference_;
};

TEST_P(BTreePropertyTest, MatchesReferenceMap) {
  RunOps();
  if (HasFatalFailure()) return;

  EXPECT_EQ(tree_->num_entries(), static_cast<int64_t>(reference_.size()));
  // Full scan must match the reference in order and content.
  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  for (const auto& [key, value] : reference_) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key().ToString(), key);
    EXPECT_EQ(it.value().ToString(), value);
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_FALSE(it.Valid());
}

TEST_P(BTreePropertyTest, SeeksAndLookupsMatchReferenceMap) {
  RunOps();
  if (HasFatalFailure()) return;

  // Get after every split the op sequence caused: each live key reads its
  // value, each absent key in the key space is NotFound.
  for (int64_t k = 0; k < GetParam().key_space; ++k) {
    const std::string key = MakeKey(k);
    auto got = tree_->Get(key);
    auto want = reference_.find(key);
    if (want == reference_.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << k;
    } else {
      ASSERT_TRUE(got.ok()) << k;
      EXPECT_EQ(*got, want->second) << k;
    }
  }

  // Seek before everything, at each key, just past each key (between it
  // and its successor: keys share one length) and past the last key.
  // Every 16th seek walks far enough on to cross into later leaves.
  ExpectSeekMatches("", 64);
  int n = 0;
  for (const auto& entry : reference_) {
    const int steps = n++ % 16 == 0 ? 600 : 2;
    ExpectSeekMatches(entry.first, steps);
    ExpectSeekMatches(entry.first + '\0', steps);
    if (HasFatalFailure()) return;
  }
  ExpectSeekMatches(MakeKey(GetParam().key_space), 1);
  ExpectSeekMatches(std::string(16, '\xff'), 1);
}

INSTANTIATE_TEST_SUITE_P(
    RandomOps, BTreePropertyTest,
    ::testing::Values(PropertyParam{1, 2000, 100},
                      PropertyParam{2, 5000, 1000},
                      PropertyParam{3, 5000, 50},
                      PropertyParam{4, 8000, 10000},
                      PropertyParam{5, 3000, 3}));

}  // namespace
}  // namespace odh::index
