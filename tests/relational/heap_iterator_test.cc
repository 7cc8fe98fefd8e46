// The heap iterator keeps the page of its current record pinned between
// records and re-reads the file's page count only when it passes the last
// page it knows of. These tests pin what that must not change: records
// appended while an iterator is open are still seen, several open
// iterators share a tiny pool, and an exhausted or destroyed iterator
// holds no pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "relational/heap_file.h"

namespace odh::relational {
namespace {

constexpr size_t kPageSize = 512;
constexpr size_t kFrames = 8;

class HeapIteratorTest : public ::testing::Test {
 protected:
  HeapIteratorTest() : disk_(kPageSize), pool_(&disk_, kFrames) {
    heap_ = HeapFile::Create(&pool_, "h").value();
  }

  /// Record `i`: mostly small, every ninth one longer than a page (an
  /// overflow chain).
  static std::string Record(int i) {
    std::string r = "rec" + std::to_string(i) + ":";
    r.append(i % 9 == 4 ? 1300 : 20 + i % 37, static_cast<char>('a' + i % 26));
    return r;
  }

  void Append(int from, int to) {
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(heap_->Insert(Slice(Record(i))).ok()) << i;
    }
  }

  static std::vector<std::string> Drain(HeapFile::Iterator* it) {
    std::vector<std::string> out;
    while (it->Valid()) {
      out.push_back(it->record().value().ToString());
      if (!it->Next().ok()) break;
    }
    return out;
  }

  /// Records [from, to) sorted: the heap keeps physical order, and an
  /// overflow chain lands past the page small records still fill.
  static std::vector<std::string> Expected(int from, int to) {
    std::vector<std::string> out;
    for (int i = from; i < to; ++i) out.push_back(Record(i));
    std::sort(out.begin(), out.end());
    return out;
  }

  static std::vector<std::string> Sorted(std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    return v;
  }

  storage::SimDisk disk_;
  storage::BufferPool pool_;
  std::unique_ptr<HeapFile> heap_;
};

TEST_F(HeapIteratorTest, RecordsAppendedWhileOpenAreSeen) {
  Append(0, 30);
  auto it = heap_->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  std::vector<std::string> got;
  // Stop on the physically last record the file held when the iterator
  // opened.
  for (int i = 0; i < 29; ++i) {
    ASSERT_TRUE(it.Valid());
    got.push_back(it.record().value().ToString());
    ASSERT_TRUE(it.Next().ok());
  }
  ASSERT_TRUE(it.Valid());
  // New records land on the pinned append page and on pages past the
  // count the iterator read at the start (some of them overflow chains).
  Append(30, 80);
  for (const std::string& r : Drain(&it)) got.push_back(r);
  EXPECT_EQ(Sorted(got), Expected(0, 80));
}

TEST_F(HeapIteratorTest, SeveralIteratorsShareAnEightFramePool) {
  Append(0, 120);
  auto reference = heap_->NewIterator();
  ASSERT_TRUE(reference.SeekToFirst().ok());
  const std::vector<std::string> all = Drain(&reference);
  ASSERT_EQ(Sorted(all), Expected(0, 120));
  // Seven iterators each pin a page; an overflow record of any of them
  // needs one more frame for its continuation pages: eight in all.
  constexpr int kIterators = 7;
  std::vector<HeapFile::Iterator> its;
  its.reserve(kIterators);
  for (int k = 0; k < kIterators; ++k) {
    its.push_back(heap_->NewIterator());
    ASSERT_TRUE(its.back().SeekToFirst().ok());
    // Stagger the starting points.
    for (int s = 0; s < 5 * k; ++s) ASSERT_TRUE(its.back().Next().ok());
  }
  std::vector<std::vector<std::string>> got(kIterators);
  bool any = true;
  while (any) {
    any = false;
    for (int k = 0; k < kIterators; ++k) {
      if (!its[k].Valid()) continue;
      any = true;
      got[k].push_back(its[k].record().value().ToString());
      ASSERT_TRUE(its[k].Next().ok()) << "iterator " << k;
    }
  }
  for (int k = 0; k < kIterators; ++k) {
    EXPECT_EQ(got[k], std::vector<std::string>(all.begin() + 5 * k, all.end()))
        << "iterator " << k;
  }
}

TEST_F(HeapIteratorTest, ExhaustedOrDestroyedIteratorHoldsNoPin) {
  Append(0, 60);
  ASSERT_TRUE(pool_.FlushAll().ok());  // Every frame clean.
  // A read of `rid` that misses the pool: its page was dropped.
  auto misses_reading = [&](const Rid& rid) {
    const uint64_t before = pool_.miss_count();
    EXPECT_TRUE(heap_->Get(rid).ok());
    return pool_.miss_count() - before;
  };

  Rid stood_on;
  {
    auto it = heap_->NewIterator();
    ASSERT_TRUE(it.SeekToFirst().ok());
    for (int i = 0; i < 7; ++i) ASSERT_TRUE(it.Next().ok());
    ASSERT_TRUE(it.Valid());
    stood_on = it.rid();
  }  // Destroyed mid-scan.
  pool_.DropCleanPages();
  EXPECT_EQ(misses_reading(stood_on), 1u);

  auto it = heap_->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  while (it.Valid()) ASSERT_TRUE(it.Next().ok());
  // Exhausted: invalidating the file fails while any of its pages is
  // pinned.
  pool_.DropCleanPages();
  EXPECT_TRUE(pool_.InvalidateFile(heap_->file()).ok());
}

}  // namespace
}  // namespace odh::relational
