#include "relational/heap_file.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "common/random.h"

namespace odh::relational {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : disk_(512), pool_(&disk_, 16) {
    heap_ = HeapFile::Create(&pool_, "h").value();
  }

  storage::SimDisk disk_;
  storage::BufferPool pool_;
  std::unique_ptr<HeapFile> heap_;
};

TEST_F(HeapFileTest, RidEncodesRoundTrip) {
  Rid rid{12345, 67};
  Rid out;
  ASSERT_TRUE(Rid::Decode(Slice(rid.Encode()), &out));
  EXPECT_EQ(out, rid);
  EXPECT_FALSE(Rid::Decode(Slice("short"), &out));
}

TEST_F(HeapFileTest, InsertAndGet) {
  Rid a = heap_->Insert(Slice("hello")).value();
  Rid b = heap_->Insert(Slice("world!")).value();
  EXPECT_EQ(heap_->Get(a).value(), "hello");
  EXPECT_EQ(heap_->Get(b).value(), "world!");
  EXPECT_EQ(heap_->record_count(), 2);
}

TEST_F(HeapFileTest, FillsMultiplePages) {
  std::vector<Rid> rids;
  for (int i = 0; i < 200; ++i) {
    rids.push_back(heap_->Insert(Slice(std::to_string(i))).value());
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(heap_->Get(rids[i]).value(), std::to_string(i)) << i;
  }
  // 200 small records cannot fit in one 512-byte page.
  EXPECT_GT(rids.back().page, 0u);
}

TEST_F(HeapFileTest, OverflowRecordSpanningPages) {
  std::string big(2000, 'x');  // ~4 pages at 512B.
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i % 251);
  Rid rid = heap_->Insert(Slice(big)).value();
  EXPECT_EQ(heap_->Get(rid).value(), big);
}

TEST_F(HeapFileTest, MixedSmallAndOverflow) {
  Rid small1 = heap_->Insert(Slice("aa")).value();
  std::string big(1500, 'B');
  Rid over = heap_->Insert(Slice(big)).value();
  Rid small2 = heap_->Insert(Slice("cc")).value();
  EXPECT_EQ(heap_->Get(small1).value(), "aa");
  EXPECT_EQ(heap_->Get(over).value(), big);
  EXPECT_EQ(heap_->Get(small2).value(), "cc");
}

TEST_F(HeapFileTest, DeleteHidesRecord) {
  Rid a = heap_->Insert(Slice("doomed")).value();
  Rid b = heap_->Insert(Slice("keep")).value();
  ASSERT_TRUE(heap_->Delete(a).ok());
  EXPECT_TRUE(heap_->Get(a).status().IsNotFound());
  EXPECT_TRUE(heap_->Delete(a).IsNotFound());
  EXPECT_EQ(heap_->Get(b).value(), "keep");
  EXPECT_EQ(heap_->record_count(), 1);
}

TEST_F(HeapFileTest, DeleteOverflowRecord) {
  std::string big(1500, 'Z');
  Rid rid = heap_->Insert(Slice(big)).value();
  ASSERT_TRUE(heap_->Delete(rid).ok());
  EXPECT_TRUE(heap_->Get(rid).status().IsNotFound());
}

TEST_F(HeapFileTest, ScanVisitsAllLiveRecordsIncludingOverflow) {
  std::vector<std::string> expected;
  for (int i = 0; i < 50; ++i) {
    std::string rec = "small" + std::to_string(i);
    heap_->Insert(Slice(rec)).value();
    expected.push_back(rec);
  }
  std::string big(1200, 'Q');
  heap_->Insert(Slice(big)).value();
  expected.push_back(big);
  for (int i = 0; i < 10; ++i) {
    std::string rec = "tail" + std::to_string(i);
    heap_->Insert(Slice(rec)).value();
    expected.push_back(rec);
  }

  std::multiset<std::string> want(expected.begin(), expected.end());
  auto it = heap_->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  std::multiset<std::string> got;
  while (it.Valid()) {
    got.insert(it.record().value().ToString());
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(got, want);
}

TEST_F(HeapFileTest, ScanSkipsDeleted) {
  Rid a = heap_->Insert(Slice("a")).value();
  heap_->Insert(Slice("b")).value();
  Rid c = heap_->Insert(Slice("c")).value();
  ASSERT_TRUE(heap_->Delete(a).ok());
  ASSERT_TRUE(heap_->Delete(c).ok());
  auto it = heap_->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.record().value(), "b");
  ASSERT_TRUE(it.Next().ok());
  EXPECT_FALSE(it.Valid());
}

// The SQL planner sizes a table from record_count() without the engine's
// write mutex, while another session's INSERT holds it and appends. Built
// with TSan, this is the check that the counter may be read meanwhile.
TEST_F(HeapFileTest, RecordCountIsReadableWhileInserting) {
  constexpr int kRecords = 2000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    int64_t last = 0;
    while (!done.load()) {
      const int64_t n = heap_->record_count();
      EXPECT_GE(n, last);
      last = n;
    }
  });
  int inserted = 0;
  for (; inserted < kRecords; ++inserted) {
    if (!heap_->Insert(Slice("r")).ok()) break;
  }
  done = true;
  reader.join();
  EXPECT_EQ(inserted, kRecords);
  EXPECT_EQ(heap_->record_count(), kRecords);
}

struct HeapPropertyParam {
  uint64_t seed;
  int ops;
};

class HeapFilePropertyTest
    : public ::testing::TestWithParam<HeapPropertyParam> {};

TEST_P(HeapFilePropertyTest, RandomInsertGetDeleteMatchesReference) {
  storage::SimDisk disk(512);
  storage::BufferPool pool(&disk, 8);
  auto heap = HeapFile::Create(&pool, "h").value();
  Random rng(GetParam().seed);
  std::map<std::string, std::string> live;  // encoded rid -> record.
  std::vector<Rid> rids;

  for (int op = 0; op < GetParam().ops; ++op) {
    uint64_t action = rng.Uniform(3);
    if (action == 0 || rids.empty()) {
      size_t len = rng.OneIn(10) ? 400 + rng.Uniform(1500) : rng.Uniform(50);
      std::string rec;
      for (size_t i = 0; i < len; ++i) {
        rec.push_back(static_cast<char>(rng.Uniform(256)));
      }
      Rid rid = heap->Insert(Slice(rec)).value();
      rids.push_back(rid);
      live[rid.Encode()] = rec;
    } else if (action == 1) {
      Rid rid = rids[rng.Uniform(rids.size())];
      auto got = heap->Get(rid);
      auto it = live.find(rid.Encode());
      if (it == live.end()) {
        EXPECT_TRUE(got.status().IsNotFound());
      } else {
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), it->second);
      }
    } else {
      Rid rid = rids[rng.Uniform(rids.size())];
      Status s = heap->Delete(rid);
      auto it = live.find(rid.Encode());
      if (it == live.end()) {
        EXPECT_TRUE(s.IsNotFound());
      } else {
        EXPECT_TRUE(s.ok());
        live.erase(it);
      }
    }
  }
  EXPECT_EQ(heap->record_count(), static_cast<int64_t>(live.size()));
}

INSTANTIATE_TEST_SUITE_P(RandomOps, HeapFilePropertyTest,
                         ::testing::Values(HeapPropertyParam{1, 1500},
                                           HeapPropertyParam{2, 3000},
                                           HeapPropertyParam{3, 800}));

// Ranged reads of overflow chains. Pages are 512 bytes with a 4-byte CRC
// trailer: a chain's head page carries kFirst record bytes, each
// continuation page kCont.
constexpr size_t kFirst = 512 - 4 - 8;
constexpr size_t kCont = 512 - 4 - 4;

std::string Pattern(size_t size, int seed) {
  std::string out(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<char>((i * 131 + static_cast<size_t>(seed) * 7) % 251);
  }
  return out;
}

/// Record sizes of `pages` pages: a slotted record for one page, else the
/// shortest and the longest chain of that many pages.
std::vector<size_t> SizesOfPages(int pages) {
  if (pages == 1) return {300};
  const size_t full = kFirst + static_cast<size_t>(pages - 1) * kCont;
  return {full - kCont + 1, full};
}

TEST_F(HeapFileTest, ReadRangeReturnsTheBytesAskedFor) {
  for (int pages = 1; pages <= 6; ++pages) {
    for (size_t size : SizesOfPages(pages)) {
      const std::string rec = Pattern(size, pages);
      const Rid rid = heap_->Insert(Slice(rec)).value();
      struct Range {
        const char* what;
        size_t offset, len;
      };
      std::vector<Range> ranges = {
          {"head only", 3, std::min<size_t>(size - 3, 40)},
          {"whole", 0, size},
          {"tail", size - 25, 25},
          {"empty at end", size, 0},
      };
      if (pages >= 2) {
        ranges.push_back({"to the head page's end", 10, kFirst - 10});
        ranges.push_back({"across the first boundary", kFirst - 5, 10});
        ranges.push_back({"ends on a page boundary", kFirst + kCont - 100,
                          100});
      }
      if (pages >= 3) {
        ranges.push_back({"middle only", kFirst + kCont + 7, 30});
        ranges.push_back({"one whole middle page", kFirst + kCont, kCont});
      }
      HeapFile::RecordBuffer buf;
      ASSERT_TRUE(heap_->ReadHead(rid, &buf).ok());
      EXPECT_EQ(buf.size(), size);
      EXPECT_EQ(buf.complete(), pages == 1);
      EXPECT_TRUE(buf.data().ToString() ==
                  rec.substr(0, std::min(size, pages == 1 ? size : kFirst)));
      for (const Range& r : ranges) {
        if (r.offset + r.len > size) continue;  // Shortest chains.
        std::string got = "prefix";
        ASSERT_TRUE(heap_->ReadRange(buf, r.offset, r.len, &got).ok())
            << pages << " pages, " << r.what;
        EXPECT_TRUE(got == "prefix" + rec.substr(r.offset, r.len))
            << pages << " pages, size " << size << ", " << r.what;
      }
      std::string past;
      EXPECT_TRUE(heap_->ReadRange(buf, size - 3, 4, &past).code() == StatusCode::kOutOfRange);
      EXPECT_TRUE(heap_->ReadRange(buf, size + 1, 0, &past).code() == StatusCode::kOutOfRange);
      // A whole read of the same record agrees.
      ASSERT_TRUE(heap_->Read(rid, &buf).ok());
      EXPECT_TRUE(buf.complete());
      EXPECT_TRUE(buf.data().ToString() == rec);
    }
  }
}

TEST_F(HeapFileTest, ReadRangeFetchesOnlyThePagesItCovers) {
  const std::string rec = Pattern(kFirst + 4 * kCont, 1);  // 5 pages.
  const Rid rid = heap_->Insert(Slice(rec)).value();
  ASSERT_TRUE(pool_.FlushAll().ok());
  pool_.DropCleanPages();
  const uint64_t reads0 = disk_.stats().page_reads;
  HeapFile::RecordBuffer buf;
  ASSERT_TRUE(heap_->ReadHead(rid, &buf).ok());
  EXPECT_EQ(disk_.stats().page_reads - reads0, 1u);  // The head page.
  std::string got;
  // Bytes of continuation page 3 only.
  ASSERT_TRUE(
      heap_->ReadRange(buf, kFirst + 2 * kCont + 1, kCont - 2, &got).ok());
  EXPECT_EQ(got, rec.substr(kFirst + 2 * kCont + 1, kCont - 2));
  EXPECT_EQ(disk_.stats().page_reads - reads0, 2u);
  // Head bytes come from the pinned head page.
  ASSERT_TRUE(heap_->ReadRange(buf, 0, kFirst, &got).ok());
  EXPECT_EQ(disk_.stats().page_reads - reads0, 2u);
}

TEST_F(HeapFileTest, ReadRangeReportsABrokenChain) {
  const std::string rec = Pattern(kFirst + 2 * kCont, 2);  // 3 pages.
  const Rid rid = heap_->Insert(Slice(rec)).value();
  {
    // Overwrite the second continuation page's type byte.
    storage::PageRef page = pool_.FetchPage(heap_->file(), rid.page + 2)
                                .value();
    page.data()[0] = 1;
    page.MarkDirty();
  }
  HeapFile::RecordBuffer buf;
  ASSERT_TRUE(heap_->ReadHead(rid, &buf).ok());
  std::string got;
  EXPECT_TRUE(heap_->ReadRange(buf, 0, kFirst + kCont, &got).ok());
  EXPECT_TRUE(heap_->ReadRange(buf, kFirst + kCont, 1, &got).IsCorruption());
  EXPECT_TRUE(heap_->Read(rid, &buf).IsCorruption());
}

TEST_F(HeapFileTest, IteratorYieldsChainHeadsAndStepsOverUnreadPages) {
  // Chains of 2, 4 and 6 pages between small records (which share one
  // slotted page, so physical order is not insertion order).
  std::map<size_t, std::string> by_size;
  for (int i = 0; i < 6; ++i) {
    const std::string rec =
        i % 2 == 0 ? Pattern(kFirst + static_cast<size_t>(i + 1) * kCont - 9, i)
                   : "small" + std::string(static_cast<size_t>(i), '+');
    by_size[rec.size()] = rec;
    heap_->Insert(Slice(rec)).value();
  }
  ASSERT_TRUE(pool_.FlushAll().ok());
  const uint64_t file_pages = disk_.PageCount(heap_->file()).value();
  for (bool assemble : {false, true}) {
    pool_.DropCleanPages();
    const uint64_t reads0 = disk_.stats().page_reads;
    auto it = heap_->NewIterator();
    ASSERT_TRUE(it.SeekToFirst().ok());
    size_t n = 0;
    while (it.Valid()) {
      auto want = by_size.find(it.buffer().size());
      ASSERT_NE(want, by_size.end());
      EXPECT_TRUE(it.buffer().data().ToString() ==
                  want->second.substr(0, std::min(want->second.size(), kFirst)));
      if (assemble) {
        EXPECT_TRUE(it.record().value().ToString() == want->second);
      }
      ASSERT_TRUE(it.Next().ok());
      ++n;
    }
    EXPECT_EQ(n, by_size.size());
    const uint64_t reads = disk_.stats().page_reads - reads0;
    if (assemble) {
      EXPECT_EQ(reads, file_pages);  // Every page, each once.
    } else {
      EXPECT_EQ(reads, 4u);  // Three chain heads and the slotted page.
    }
  }
}

TEST_F(HeapFileTest, SeekAfterAChainHeadStepsOverIt) {
  const Rid big = heap_->Insert(Slice(Pattern(kFirst + 3 * kCont, 3))).value();
  heap_->Insert(Slice("after")).value();
  ASSERT_TRUE(pool_.FlushAll().ok());
  pool_.DropCleanPages();
  const uint64_t reads0 = disk_.stats().page_reads;
  auto it = heap_->NewIterator();
  ASSERT_TRUE(it.SeekAfter(big).ok());
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.record().value(), "after");
  // The chain's head (for its length) and the slotted page after it.
  EXPECT_EQ(disk_.stats().page_reads - reads0, 2u);
}

}  // namespace
}  // namespace odh::relational
