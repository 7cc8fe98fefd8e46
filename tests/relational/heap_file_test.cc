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
    got.insert(it.record().ToString());
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
  EXPECT_EQ(it.record(), "b");
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

}  // namespace
}  // namespace odh::relational
