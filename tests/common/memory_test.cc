// MemoryTracker hierarchy semantics (reserve/release propagation, limits
// at every level, peak tracking, residual return on destruction), the
// ScopedReservation RAII unit, and the tracker-charged Arena.

#include "common/memory.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace odh::common {
namespace {

TEST(MemoryTrackerTest, ReserveChargesEveryAncestor) {
  MemoryTracker root("process");
  MemoryTracker session("session", 0, &root);
  MemoryTracker query("query", 0, &session);

  ASSERT_TRUE(query.TryReserve(100).ok());
  EXPECT_EQ(query.used(), 100);
  EXPECT_EQ(session.used(), 100);
  EXPECT_EQ(root.used(), 100);

  query.Release(40);
  EXPECT_EQ(query.used(), 60);
  EXPECT_EQ(session.used(), 60);
  EXPECT_EQ(root.used(), 60);
}

TEST(MemoryTrackerTest, RefusalNamesTheLevelAndChargesNothing) {
  MemoryTracker root("process", 1000);
  MemoryTracker session("session", 0, &root);
  MemoryTracker query("query", 100, &session);

  // Query level refuses.
  Status st = query.TryReserve(101);
  EXPECT_TRUE(st.IsResourceExhausted());
  EXPECT_NE(st.ToString().find("query"), std::string::npos);
  EXPECT_EQ(query.used(), 0);
  EXPECT_EQ(root.used(), 0);

  // A modest query can still be refused because the process is full:
  // rollback must undo the partial charges below the refusing level.
  MemoryTracker fat("query2", 0, &session);
  ASSERT_TRUE(fat.TryReserve(950).ok());
  st = query.TryReserve(100);
  EXPECT_TRUE(st.IsResourceExhausted());
  EXPECT_NE(st.ToString().find("process"), std::string::npos);
  EXPECT_EQ(query.used(), 0);
  EXPECT_EQ(session.used(), 950);
  EXPECT_EQ(root.used(), 950);
}

TEST(MemoryTrackerTest, ZeroLimitTracksWithoutRefusing) {
  MemoryTracker root("process");  // Unbounded.
  EXPECT_TRUE(root.TryReserve(int64_t{1} << 40).ok());
  EXPECT_EQ(root.used(), int64_t{1} << 40);
  root.Release(int64_t{1} << 40);
}

TEST(MemoryTrackerTest, PeakIsHighWaterMark) {
  MemoryTracker t("t");
  ASSERT_TRUE(t.TryReserve(300).ok());
  t.Release(200);
  ASSERT_TRUE(t.TryReserve(50).ok());
  EXPECT_EQ(t.used(), 150);
  EXPECT_EQ(t.peak(), 300);
  t.Release(150);
  EXPECT_EQ(t.peak(), 300);  // Peak survives release.
}

TEST(MemoryTrackerTest, DestructionReturnsResidualToAncestors) {
  MemoryTracker root("process");
  {
    MemoryTracker child("child", 0, &root);
    ASSERT_TRUE(child.TryReserve(500).ok());
    EXPECT_EQ(root.used(), 500);
  }
  // Child died holding 500; the ancestors got it back.
  EXPECT_EQ(root.used(), 0);
}

TEST(MemoryTrackerTest, ConcurrentReservationsNeverOvershoot) {
  MemoryTracker root("process", 10000);
  std::vector<std::thread> threads;
  std::atomic<int64_t> admitted{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 1000; ++j) {
        if (root.TryReserve(7).ok()) {
          admitted.fetch_add(7);
          root.Release(7);
          admitted.fetch_sub(7);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(root.used(), 0);
  EXPECT_LE(root.peak(), 10000);
}

TEST(ScopedReservationTest, ReleasesEverythingOnDestruction) {
  MemoryTracker t("t");
  {
    ScopedReservation r(&t);
    ASSERT_TRUE(r.Reserve(100).ok());
    ASSERT_TRUE(r.Reserve(200).ok());
    EXPECT_EQ(r.bytes(), 300);
    EXPECT_EQ(t.used(), 300);
    r.Release(50);
    EXPECT_EQ(t.used(), 250);
  }
  EXPECT_EQ(t.used(), 0);
}

TEST(ScopedReservationTest, NullTrackerIsNoOpSuccess) {
  ScopedReservation r(nullptr);
  EXPECT_TRUE(r.Reserve(1 << 30).ok());
  r.ReleaseAll();  // Must not crash.
}

TEST(ScopedReservationTest, OverReleaseIsClamped) {
  MemoryTracker t("t");
  ScopedReservation r(&t);
  ASSERT_TRUE(r.Reserve(10).ok());
  r.Release(1000);  // Clamped to what was reserved.
  EXPECT_EQ(t.used(), 0);
  EXPECT_EQ(r.bytes(), 0);
}

TEST(ArenaTest, AllocationsAreAlignedAndCharged) {
  MemoryTracker t("t");
  Arena arena(&t);
  auto a = arena.Allocate(10);
  ASSERT_TRUE(a.ok());
  auto b = arena.Allocate(100);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a.value()) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.value()) % 8, 0u);
  EXPECT_GT(t.used(), 0);
  EXPECT_EQ(t.used(), arena.bytes_allocated());
  arena.Reset();
  EXPECT_EQ(t.used(), 0);
}

TEST(ArenaTest, RefusedWhenBudgetCannotCoverBlock) {
  MemoryTracker t("t", 1024);  // Below the arena's minimum block.
  Arena arena(&t);
  auto r = arena.Allocate(16);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted());
  EXPECT_EQ(t.used(), 0);
}

TEST(ArenaTest, LargeAllocationSpansDedicatedBlock) {
  MemoryTracker t("t");
  Arena arena(&t);
  auto r = arena.Allocate(1 << 20);  // Larger than kMaxBlock.
  ASSERT_TRUE(r.ok());
  EXPECT_GE(arena.bytes_allocated(), 1 << 20);
  // The bump cursor still serves small allocations afterwards.
  EXPECT_TRUE(arena.Allocate(64).ok());
}

TEST(ApproxBytesTest, StringsCountTheirCapacity) {
  const Datum small = Datum::Int64(7);
  EXPECT_EQ(ApproxDatumBytes(small), static_cast<int64_t>(sizeof(Datum)));
  const Datum str = Datum::String(std::string(1000, 'x'));
  EXPECT_GE(ApproxDatumBytes(str),
            static_cast<int64_t>(sizeof(Datum)) + 1000);
  // The string's out-of-line object is charged as well as its capacity.
  EXPECT_EQ(ApproxDatumBytes(str),
            static_cast<int64_t>(sizeof(Datum) + sizeof(std::string) +
                                 str.string_value().capacity()));
  const Row row = {small, str};
  EXPECT_EQ(ApproxRowBytes(row), static_cast<int64_t>(sizeof(Row)) +
                                     ApproxDatumBytes(small) +
                                     ApproxDatumBytes(str));
}

}  // namespace
}  // namespace odh::common
