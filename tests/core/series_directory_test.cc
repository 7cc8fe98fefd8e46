// The in-memory series directory (the RTS/IRTS index of each segment)
// against the tables it indexes. GetRts, GetIrts and ListHistorical must
// return exactly the blobs — same segment, rid and begin, in the same
// order — that a full heap scan of each segment table yields once it is
// filtered to the source and window and sorted by (id, begin, rid): the
// order the ordered merge and CatchUpHistorical rely on. Checked after
// interleaved RTS/IRTS puts over several segments, after compaction,
// after a retention drop, after Recover on a rebooted disk and on a
// replica fed from the primary's WAL, in the segmented and the flat
// layout. Duplicate (id, begin) puts whose later put holds the lower rid
// pin the rid tie-break.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "core/replica.h"

namespace odh::core {
namespace {

constexpr Timestamp kMs = 1000;
constexpr Timestamp kTick = 10 * kMs;  // Sampling interval.
constexpr SourceId kFirstRegular = 1, kLastRegular = 3;  // RTS.
constexpr SourceId kFirstJittery = 4, kLastJittery = 6;  // IRTS.

OdhOptions Opts(Timestamp span) {
  OdhOptions options;
  options.batch_size = 500;  // Some blobs outgrow a page: overflow rids.
  options.segment_span = span;
  return options;
}

int Define(OdhSystem* sys) {
  const int type = sys->DefineSchemaType("env", {"a", "b"}).value();
  for (SourceId id = kFirstRegular; id <= kLastJittery; ++id) {
    ODH_CHECK_OK(sys->RegisterSource(id, type, kTick, id <= kLastRegular));
  }
  return type;
}

/// Ticks [from, to) of every source with noisy values (so blobs are large
/// and vary in size), a FlushAll on about one tick in 150.
Status Ingest(OdhSystem* sys, std::mt19937* rng, int from, int to) {
  std::uniform_real_distribution<double> noise(-1000.0, 1000.0);
  for (int i = from; i < to; ++i) {
    for (SourceId id = kFirstRegular; id <= kLastJittery; ++id) {
      Timestamp ts = i * kTick;
      if (id >= kFirstJittery) ts += static_cast<Timestamp>((*rng)() % 5) * kMs;
      ODH_RETURN_IF_ERROR(
          sys->Ingest({id, ts, {noise(*rng), std::floor(noise(*rng))}}));
    }
    if ((*rng)() % 150 == 0) ODH_RETURN_IF_ERROR(sys->FlushAll());
  }
  return sys->FlushAll();
}

/// Puts two blobs at the (id, begin) of each source's largest blob: a copy
/// of it, then its smallest blob's bytes. The copy is large enough to go
/// to fresh overflow pages, the small one to the table's current append
/// page, so the later put holds the lower rid. Returns how many such pairs
/// were put in that inverted order.
int PutDuplicates(OdhSystem* sys, int type) {
  OdhStore* store = sys->store();
  int inverted = 0;
  for (SourceId id = kFirstRegular; id <= kLastJittery; ++id) {
    const bool irts = id >= kFirstJittery;
    std::vector<BlobRecord> recs =
        (irts ? store->GetIrts(type, id, kMinTimestamp, kMaxTimestamp)
              : store->GetRts(type, id, kMinTimestamp, kMaxTimestamp))
            .value();
    if (recs.size() < 2) continue;
    auto by_size = [](const BlobRecord& a, const BlobRecord& b) {
      return a.blob.size() < b.blob.size();
    };
    const BlobRecord big = *std::max_element(recs.begin(), recs.end(), by_size);
    const BlobRecord small =
        *std::min_element(recs.begin(), recs.end(), by_size);
    const Timestamp small_end = big.begin + (small.end - small.begin);
    if (irts) {
      ODH_CHECK_OK(store->PutIrts(type, id, big.begin, big.end, big.n,
                                  big.blob, big.zone_map));
      ODH_CHECK_OK(store->PutIrts(type, id, big.begin, small_end, small.n,
                                  small.blob, small.zone_map));
    } else {
      ODH_CHECK_OK(store->PutRts(type, id, big.begin, big.end, big.interval,
                                 big.n, big.blob, big.zone_map));
      ODH_CHECK_OK(store->PutRts(type, id, big.begin, small_end,
                                 small.interval, small.n, small.blob,
                                 small.zone_map));
    }
    // Find the pair again: the copy is the second blob at big.begin with
    // big's bytes, the late one the only one with small's bytes there.
    recs = (irts ? store->GetIrts(type, id, big.begin, big.begin)
                 : store->GetRts(type, id, big.begin, big.begin))
               .value();
    const BlobRecord* copy = nullptr;
    const BlobRecord* late = nullptr;
    int bigs = 0;
    for (const BlobRecord& r : recs) {
      if (r.begin != big.begin) continue;
      if (r.blob == big.blob && ++bigs == 2) copy = &r;
      if (r.blob == small.blob && r.n == small.n) late = &r;
    }
    if (copy != nullptr && late != nullptr && copy->seg == late->seg &&
        std::tie(late->rid.page, late->rid.slot) <
            std::tie(copy->rid.page, copy->rid.slot)) {
      ++inverted;
    }
  }
  ODH_CHECK_OK(store->Sync(type));
  return inverted;
}

/// What a listing and the reference must agree on, in order.
using Key = std::tuple<int64_t, int64_t, uint32_t, uint32_t, Timestamp>;

std::vector<Key> Keys(const std::vector<BlobRecord>& recs) {
  std::vector<Key> out;
  for (const BlobRecord& r : recs) {
    out.emplace_back(r.seg, r.generation, r.rid.page, r.rid.slot, r.begin);
  }
  return out;
}

/// Segment tables read through a full heap scan (SnapshotSegment).
struct HeapImage {
  std::vector<std::vector<BlobRecord>> rts;  // Per segment, key order.
  std::vector<std::vector<BlobRecord>> irts;
  int64_t blobs = 0;
};

HeapImage ScanHeap(OdhStore* store, int type) {
  HeapImage image;
  for (const SegmentInfo& info : store->SegmentInfos(type)) {
    SegmentSnapshot snap = store->SnapshotSegment(type, info.key).value();
    image.blobs += static_cast<int64_t>(snap.rts.size() + snap.irts.size());
    image.rts.push_back(std::move(snap.rts));
    image.irts.push_back(std::move(snap.irts));
  }
  return image;
}

/// The listing a correct index yields: per segment in key order, the
/// source's blobs overlapping [lo, hi], sorted by (id, begin, rid).
std::vector<Key> Reference(const std::vector<std::vector<BlobRecord>>& segs,
                           SourceId id, Timestamp lo, Timestamp hi) {
  std::vector<Key> out;
  for (const std::vector<BlobRecord>& seg : segs) {
    std::vector<BlobRecord> hits;
    for (const BlobRecord& r : seg) {
      if (r.id == id && r.end >= lo && r.begin <= hi) hits.push_back(r);
    }
    std::sort(hits.begin(), hits.end(),
              [](const BlobRecord& a, const BlobRecord& b) {
                return std::tie(a.id, a.begin, a.rid.page, a.rid.slot) <
                       std::tie(b.id, b.begin, b.rid.page, b.rid.slot);
              });
    for (const Key& k : Keys(hits)) out.push_back(k);
  }
  return out;
}

/// Compares every listing entry point against the heap reference for
/// every source: over the whole range, at the first and last timestamp,
/// and over random windows and points. Also checks that the directories
/// hold one entry per heap row.
void CheckParity(OdhStore* store, int type, uint32_t seed,
                 const std::string& where) {
  SCOPED_TRACE(where);
  const HeapImage heap = ScanHeap(store, type);
  EXPECT_GT(heap.blobs, 0);
  EXPECT_EQ(store->series_directory_entries(), heap.blobs);
  const ContainerStats rts = store->rts_stats(type);
  const ContainerStats irts = store->irts_stats(type);
  const Timestamp min_ts = std::min(rts.min_ts, irts.min_ts);
  const Timestamp max_ts = std::max(rts.max_ts, irts.max_ts);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Timestamp> at(min_ts - kTick, max_ts + kTick);
  for (SourceId id = kFirstRegular; id <= kLastJittery; ++id) {
    std::vector<std::pair<Timestamp, Timestamp>> windows = {
        {kMinTimestamp, kMaxTimestamp}, {min_ts, min_ts}, {max_ts, max_ts}};
    for (int w = 0; w < 12; ++w) {
      Timestamp a = at(rng), b = at(rng);
      if (a > b) std::swap(a, b);
      windows.emplace_back(a, b);
      windows.emplace_back(a, a);
    }
    for (const auto& [lo, hi] : windows) {
      SCOPED_TRACE("id " + std::to_string(id) + " [" + std::to_string(lo) +
                   ", " + std::to_string(hi) + "]");
      const std::vector<Key> want_rts = Reference(heap.rts, id, lo, hi);
      const std::vector<Key> want_irts = Reference(heap.irts, id, lo, hi);
      EXPECT_EQ(Keys(store->GetRts(type, id, lo, hi).value()), want_rts);
      EXPECT_EQ(Keys(store->GetIrts(type, id, lo, hi).value()), want_irts);
      OdhStore::HistoricalListing listing =
          store
              ->ListHistorical(type, id, /*rts=*/true, /*irts=*/true,
                               /*mg=*/false, /*mg_group=*/-1, lo, hi)
              .value();
      EXPECT_EQ(Keys(listing.rts), want_rts);
      EXPECT_EQ(Keys(listing.irts), want_irts);
    }
  }
}

/// Every series blob by content, sorted: what two stores holding the same
/// data agree on even though their rids differ.
std::vector<std::tuple<SourceId, Timestamp, Timestamp, int64_t, std::string>>
Contents(OdhStore* store, int type) {
  std::vector<std::tuple<SourceId, Timestamp, Timestamp, int64_t, std::string>>
      out;
  for (SourceId id = kFirstRegular; id <= kLastJittery; ++id) {
    for (bool irts : {false, true}) {
      const std::vector<BlobRecord> recs =
          (irts ? store->GetIrts(type, id, kMinTimestamp, kMaxTimestamp)
                : store->GetRts(type, id, kMinTimestamp, kMaxTimestamp))
              .value();
      for (const BlobRecord& r : recs) {
        out.emplace_back(r.id, r.begin, r.end, r.n, r.blob);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Streams the primary's durable WAL past `*next` into the replica.
void Ship(OdhSystem* primary, ReplicaApplier* applier, uint64_t pin,
          uint64_t* next) {
  while (true) {
    Wal::TailChunk chunk =
        primary->store()->ReadWal(*next, 1 << 20).value();
    if (chunk.next_lsn == *next) break;
    ODH_CHECK_OK(applier->ApplyWalBatch(*next, chunk.next_lsn, chunk.records));
    *next = chunk.next_lsn;
    primary->store()->MoveWalPin(pin, *next);
  }
  ODH_CHECK_OK(applier->Flush());
}

class SeriesDirectoryTest : public ::testing::TestWithParam<Timestamp> {};

TEST_P(SeriesDirectoryTest, ListingsMatchTheHeapInIndexOrder) {
  const Timestamp span = GetParam();
  const bool segmented = span > 0;
  std::mt19937 rng(20141);
  OdhSystem primary(Opts(span));
  const int type = Define(&primary);

  // Interleaved RTS/IRTS puts over several segments, plus duplicate puts
  // whose later blob holds the lower rid.
  ASSERT_TRUE(Ingest(&primary, &rng, 0, 3000).ok());
  EXPECT_GT(PutDuplicates(&primary, type), 0);
  if (segmented) {
    ASSERT_GE(primary.store()->SegmentInfos(type).size(), 3u);
  }
  CheckParity(primary.store(), type, 1, "after puts");

  // A replica bootstrapped here follows everything below off the WAL.
  OdhSystem replica_sys(Opts(span));
  Define(&replica_sys);
  ReplicaApplier applier(replica_sys.store());
  uint64_t pin = 0;
  OdhStore::ReplicationSnapshot snap =
      primary.store()->SnapshotForReplication(&pin).value();
  applier.BeginSnapshot();
  applier.AddSnapshotRecords(std::move(snap.records));
  ASSERT_TRUE(applier.FinishSnapshot(snap.base_lsn).ok());
  uint64_t shipped = snap.base_lsn;

  ASSERT_TRUE(primary.CompactSegments(type).ok());
  if (segmented) {
    EXPECT_GT(primary.store()->segments_compacted(), 0);
  }
  CheckParity(primary.store(), type, 2, "after compaction");

  // More puts land in the newest (hot) segments, then retention drops the
  // oldest ones.
  ASSERT_TRUE(Ingest(&primary, &rng, 3000, 4500).ok());
  EXPECT_GT(PutDuplicates(&primary, type), 0);
  ASSERT_TRUE(primary.SetRetention(type, 10 * span).ok());
  ASSERT_TRUE(primary.ApplyRetention(type).ok());
  if (segmented) {
    EXPECT_GT(primary.store()->segments_dropped(), 0);
  }
  CheckParity(primary.store(), type, 3, "after retention");

  // Reboot from the durable disk: recovery rebuilds the directory by
  // replaying the WAL through PutRts/PutIrts.
  ASSERT_TRUE(primary.FlushAll().ok());
  std::unique_ptr<storage::SimDisk> rebooted =
      primary.database()->disk()->CloneDurable();
  OdhSystem recovered(Opts(span));
  Define(&recovered);
  ASSERT_TRUE(recovered.Recover(rebooted.get()).ok());
  CheckParity(recovered.store(), type, 4, "after recovery");
  EXPECT_EQ(Contents(recovered.store(), type), Contents(primary.store(), type));

  Ship(&primary, &applier, pin, &shipped);
  primary.store()->UnpinWal(pin);
  CheckParity(replica_sys.store(), type, 5, "on the replica");
  EXPECT_EQ(Contents(replica_sys.store(), type),
            Contents(primary.store(), type));
}

/// odh.store.series_directory_entries counts what the directories hold:
/// one entry per live RTS/IRTS blob, the sum of odh_storage's rts and irts
/// blob_count, through puts, compaction and retention.
TEST_P(SeriesDirectoryTest, GaugeMatchesLiveSeriesBlobs) {
  const Timestamp span = GetParam();
  std::mt19937 rng(7);
  OdhSystem sys(Opts(span));
  const int type = Define(&sys);
  // Returns the live series blob count odh_storage reports (-1 when a
  // query fails).
  auto check = [&](const char* where) -> int64_t {
    SCOPED_TRACE(where);
    auto gauge = sys.engine()->Execute(
        "SELECT value FROM odh_metrics "
        "WHERE name = 'odh.store.series_directory_entries'");
    auto live = sys.engine()->Execute(
        "SELECT container, blob_count FROM odh_storage");
    EXPECT_TRUE(gauge.ok() && live.ok());
    if (!gauge.ok() || !live.ok() || gauge->rows.size() != 1) return -1;
    int64_t blobs = 0;
    for (const Row& row : live->rows) {
      if (row[0] == Datum::String("rts") || row[0] == Datum::String("irts")) {
        blobs += row[1].int64_value();
      }
    }
    EXPECT_EQ(gauge->rows[0][0].double_value(), static_cast<double>(blobs));
    return blobs;
  };
  EXPECT_EQ(check("empty"), 0);
  ASSERT_TRUE(Ingest(&sys, &rng, 0, 2000).ok());
  PutDuplicates(&sys, type);
  EXPECT_GT(check("after puts"), 0);
  ASSERT_TRUE(sys.CompactSegments(type).ok());
  EXPECT_GT(check("after compaction"), 0);
  ASSERT_TRUE(sys.SetRetention(type, 10 * span).ok());
  ASSERT_TRUE(Ingest(&sys, &rng, 2000, 3500).ok());
  ASSERT_TRUE(sys.ApplyRetention(type).ok());
  EXPECT_GT(check("after retention"), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, SeriesDirectoryTest,
    ::testing::Values(Timestamp{2 * 1000 * kMs}, Timestamp{0}),
    [](const ::testing::TestParamInfo<Timestamp>& info) {
      return std::string(info.param > 0 ? "Segmented" : "Flat");
    });

}  // namespace
}  // namespace odh::core
