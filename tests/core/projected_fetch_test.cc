// Projected fetches of series records longer than a page, driven through
// the store's listings:
//  - a fetch of some tags returns a blob that decodes, for those tags, to
//    what the stored blob decodes to, also when an IRTS blob's timestamps
//    run past the head page (the directory parse then reads on);
//  - a corrupt page is reported when a fetch reads it, and a fetch that
//    does not read it succeeds (the contract DESIGN.md § SQL scan path
//    states);
//  - seeded truncations and bit flips of a record's head, and of stored
//    blobs fetched by range and decoded up to a bound, return a Status and
//    never hit undefined behavior (CI runs the suite under ASan/UBSan).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/odh.h"
#include "core/series_record.h"
#include "core/value_blob.h"

namespace odh::core {
namespace {

constexpr int kTags = 4;
constexpr Timestamp kBegin = 1'000'000;

/// An IRTS batch of `n` points whose delta-of-delta timestamps take two
/// or three bytes each, with noisy values.
SeriesBatch NoisyBatch(size_t n, uint64_t seed) {
  Random rng(seed);
  SeriesBatch batch;
  batch.columns.resize(kTags);
  Timestamp ts = kBegin;
  for (size_t i = 0; i < n; ++i) {
    batch.timestamps.push_back(ts);
    ts += 1000 + static_cast<Timestamp>(rng.Uniform(90'000));
    for (int t = 0; t < kTags; ++t) {
      batch.columns[t].push_back(t == 2 && i % 5 == 0 ? std::nan("")
                                                      : rng.NextDouble() * 1e3);
    }
  }
  return batch;
}

class ProjectedFetchTest : public ::testing::Test {
 protected:
  ProjectedFetchTest() : odh_(OdhOptions()) {
    type_ = odh_.DefineSchemaType("t", {"a", "b", "c", "d"}).value();
  }

  /// Stores `blob` as source `id`'s IRTS blob of `batch`'s span.
  void Put(SourceId id, const SeriesBatch& batch, const std::string& blob,
           const std::string& zone_map = "zone") {
    ODH_CHECK_OK(odh_.store()->PutIrts(
        type_, id, batch.timestamps.front(), batch.timestamps.back(),
        static_cast<int64_t>(batch.num_points()), blob, zone_map));
  }

  Result<std::vector<BlobRecord>> List(SourceId id,
                                       const SeriesProjection& projection) {
    ODH_ASSIGN_OR_RETURN(
        OdhStore::HistoricalListing listing,
        odh_.store()->ListHistorical(type_, id, false, true, false, -1,
                                     kMinTimestamp, kMaxTimestamp, nullptr,
                                     projection));
    return std::move(listing.irts);
  }

  OdhSystem odh_;
  int type_ = 0;
  const ValueBlobCodec codec_{CompressionSpec{}};
};

TEST_F(ProjectedFetchTest, ProjectionsDecodeLikeTheStoredBlob) {
  const SeriesBatch batch = NoisyBatch(3000, 1);
  std::string blob;
  ASSERT_TRUE(codec_.EncodeIrts(batch, &blob).ok());
  // The timestamps alone outgrow the head page.
  ASSERT_GT(blob.size(), 6 * storage::SimDisk::kDefaultPageSize);
  Put(1, batch, blob);
  for (const std::vector<int>& tags :
       {std::vector<int>{}, std::vector<int>{0}, std::vector<int>{2},
        std::vector<int>{3}, std::vector<int>{1, 2}}) {
    for (bool zone_map : {false, true}) {
      auto listed = List(1, SeriesProjection{tags, zone_map});
      ASSERT_TRUE(listed.ok()) << listed.status().ToString();
      ASSERT_EQ(listed->size(), 1u);
      const BlobRecord& rec = (*listed)[0];
      EXPECT_EQ(rec.zone_map, zone_map ? "zone" : "");
      EXPECT_EQ(rec.bytes_skipped > 0, !tags.empty());
      EXPECT_EQ(static_cast<int64_t>(rec.blob.size()) + rec.bytes_skipped <=
                    static_cast<int64_t>(blob.size()),
                true);
      SeriesBatch want, got;
      ASSERT_TRUE(
          codec_.DecodeIrts(Slice(blob), 1, kBegin, tags, kTags, &want).ok());
      ASSERT_TRUE(
          codec_.DecodeIrts(Slice(rec.blob), 1, kBegin, tags, kTags, &got)
              .ok());
      EXPECT_EQ(got.timestamps, want.timestamps);
      ASSERT_EQ(got.columns.size(), want.columns.size());
      for (size_t t = 0; t < want.columns.size(); ++t) {
        ASSERT_EQ(got.columns[t].size(), want.columns[t].size()) << t;
        for (size_t i = 0; i < want.columns[t].size(); ++i) {
          const double a = got.columns[t][i], b = want.columns[t][i];
          ASSERT_TRUE(a == b || (std::isnan(a) && std::isnan(b))) << t;
        }
      }
    }
  }
  // A slice chunk fetches the same projection.
  OdhStore::SliceCursor cursor;
  std::vector<BlobRecord> chunk;
  bool done = false;
  ASSERT_TRUE(odh_.store()
                  ->NextSliceChunk(type_, true, kMinTimestamp, kMaxTimestamp,
                                   &cursor, &chunk, &done, nullptr,
                                   SeriesProjection{{3}, false})
                  .ok());
  ASSERT_EQ(chunk.size(), 1u);
  auto listed = List(1, SeriesProjection{{3}, false});
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(chunk[0].blob, (*listed)[0].blob);
  EXPECT_TRUE(chunk[0].zone_map.empty());
}

TEST_F(ProjectedFetchTest, OnlyPagesAFetchReadsAreReportedCorrupt) {
  const SeriesBatch batch = NoisyBatch(400, 2);
  std::string blob;
  ASSERT_TRUE(codec_.EncodeIrts(batch, &blob).ok());
  Put(1, batch, blob);
  storage::BufferPool* pool = odh_.database()->pool();
  storage::SimDisk* disk = odh_.database()->disk();
  ASSERT_TRUE(pool->FlushAll().ok());
  // Where the last tag's section lies in the stored record.
  relational::Table* table =
      odh_.database()->GetTable("odh$t$irts").value();
  std::string record;
  EncodeSeriesRecord({1, batch.timestamps.front(), batch.timestamps.back(),
                      0, static_cast<int64_t>(batch.num_points()),
                      Slice(blob), Slice("zone")},
                     table->codec().header_bytes(), &record);
  SeriesRecord fields;
  BlobSpan span;
  ASSERT_TRUE(ParseSeriesHead(Slice(record), table->codec().header_bytes(),
                              record.size(), &fields, &span)
                  .ok());
  BlobDirectory dir;
  ASSERT_TRUE(ParseBlobDirectory(Slice(blob), blob.size(), true, &dir).value());
  size_t last = span.offset + dir.sections_offset;
  for (int t = 0; t + 1 < kTags; ++t) last += dir.sizes[t];
  // A chain's head page carries usable - 8 record bytes, each continuation
  // page usable - 4.
  const size_t usable = pool->usable_page_size();
  ASSERT_GE(last, usable - 8);
  auto listed = List(1, SeriesProjection{});
  ASSERT_TRUE(listed.ok());
  const storage::PageNo page = (*listed)[0].rid.page + static_cast<storage::PageNo>(
      1 + (last - (usable - 8)) / (usable - 4));
  // Flip a byte of that page on the disk: its CRC no longer matches.
  const storage::FileId file = disk->OpenFile("odh$t$irts.heap").value();
  std::vector<char> bytes(disk->page_size());
  ASSERT_TRUE(disk->ReadPage(file, page, bytes.data()).ok());
  bytes[100] = static_cast<char>(bytes[100] ^ 0x40);
  ASSERT_TRUE(disk->WritePage(file, page, bytes.data()).ok());
  pool->DropCleanPages();
  EXPECT_TRUE(List(1, SeriesProjection{{0}, false}).ok());
  auto bad = List(1, SeriesProjection{{kTags - 1}, false});
  EXPECT_TRUE(bad.status().IsDataLoss()) << bad.status().ToString();
  EXPECT_TRUE(List(1, SeriesProjection{}).status().IsDataLoss());
}

TEST(ProjectionCorruptionTest, HeadParseSurvivesTruncationAndBitFlips) {
  std::string blob(9000, 'x');
  std::string record;
  EncodeSeriesRecord({-7, 123456789, 987654321, 0, 4242, Slice(blob),
                      Slice("zone map")},
                     16, &record);
  Random rng(3);
  int parsed = 0;
  for (int m = 0; m < 2000; ++m) {
    std::string head = record.substr(0, 4088);
    if (m > 0) {
      const int flips = 1 + static_cast<int>(rng.Uniform(3));
      for (int f = 0; f < flips; ++f) {
        const size_t bit = rng.Uniform(64 * 8);
        head[bit / 8] = static_cast<char>(head[bit / 8] ^ (1 << (bit % 8)));
      }
      if (rng.OneIn(3)) head.resize(rng.Uniform(80));
    }
    for (size_t record_size :
         {record.size(), head.size() + 1, record.size() * 2, head.size()}) {
      SeriesRecord rec;
      BlobSpan span;
      if (ParseSeriesHead(Slice(head), 16, record_size, &rec, &span).ok()) {
        ++parsed;
        EXPECT_LT(span.offset + span.size,
                  record_size + (head.size() >= record_size));
      }
    }
  }
  EXPECT_GT(parsed, 0);
}

TEST_F(ProjectedFetchTest, MutatedBlobsFetchAndDecodeToAStatus) {
  const SeriesBatch batch = NoisyBatch(1500, 4);
  std::string blob;
  ASSERT_TRUE(codec_.EncodeIrts(batch, &blob).ok());
  BlobDirectory dir;
  ASSERT_TRUE(ParseBlobDirectory(Slice(blob), blob.size(), true, &dir).value());
  Random rng(11);
  constexpr int kMutants = 300;
  for (SourceId id = 1; id <= kMutants; ++id) {
    std::string mutant = blob;
    // Most mutations land in the header and directory, where the fetch
    // parses; the rest anywhere.
    const size_t span = rng.OneIn(4) ? mutant.size() : dir.sections_offset;
    const int flips = 1 + static_cast<int>(rng.Uniform(3));
    for (int f = 0; f < flips; ++f) {
      const size_t bit = rng.Uniform(span * 8);
      mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
    }
    if (rng.OneIn(4)) {
      mutant[rng.Uniform(span)] = static_cast<char>(0xff);
    }
    if (rng.OneIn(5)) mutant.resize(rng.Uniform(mutant.size()));
    if (mutant.empty()) mutant = "?";
    Put(id, batch, mutant);
  }
  int fetched = 0, decoded = 0;
  for (SourceId id = 1; id <= kMutants; ++id) {
    const std::vector<int> tags = {static_cast<int>(rng.Uniform(kTags))};
    auto listed = List(id, SeriesProjection{tags, rng.OneIn(2)});
    if (!listed.ok()) continue;
    ++fetched;
    ASSERT_EQ(listed->size(), 1u);
    const BlobRecord& rec = (*listed)[0];
    const Timestamp hi =
        kBegin + static_cast<Timestamp>(rng.Uniform(60'000'000));
    SeriesBatch got;
    if (codec_.DecodeIrts(Slice(rec.blob), id, kBegin, tags, kTags, &got, hi)
            .ok()) {
      ++decoded;
      EXPECT_EQ(got.columns[tags[0]].size(), got.timestamps.size());
    }
  }
  EXPECT_GT(fetched, 0);
  EXPECT_GT(decoded, 0);
}

}  // namespace
}  // namespace odh::core
