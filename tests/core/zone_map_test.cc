#include "core/zone_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/odh.h"

namespace odh::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TagFilter Filter(int tag, double min, double max) {
  TagFilter f;
  f.tag = tag;
  f.min = min;
  f.max = max;
  return f;
}

TEST(ZoneMapTest, FromColumnsComputesRanges) {
  ZoneMap map = ZoneMap::FromColumns({{1.0, 5.0, 3.0}, {kNaN, kNaN, kNaN}});
  ASSERT_EQ(map.num_tags(), 2);
  EXPECT_TRUE(map.has_values(0));
  EXPECT_DOUBLE_EQ(map.min(0), 1.0);
  EXPECT_DOUBLE_EQ(map.max(0), 5.0);
  EXPECT_FALSE(map.has_values(1));
}

TEST(ZoneMapTest, FromRecordsMatchesFromColumns) {
  std::vector<OperationalRecord> records = {{1, 0, {2.0, kNaN}},
                                            {2, 1, {7.0, -1.0}}};
  ZoneMap map = ZoneMap::FromRecords(records, 2);
  EXPECT_DOUBLE_EQ(map.min(0), 2.0);
  EXPECT_DOUBLE_EQ(map.max(0), 7.0);
  EXPECT_DOUBLE_EQ(map.min(1), -1.0);
  EXPECT_DOUBLE_EQ(map.max(1), -1.0);
}

TEST(ZoneMapTest, EncodeDecodeRoundTrip) {
  ZoneMap map = ZoneMap::FromColumns({{1.5, 2.5}, {kNaN, kNaN}, {-3.0, 9.0}});
  auto decoded = ZoneMap::Decode(Slice(map.Encode()));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->num_tags(), 3);
  EXPECT_DOUBLE_EQ(decoded->min(0), 1.5);
  EXPECT_DOUBLE_EQ(decoded->max(2), 9.0);
  EXPECT_FALSE(decoded->has_values(1));
}

TEST(ZoneMapTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(ZoneMap::Decode(Slice("\xff\xff", 2)).ok());
}

TEST(ZoneMapTest, V2RoundTripCarriesAggregates) {
  ZoneMap map = ZoneMap::FromColumns({{1.0, 5.0, 3.0}, {2.0, kNaN, 4.0}});
  auto decoded = ZoneMap::Decode(Slice(map.Encode()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->has_aggregates());
  EXPECT_TRUE(decoded->exact());
  EXPECT_EQ(decoded->count(0), 3);
  EXPECT_DOUBLE_EQ(decoded->sum(0), 9.0);
  EXPECT_EQ(decoded->count(1), 2);  // NaN holes are not counted.
  EXPECT_DOUBLE_EQ(decoded->sum(1), 6.0);
}

TEST(ZoneMapTest, V1DecodeCompatibility) {
  // A v1 summary: varint32 tag count, then per tag a presence byte and
  // min/max doubles — no marker, no flags, no count/sum.
  std::string v1;
  PutVarint32(&v1, 2);
  v1.push_back(1);
  PutDouble(&v1, 10.0);
  PutDouble(&v1, 20.0);
  v1.push_back(0);
  auto decoded = ZoneMap::Decode(Slice(v1));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->num_tags(), 2);
  EXPECT_DOUBLE_EQ(decoded->min(0), 10.0);
  EXPECT_DOUBLE_EQ(decoded->max(0), 20.0);
  EXPECT_FALSE(decoded->has_values(1));
  // v1 carries no aggregates: pruning still works, pushdown must not.
  EXPECT_FALSE(decoded->has_aggregates());
  EXPECT_TRUE(decoded->MayMatch({Filter(0, 15, 25)}));
  EXPECT_FALSE(decoded->AllMatch({Filter(0, 0, 100)}, 1));
}

TEST(ZoneMapTest, WidenClearsExactButKeepsCounts) {
  ZoneMap map = ZoneMap::FromColumns({{10.0, 20.0}});
  EXPECT_TRUE(map.exact());
  map.Widen(0.5);
  EXPECT_FALSE(map.exact());
  // Counts survive widening (lossy codecs preserve which values are
  // missing), so count-only pushdown can still prove AllMatch.
  EXPECT_EQ(map.count(0), 2);
  EXPECT_TRUE(map.AllMatch({Filter(0, 0, 100)}, 2));
  // The widened range participates in the proof: [9.5, 20.5] now.
  EXPECT_FALSE(map.AllMatch({Filter(0, 10, 20)}, 2));
  auto decoded = ZoneMap::Decode(Slice(map.Encode()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->exact());  // The bit survives the wire.
  // A zero margin (lossless codec) must not clear exact.
  ZoneMap lossless = ZoneMap::FromColumns({{1.0}});
  lossless.Widen(0);
  EXPECT_TRUE(lossless.exact());
}

TEST(ZoneMapTest, AllMatchSemantics) {
  ZoneMap map = ZoneMap::FromColumns({{10.0, 20.0}, {1.0, kNaN}});
  // Full containment with full counts proves every row passes.
  EXPECT_TRUE(map.AllMatch({Filter(0, 10, 20)}, 2));
  EXPECT_TRUE(map.AllMatch({Filter(0, 0, 100)}, 2));
  // Partial overlap cannot prove.
  EXPECT_FALSE(map.AllMatch({Filter(0, 15, 100)}, 2));
  // A NaN hole on the filtered tag breaks the proof (NULL never matches).
  EXPECT_FALSE(map.AllMatch({Filter(1, 0, 100)}, 2));
  // Exclusive bounds: touching an exclusive endpoint disproves.
  TagFilter exclusive = Filter(0, 10, 20);
  exclusive.min_exclusive = true;
  EXPECT_FALSE(map.AllMatch({exclusive}, 2));
  exclusive.min_exclusive = false;
  exclusive.max_exclusive = true;
  EXPECT_FALSE(map.AllMatch({exclusive}, 2));
  // Unknown tags stay conservative; empty filter lists are vacuous.
  EXPECT_FALSE(map.AllMatch({Filter(9, 0, 1)}, 2));
  EXPECT_TRUE(map.AllMatch({}, 2));
}

TEST(ZoneMapTest, MayMatchSemantics) {
  ZoneMap map = ZoneMap::FromColumns({{10.0, 20.0}, {kNaN, kNaN}});
  // Overlapping filter matches.
  EXPECT_TRUE(map.MayMatch({Filter(0, 15, 100)}));
  // Disjoint above and below.
  EXPECT_FALSE(map.MayMatch({Filter(0, 21, 100)}));
  EXPECT_FALSE(map.MayMatch({Filter(0, -100, 9.9)}));
  // Boundary touch is a (conservative) match.
  EXPECT_TRUE(map.MayMatch({Filter(0, 20, 25)}));
  // Filter on an all-missing tag can never match (SQL NULL semantics).
  EXPECT_FALSE(map.MayMatch({Filter(1, 0, 1)}));
  // Filter on an out-of-range tag index is ignored.
  EXPECT_TRUE(map.MayMatch({Filter(9, 0, 1)}));
  // Conjunction: one failing filter prunes.
  EXPECT_FALSE(map.MayMatch({Filter(0, 15, 100), Filter(0, 30, 40)}));
  // No filters -> match.
  EXPECT_TRUE(map.MayMatch({}));
}

/// Golden encodings: a v2 map with aggregates over three tags (one all
/// NaN), the same map widened (inexact), and a v1 map (no marker, no
/// aggregates).
std::vector<std::string> GoldenMaps() {
  ZoneMap v2 = ZoneMap::FromColumns(
      {{1.0, 5.0, 3.0}, {2.0, kNaN, 4.0}, {kNaN, kNaN, kNaN}});
  ZoneMap widened = v2;
  widened.Widen(0.25);
  std::string v1;
  PutVarint32(&v1, 3);
  v1.push_back(1);
  PutDouble(&v1, 10.0);
  PutDouble(&v1, 20.0);
  v1.push_back(0);
  v1.push_back(1);
  PutDouble(&v1, -1.0);
  PutDouble(&v1, 1.0);
  return {v2.Encode(), widened.Encode(), v1};
}

/// Decodes `bytes`; a map that decodes is asked everything the read path
/// asks of one, and must survive a re-encode.
void DecodeAndQuery(Slice bytes) {
  auto map = ZoneMap::Decode(bytes);
  if (!map.ok()) {
    EXPECT_TRUE(map.status().IsCorruption()) << map.status().ToString();
    return;
  }
  EXPECT_LE(static_cast<size_t>(map->num_tags()), bytes.size());
  for (int t = 0; t < map->num_tags(); ++t) {
    if (map->has_values(t)) {
      (void)map->min(t);
      (void)map->max(t);
    }
    (void)map->count(t);
    (void)map->sum(t);
  }
  const std::vector<TagFilter> filters = {Filter(0, -1, 4), Filter(2, 0, 1)};
  (void)map->MayMatch(filters);
  (void)map->AllMatch(filters, 3);
  (void)map->has_aggregates();
  auto again = ZoneMap::Decode(Slice(map->Encode()));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->num_tags(), map->num_tags());
}

TEST(ZoneMapTest, TruncationsAndBitFlipsReturnStatusOrASafeMap) {
  Random rng(20);
  int mutants = 0;
  for (const std::string& golden : GoldenMaps()) {
    ASSERT_TRUE(ZoneMap::Decode(Slice(golden)).ok());
    // Every truncation.
    for (size_t len = 0; len < golden.size(); ++len) {
      DecodeAndQuery(Slice(golden.data(), len));
      ++mutants;
    }
    // Seeded bit flips, one to three per mutant, plus byte splats that
    // hit the marker, the flags and the count varint.
    for (int m = 0; m < 400; ++m) {
      std::string mutant = golden;
      const int flips = 1 + static_cast<int>(rng.Uniform(3));
      for (int f = 0; f < flips; ++f) {
        const size_t bit = rng.Uniform(mutant.size() * 8);
        mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
      }
      if (rng.OneIn(4)) {
        mutant[rng.Uniform(std::min<size_t>(mutant.size(), 8))] =
            static_cast<char>(0xff);
      }
      DecodeAndQuery(Slice(mutant));
      ++mutants;
    }
  }
  EXPECT_GT(mutants, 1200);
}

TEST(ZoneMapTest, CountPastTheBytesLeftIsCorruption) {
  // Every entry takes at least its flag byte, so a count larger than the
  // bytes that follow is corrupt — rejected before it sizes anything (a
  // claim of 2^28 entries would otherwise allocate gigabytes).
  std::string v1;
  PutVarint32(&v1, 1u << 28);
  v1.append("\x01\x00\x00", 3);
  EXPECT_TRUE(ZoneMap::Decode(Slice(v1)).status().IsCorruption());

  std::string v2 = ZoneMap::FromColumns({{1.0}}).Encode();
  v2.resize(3);  // Marker, version, flags.
  PutVarint32(&v2, 0xffffffffu);
  v2.push_back(0);
  EXPECT_TRUE(ZoneMap::Decode(Slice(v2)).status().IsCorruption());

  // Exactly one flag byte per entry is the smallest valid map.
  std::string absent;
  PutVarint32(&absent, 3);
  absent.append(3, '\0');
  auto decoded = ZoneMap::Decode(Slice(absent));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_tags(), 3);
  EXPECT_FALSE(decoded->has_values(2));
}

/// The summary a plain fold gives, encoded by hand as format v2: the
/// reference the builders must match byte for byte.
std::string ReferenceEncoding(
    const std::vector<std::vector<double>>& columns) {
  std::string out = {'\0', '\2', '\1'};  // Marker, version, exact.
  PutVarint32(&out, static_cast<uint32_t>(columns.size()));
  for (const std::vector<double>& column : columns) {
    bool present = false;
    double lo = 0, hi = 0, sum = 0;
    uint64_t count = 0;
    for (double v : column) {
      if (std::isnan(v)) continue;
      if (!present || v < lo) lo = v;
      if (!present || v > hi) hi = v;
      present = true;
      ++count;
      sum += v;
    }
    if (!present) {
      out.push_back('\0');
      continue;
    }
    out.push_back('\1');
    PutDouble(&out, lo);
    PutDouble(&out, hi);
    PutVarint64(&out, count);
    PutDouble(&out, sum);
  }
  return out;
}

/// One seeded column: NaN runs at either end (or all NaN), signed zeros,
/// infinities, and magnitudes far enough apart that a reassociated sum
/// rounds differently.
std::vector<double> SeededColumn(Random* rng, size_t n) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> column(n, kNaN);
  if (n == 0 || rng->OneIn(8)) return column;  // All NaN.
  const size_t lead = rng->OneIn(2) ? rng->Uniform(n) : 0;
  const size_t trail = rng->OneIn(2) ? rng->Uniform(n - lead + 1) : 0;
  for (size_t i = lead; i + trail < n; ++i) {
    switch (rng->Uniform(10)) {
      case 0: column[i] = 0.0; break;
      case 1: column[i] = -0.0; break;
      case 2: column[i] = rng->OneIn(8) ? (rng->OneIn(2) ? kInf : -kInf)
                                        : 1e16 * (rng->OneIn(2) ? 1 : -1);
              break;
      case 3: column[i] = kNaN; break;  // An interior hole.
      case 4: column[i] = 0.1 * static_cast<double>(rng->Uniform(10)); break;
      default:
        column[i] = std::ldexp(rng->UniformDouble(-1, 1),
                               static_cast<int>(rng->Uniform(80)) - 40);
    }
  }
  return column;
}

TEST(ZoneMapTest, BuildersMatchAPlainFoldByteForByte) {
  Random rng(22);
  int reassociation_sensitive = 0;
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE(round);
    const size_t num_tags = 1 + rng.Uniform(5);
    const size_t n = rng.Uniform(300);
    std::vector<std::vector<double>> columns;
    for (size_t t = 0; t < num_tags; ++t) {
      columns.push_back(SeededColumn(&rng, n));
      // Would summing the same values backwards change the bytes?
      std::vector<double> reversed(columns.back().rbegin(),
                                   columns.back().rend());
      if (ReferenceEncoding({reversed}) != ReferenceEncoding({columns.back()})) {
        ++reassociation_sensitive;
      }
    }
    std::vector<OperationalRecord> records(n);
    for (size_t i = 0; i < n; ++i) {
      records[i].id = static_cast<SourceId>(i);
      records[i].ts = static_cast<Timestamp>(i);
      for (size_t t = 0; t < num_tags; ++t) {
        records[i].tags.push_back(columns[t][i]);
      }
    }
    const std::string want = ReferenceEncoding(columns);
    EXPECT_EQ(ZoneMap::FromColumns(columns).Encode(), want);
    EXPECT_EQ(ZoneMap::FromRecords(records, static_cast<int>(num_tags))
                  .Encode(),
              want);
  }
  // The data must be able to tell a reassociated sum from the real one.
  EXPECT_GT(reassociation_sensitive, 100);
}

// End-to-end: tag-predicate queries skip non-matching blobs.
class ZoneMapSystemTest : public ::testing::Test {
 protected:
  ZoneMapSystemTest() {
    OdhOptions options;
    options.batch_size = 50;
    odh_ = std::make_unique<OdhSystem>(options);
    type_ = odh_->DefineSchemaType("m", {"temp", "load"}).value();
    ODH_CHECK_OK(odh_->RegisterSource(1, type_, 1000, true));
    // 10 blobs of 50 points each; temp ramps 0..499, so exactly one blob
    // covers temp in [200, 249].
    for (int i = 0; i < 500; ++i) {
      ODH_CHECK_OK(odh_->Ingest({1, i * 1000, {1.0 * i, 5.0}}));
    }
    ODH_CHECK_OK(odh_->FlushAll());
  }

  std::unique_ptr<OdhSystem> odh_;
  int type_;
};

TEST_F(ZoneMapSystemTest, SqlTagPredicatePrunesBlobs) {
  odh_->reader()->ResetStats();
  auto r = odh_->engine()->Execute(
      "SELECT COUNT(*) FROM m_v WHERE id = 1 AND temp BETWEEN 210 AND 220");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(11));
  const ReadStats& stats = odh_->reader()->stats();
  EXPECT_EQ(stats.blobs_decoded, 1);
  EXPECT_EQ(stats.blobs_pruned, 9);
}

TEST_F(ZoneMapSystemTest, UnfilteredAggregateAnsweredFromSummaries) {
  // With aggregate pushdown, an unconstrained COUNT is answered entirely
  // from the per-blob summaries: zero decodes, every blob skipped.
  odh_->reader()->ResetStats();
  auto r = odh_->engine()->Execute("SELECT COUNT(*) FROM m_v WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(500));
  EXPECT_EQ(odh_->reader()->stats().blobs_pruned, 0);
  EXPECT_EQ(odh_->reader()->stats().blobs_decoded, 0);
  EXPECT_EQ(odh_->reader()->stats().blobs_skipped_by_summary, 10);

  // The decode path (an id range the pushdown does not absorb, so the
  // engine folds the scanned rows) reads all ten blobs and agrees.
  odh_->reader()->ResetStats();
  auto scanned = odh_->engine()->Execute(
      "SELECT COUNT(*) FROM m_v WHERE id BETWEEN 1 AND 1");
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->rows[0][0], Datum::Int64(500));
  EXPECT_EQ(odh_->reader()->stats().blobs_decoded, 10);
  EXPECT_EQ(odh_->reader()->stats().blobs_skipped_by_summary, 0);
}

TEST_F(ZoneMapSystemTest, ImpossiblePredicatePrunesEverything) {
  odh_->reader()->ResetStats();
  auto r = odh_->engine()->Execute(
      "SELECT COUNT(*) FROM m_v WHERE id = 1 AND temp > 10000");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], Datum::Int64(0));
  EXPECT_EQ(odh_->reader()->stats().blobs_decoded, 0);
  EXPECT_EQ(odh_->reader()->stats().blobs_pruned, 10);
}

TEST_F(ZoneMapSystemTest, ResultsIdenticalWithZoneMapsDisabled) {
  OdhOptions options;
  options.batch_size = 50;
  options.enable_zone_maps = false;
  OdhSystem plain(options);
  int type = plain.DefineSchemaType("m", {"temp", "load"}).value();
  ODH_CHECK_OK(plain.RegisterSource(1, type, 1000, true));
  for (int i = 0; i < 500; ++i) {
    ODH_CHECK_OK(plain.Ingest({1, i * 1000, {1.0 * i, 5.0}}));
  }
  ODH_CHECK_OK(plain.FlushAll());

  const char* query =
      "SELECT COUNT(*), SUM(load) FROM m_v WHERE temp BETWEEN 100 AND 150";
  auto with = odh_->engine()->Execute(query);
  auto without = plain.engine()->Execute(query);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->rows[0][0], without->rows[0][0]);
  EXPECT_EQ(with->rows[0][1], without->rows[0][1]);
  EXPECT_EQ(plain.reader()->stats().blobs_pruned, 0);
}

TEST_F(ZoneMapSystemTest, LossyCompressionKeepsZoneMapsConservative) {
  // Zone maps are computed from the ORIGINAL values before lossy encoding;
  // decoded values deviate by <= e, so a widened filter must still find
  // every qualifying original value. Here we just verify agreement between
  // a zone-mapped query and a full scan under lossy compression.
  OdhOptions options;
  options.batch_size = 50;
  OdhSystem lossy(options);
  CompressionSpec spec;
  spec.max_error = 0.5;
  int type = lossy.DefineSchemaType("m", {"temp"}, spec).value();
  ODH_CHECK_OK(lossy.RegisterSource(1, type, 1000, true));
  for (int i = 0; i < 500; ++i) {
    ODH_CHECK_OK(lossy.Ingest({1, i * 1000, {1.0 * i}}));
  }
  ODH_CHECK_OK(lossy.FlushAll());
  auto filtered = lossy.engine()->Execute(
      "SELECT COUNT(*) FROM m_v WHERE temp > 100.25 AND temp < 110.25");
  auto all = lossy.engine()->Execute("SELECT temp FROM m_v");
  ASSERT_TRUE(filtered.ok());
  ASSERT_TRUE(all.ok());
  int64_t expected = 0;
  for (const Row& row : all->rows) {
    double v = row[0].double_value();
    if (v > 100.25 && v < 110.25) ++expected;
  }
  EXPECT_EQ(filtered->rows[0][0], Datum::Int64(expected));
}

}  // namespace
}  // namespace odh::core
