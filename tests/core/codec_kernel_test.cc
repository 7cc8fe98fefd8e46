// The codec kernels against fixed references:
//  - the word-level BitWriter/BitReader against a bit-serial reference kept
//    here (one bit per call, the original implementation), over seeded
//    write sequences of every width 0-64 and truncated inputs;
//  - EncodeRts/EncodeIrts/EncodeMg output against golden bytes, so any
//    change to blob bytes (raw, XOR, linear, quantized, NaN gaps) fails;
//  - seeded truncations and bit flips of encoded blobs, which must decode
//    to a Status (run under the ASan/UBSan build for the UB half).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/bits.h"
#include "core/compression.h"
#include "core/value_blob.h"

namespace odh::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// --- Bit-serial reference -------------------------------------------------

class SerialBitWriter {
 public:
  explicit SerialBitWriter(std::string* out) : out_(out) {}
  void Write(uint64_t value, int nbits) {
    for (int i = nbits - 1; i >= 0; --i) PushBit((value >> i) & 1);
  }
  void WriteBit(bool bit) { PushBit(bit ? 1 : 0); }
  void Finish() {
    if (fill_ > 0) {
      out_->push_back(static_cast<char>(current_ << (8 - fill_)));
      current_ = 0;
      fill_ = 0;
    }
  }

 private:
  void PushBit(int bit) {
    current_ = static_cast<uint8_t>((current_ << 1) | bit);
    if (++fill_ == 8) {
      out_->push_back(static_cast<char>(current_));
      current_ = 0;
      fill_ = 0;
    }
  }
  std::string* out_;
  uint8_t current_ = 0;
  int fill_ = 0;
};

class SerialBitReader {
 public:
  explicit SerialBitReader(Slice input) : input_(input) {}
  bool Read(int nbits, uint64_t* value) {
    uint64_t v = 0;
    for (int i = 0; i < nbits; ++i) {
      if (pos_ >= input_.size() * 8) return false;
      const size_t byte = pos_ / 8;
      const int offset = 7 - static_cast<int>(pos_ % 8);
      ++pos_;
      v = (v << 1) | ((static_cast<uint8_t>(input_[byte]) >> offset) & 1);
    }
    *value = v;
    return true;
  }

 private:
  Slice input_;
  size_t pos_ = 0;
};

uint64_t LowBits(uint64_t v, int nbits) {
  return nbits >= 64 ? v : (v & ((uint64_t{1} << nbits) - 1));
}

TEST(BitIoReferenceTest, WordLevelMatchesBitSerial) {
  Random rng(20240);
  for (int seq = 0; seq < 20000; ++seq) {
    const int ops = static_cast<int>(rng.Uniform(40));
    std::vector<std::pair<int, uint64_t>> writes;
    std::string fast, slow;
    BitWriter fw(&fast);
    SerialBitWriter sw(&slow);
    for (int i = 0; i < ops; ++i) {
      // Widths 0-64, values with junk above the width (Write must ignore
      // it), single bits through WriteBit.
      const int width = static_cast<int>(rng.Uniform(65));
      const uint64_t value = rng.Next();
      if (width == 1 && rng.OneIn(2)) {
        fw.WriteBit(value & 1);
        sw.WriteBit(value & 1);
      } else {
        fw.Write(value, width);
        sw.Write(value, width);
      }
      writes.emplace_back(width, value);
    }
    fw.Finish();
    sw.Finish();
    ASSERT_EQ(fast, slow) << "sequence " << seq;

    // Read back from the full buffer and from a truncated copy: both
    // readers must agree on every value and on where reads start failing.
    const size_t cut = fast.empty() ? 0 : rng.Uniform(fast.size() + 1);
    for (size_t len : {fast.size(), cut}) {
      BitReader fr(Slice(fast.data(), len));
      SerialBitReader sr(Slice(fast.data(), len));
      for (const auto& [width, value] : writes) {
        uint64_t a = 0xA5A5, b = 0x5A5A;
        const bool fa = fr.Read(width, &a);
        const bool sb = sr.Read(width, &b);
        ASSERT_EQ(fa, sb) << "sequence " << seq << " len " << len;
        if (!fa) break;
        ASSERT_EQ(a, b) << "sequence " << seq;
        if (len == fast.size()) {
          ASSERT_EQ(a, LowBits(value, width));
        }
      }
    }
  }
}

TEST(BitIoReferenceTest, ReadBitAndPastEndAtEveryLength) {
  std::string buf;
  BitWriter w(&buf);
  for (int i = 0; i < 50; ++i) w.Write(static_cast<uint64_t>(i * 37), 11);
  w.Finish();
  for (size_t len = 0; len <= buf.size(); ++len) {
    BitReader r(Slice(buf.data(), len));
    SerialBitReader s(Slice(buf.data(), len));
    for (size_t bit = 0; bit < len * 8 + 3; ++bit) {
      bool b = false;
      uint64_t ref = 0;
      const bool ok = r.ReadBit(&b);
      ASSERT_EQ(ok, s.Read(1, &ref)) << len << ":" << bit;
      if (!ok) break;
      ASSERT_EQ(b, ref != 0);
    }
  }
}

// --- Golden blobs -----------------------------------------------------------

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

CompressionSpec Spec(double max_error) {
  CompressionSpec spec;
  spec.max_error = max_error;
  return spec;
}

CompressionSpec Forced(ValueCodec codec, double max_error = 0) {
  CompressionSpec spec;
  spec.force = true;
  spec.forced_codec = codec;
  spec.max_error = max_error;
  return spec;
}

/// A regular batch whose tags are a smooth ramp, a seeded random walk and
/// a sparse tag with NaN gaps.
SeriesBatch GoldenSeries(size_t n, uint64_t seed, bool jitter) {
  Random rng(seed);
  SeriesBatch batch;
  batch.id = 42;
  batch.columns.resize(3);
  double walk = 20;
  for (size_t i = 0; i < n; ++i) {
    Timestamp ts = 1'000'000 + static_cast<Timestamp>(i) * 10'000;
    if (jitter) ts += static_cast<Timestamp>(rng.Uniform(3000));
    batch.timestamps.push_back(ts);
    batch.columns[0].push_back(100.0 + 0.25 * static_cast<double>(i));
    walk += rng.UniformDouble(-1, 1);
    batch.columns[1].push_back(walk);
    batch.columns[2].push_back(i % 3 == 1 ? kNaN
                                          : static_cast<double>(i % 5) * 1.5);
  }
  return batch;
}

std::vector<OperationalRecord> GoldenMg(uint64_t seed) {
  Random rng(seed);
  std::vector<OperationalRecord> records;
  for (int i = 0; i < 14; ++i) {
    OperationalRecord r;
    r.id = 500 + static_cast<SourceId>(rng.Uniform(6));
    r.ts = 2'000'000 + i * 250'000;
    r.tags = {rng.OneIn(4) ? kNaN : rng.UniformDouble(0, 50),
              static_cast<double>(i) * 0.5, rng.OneIn(2) ? kNaN : 7.0};
    records.push_back(r);
  }
  return records;
}

struct GoldenCase {
  const char* name;
  std::string (*encode)();
  const char* hex;
};

std::string EncodeRtsWith(const CompressionSpec& spec) {
  std::string out;
  const SeriesBatch batch = GoldenSeries(24, 3, /*jitter=*/false);
  EXPECT_TRUE(ValueBlobCodec(spec).EncodeRts(batch, 10'000, &out).ok());
  return out;
}

std::string EncodeIrtsWith(const CompressionSpec& spec) {
  std::string out;
  const SeriesBatch batch = GoldenSeries(24, 5, /*jitter=*/true);
  EXPECT_TRUE(ValueBlobCodec(spec).EncodeIrts(batch, &out).ok());
  return out;
}

std::string EncodeMgWith(const CompressionSpec& spec) {
  std::string out;
  const std::vector<OperationalRecord> records = GoldenMg(9);
  EXPECT_TRUE(ValueBlobCodec(spec).EncodeMg(records, 2'000'000, &out).ok());
  return out;
}

// Captured from the bit-serial codec; the word-level kernels must
// reproduce them byte for byte.
const GoldenCase kGolden[] = {
    {"rts_raw",
     [] { return EncodeRtsWith(Forced(ValueCodec::kRaw)); },
     "18904e03c401c401840100ffffff000000000000594000000000001059400000"
     "0000002059400000000000305940000000000040594000000000005059400000"
     "0000006059400000000000705940000000000080594000000000009059400000"
     "000000a059400000000000b059400000000000c059400000000000d059400000"
     "000000e059400000000000f059400000000000005a400000000000105a400000"
     "000000205a400000000000305a400000000000405a400000000000505a400000"
     "000000605a400000000000705a4000ffffffd9369e52e57734401ecabc41f261"
     "344093f6b4d1a3d4334095e4ac9a657e33409b523630423c3340be9447193427"
     "33406b1e6b3e6c643240a528277a9ea33240aaf4b64f430233404e8cb5b05549"
     "334037ae0046cf043340a0d2180b49213340e4c96185b2ce32408a345fea3e59"
     "33400cb215fcc5e3334074cc9885023234405423e329e48234400d0b64959d27"
     "34400891c7a99d2c3340043a1ac1e16232406a942a128d203240959a39215b1c"
     "3240bcd5878e764b31405a470a1cb2e13140006ddbb600000000000000000000"
     "00000000084000000000000012400000000000000000000000000000f83f0000"
     "0000000012400000000000001840000000000000f83f00000000000008400000"
     "0000000018400000000000000000000000000000084000000000000012400000"
     "000000000000000000000000f83f0000000000001240"},
    {"rts_xor",
     [] { return EncodeRtsWith(Spec(0)); },
     "18904e0337b9013701ffffff4059000000000000a606903d303442f4c0d207a6"
     "06807f4c0d207a606885e981a40f4c0ce17fa606903d303442f4c0d207a60401"
     "ffffff403477e5529e36d9a76585c4c8bf31e6e5ed5464020f23685d558c9630"
     "240e8db089eaa6ad83d3b36ec52e38c4b3f0a1ac1396456ad0bb1fc91130db3c"
     "fc343ba6b23b81f46c962dfe06f1cd1ba6cd7b5a913cd2b65864d187c979f77b"
     "fee39e46d19f7e5e31bcfbf5bd0baebec592a1a1cdbfe8e3bcc6bf3e85561cd5"
     "8f7de685f4af3790e50b3372e16007947340b3eea73e346ed58746d84d9a6615"
     "cde95be6b1989877fcec7572dafbe4f29a1755624946c973016ddbb600000000"
     "00000000825c00cb0f609b004c22bffc137ff59815824fff04afff2c0c12e00e"
     "0970032c3d826c01308afff04dffd4"},
    {"rts_linear",
     [] { return EncodeRtsWith(Forced(ValueCodec::kLinear, 0.3)); },
     "18904e031857960102ffffff1802000000000000005940170000000000705a40"
     "02ffffff180900d9369e52e577344007e547abab215e32400278b0d5eb765133"
     "400399e3da1cbfd8324004836b331c7292344004c4ab957c41f1314001959a39"
     "215b1c324001bcd5878e764b3140015a470a1cb2e13140026ddbb61010000000"
     "0000000000000100000000000008400100000000000012400100000000000000"
     "0001000000000000f83f01000000000000124001000000000000184001000000"
     "000000f83f010000000000000840010000000000001840010000000000000000"
     "0100000000000008400100000000000012400100000000000000000100000000"
     "0000f83f010000000000001240"},
    {"rts_quantized",
     [] { return EncodeRtsWith(Forced(ValueCodec::kQuantized, 0.05)); },
     "18904e0327272103ffffff00000000000059409a9999999999b93f0600314828"
     "d3d251765c7a18e6a2bb70cb5dfa03ffffffbcd5878e764b31409a9999999999"
     "b93f0681f6564d32cd4544523d569d81d4cb208006036ddbb600000000000000"
     "009a9999999999b93f0601eb403edf0f7bc01eb403ed"},
    {"irts_xor",
     [] { return EncodeIrtsWith(Spec(0)); },
     "1800cc8101f834dd25f207d80ee710e708e005a61b850393128b12b626bf17d2"
     "0fdd21d8118101a00dbf09de02e301e01a0337bb013701ffffff405900000000"
     "0000a606903d303442f4c0d207a606807f4c0d207a606885e981a40f4c0ce17f"
     "a606903d303442f4c0d207a60401ffffff4033ed5262d0d2e2a37654ee59aa3a"
     "7a17c79a08db19a2d0be9fe31e819c5e8dd00b00fb1550e85b5ed47e82b95d1b"
     "b60212872118cfbea0844d6afa66761c1f92bb309039d8e3d0b3dd8080b46d89"
     "1b91758b4e7df8809279adb9b3f0b5416fad9783cec73b4e94a760499d6e5ea8"
     "56dff333b0fc31ea2a5811d1ba6e3f44431f6cec7481b4319136ba17d0d592f1"
     "8344d4ae67579184cd685fd91cc61d745746db6e62100884e7e1dcb80e025575"
     "9f8782a6fcc0b3cc016ddbb60000000000000000825c00cb0f609b004c22bffc"
     "137ff59815824fff04afff2c0c12e00e0970032c3d826c01308afff04dffd4"},
    {"irts_selected_lossy",
     [] { return EncodeIrtsWith(Spec(0.2)); },
     "1800cc8101f834dd25f207d80ee710e708e005a61b850393128b12b626bf17d2"
     "0fdd21d8118101a00dbf09de02e301e01a03181e1f02ffffff18020000000000"
     "00005940170000000000705a4003ffffff8a541c03ef7331409a9999999999d9"
     "3f03d65d6231c4112c98eb036ddbb600000000000000009a9999999999d93f05"
     "0216022de443c085808b"},
    {"irts_quantized_fallback",
     [] { return EncodeIrtsWith(Forced(ValueCodec::kQuantized, 1e-9)); },
     "1800cc8101f834dd25f207d80ee710e708e005a61b850393128b12b626bf17d2"
     "0fdd21d8118101a00dbf09de02e301e01a0337bb013701ffffff405900000000"
     "0000a606903d303442f4c0d207a606807f4c0d207a606885e981a40f4c0ce17f"
     "a606903d303442f4c0d207a60401ffffff4033ed5262d0d2e2a37654ee59aa3a"
     "7a17c79a08db19a2d0be9fe31e819c5e8dd00b00fb1550e85b5ed47e82b95d1b"
     "b60212872118cfbea0844d6afa66761c1f92bb309039d8e3d0b3dd8080b46d89"
     "1b91758b4e7df8809279adb9b3f0b5416fad9783cec73b4e94a760499d6e5ea8"
     "56dff333b0fc31ea2a5811d1ba6e3f44431f6cec7481b4319136ba17d0d592f1"
     "8344d4ae67579184cd685fd91cc61d745746db6e62100884e7e1dcb80e025575"
     "9f8782a6fcc0b3cc016ddbb60000000000000000825c00cb0f609b004c22bffc"
     "137ff59815824fff04afff2c0c12e00e0970032c3d826c01308afff04dffd4"},
    {"mg_xor",
     [] { return EncodeMgWith(Spec(0)); },
     "0ef2070900020004000502080100050200a0c21e000000000000000000000000"
     "0353250c01cb3e40357bc599720959938f574a4c6c57e3276f89691680e93ab2"
     "b2e8199ece26cef2739df44254b472b999db2f3f8db69dad0ab3f807ee6a0c9c"
     "3099dbff00acf2f2b43c4960153f7276e32d3986ade9b601ff3f000000000000"
     "00008447fe5819806097fff340cc079a06585e7019a0f380cc0bce0201451440"
     "1c00000000000000"},
    {"mg_quantized",
     [] { return EncodeMgWith(Forced(ValueCodec::kQuantized, 0.5)); },
     "0ef2070900020004000502080100050200a0c21e000000000000000000000000"
     "031c1b1503cb3e148d39584e420640000000000000f03f064dd640be58c64a80"
     "03ff3f0000000000000000000000000000f03f04011223344556670345140000"
     "000000001c40000000000000f03f0100"},
    {"mg_linear",
     [] { return EncodeMgWith(Forced(ValueCodec::kLinear, 1)); },
     "0ef2070900020004000502080100050200a0c21e000000000000000000000000"
     "035f171702cb3e0a0a0059097299c57b3540017977b75f610f404001ac3eb0eb"
     "29443c4001108d39584e420640014cb463726fb8484001f967d58388dd434001"
     "d9cf6c9c681243400118966d62df21224001f5316f4e56a63440012ec5398dca"
     "30454002ff3f0e020000000000000000000d0000000000001a40024514050200"
     "0000000000001c40040000000000001c40"},
};

TEST(CodecGoldenTest, BlobBytesAreUnchanged) {
  for (const GoldenCase& c : kGolden) {
    const std::string hex = Hex(c.encode());
    EXPECT_EQ(hex, c.hex) << c.name;
    if (hex != c.hex) std::printf("\ngolden %s %s\n", c.name, hex.c_str());
  }
}

// --- Mutations --------------------------------------------------------------

/// Every decoder entry point over `blob`; the result only has to be a
/// Status (ok or not) without UB, and a success must be shape-consistent.
void DecodeAll(const ValueBlobCodec& codec, Slice blob, int kind) {
  SeriesBatch batch;
  std::vector<OperationalRecord> records;
  switch (kind) {
    case 0: {
      Status s = codec.DecodeRts(blob, 42, 1'000'000, 0, {}, 3, &batch);
      if (s.ok()) {
        for (const auto& col : batch.columns) {
          EXPECT_EQ(col.size(), batch.timestamps.size());
        }
      }
      (void)codec.DecodeRts(blob, 42, 1'000'000, 0, {1}, 3, &batch);
      break;
    }
    case 1: {
      Status s = codec.DecodeIrts(blob, 42, 1'000'000, {}, 3, &batch);
      if (s.ok()) {
        for (const auto& col : batch.columns) {
          EXPECT_EQ(col.size(), batch.timestamps.size());
        }
      }
      (void)codec.DecodeIrts(blob, 42, 1'000'000, {2}, 3, &batch);
      break;
    }
    default: {
      Status s = codec.DecodeMg(blob, 2'000'000, {}, 3, &records);
      if (s.ok()) {
        for (const auto& r : records) EXPECT_EQ(r.tags.size(), 3u);
      }
      (void)codec.DecodeMg(blob, 2'000'000, {0}, 3, &records);
      break;
    }
  }
}

TEST(CodecMutationTest, TruncationsAndBitFlipsReturnStatus) {
  const ValueBlobCodec codec{CompressionSpec{}};
  Random rng(77);
  int decoded = 0;
  for (const GoldenCase& c : kGolden) {
    const std::string blob = c.encode();
    const std::string name = c.name;
    const int kind = name.rfind("rts", 0) == 0    ? 0
                     : name.rfind("irts", 0) == 0 ? 1
                                                  : 2;
    // Every truncation.
    for (size_t len = 0; len < blob.size(); ++len) {
      DecodeAll(codec, Slice(blob.data(), len), kind);
      ++decoded;
    }
    // Seeded bit flips, one to three per mutant, plus byte splats that hit
    // the length and count varints.
    for (int m = 0; m < 300; ++m) {
      std::string mutant = blob;
      const int flips = 1 + static_cast<int>(rng.Uniform(3));
      for (int f = 0; f < flips; ++f) {
        const size_t bit = rng.Uniform(mutant.size() * 8);
        mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
      }
      if (rng.OneIn(4)) {
        mutant[rng.Uniform(std::min<size_t>(mutant.size(), 12))] =
            static_cast<char>(0xff);
      }
      DecodeAll(codec, Slice(mutant), kind);
      ++decoded;
    }
  }
  EXPECT_GT(decoded, 3000);
}

TEST(CodecMutationTest, ColumnMutantsReturnStatus) {
  Random rng(5);
  for (ValueCodec codec : {ValueCodec::kRaw, ValueCodec::kXor,
                           ValueCodec::kLinear, ValueCodec::kQuantized}) {
    std::vector<double> v;
    for (int i = 0; i < 40; ++i) {
      v.push_back(i % 7 == 3 ? kNaN : std::sin(i * 0.1) * 10);
    }
    std::string col;
    ASSERT_TRUE(EncodeColumn(v.data(), v.size(), Forced(codec, 0.01), &col)
                    .ok());
    for (int m = 0; m < 500; ++m) {
      std::string mutant = col;
      if (rng.OneIn(3)) {
        mutant.resize(rng.Uniform(mutant.size()));
      } else {
        const size_t bit = rng.Uniform(mutant.size() * 8);
        mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
      }
      std::vector<double> out;
      Status s = DecodeColumn(Slice(mutant), v.size(), &out);
      if (s.ok()) {
        EXPECT_EQ(out.size(), v.size());
      }
    }
  }
}

}  // namespace
}  // namespace odh::core
