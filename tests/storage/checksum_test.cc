#include "storage/checksum.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/random.h"

namespace odh::storage {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / the classic CRC32C check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // 32 bytes of zeros (iSCSI test vector).
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::string ffs(32, '\xff');
  EXPECT_EQ(Crc32c(ffs.data(), ffs.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t partial = ExtendCrc32c(0, data.data(), split);
    uint32_t rest =
        ExtendCrc32c(partial, data.data() + split, data.size() - split);
    EXPECT_EQ(rest, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, SensitiveToSingleBitFlips) {
  std::string data(4096, 'p');
  uint32_t base = Crc32c(data.data(), data.size());
  for (size_t pos : {size_t{0}, size_t{1}, size_t{2047}, size_t{4095}}) {
    std::string mutated = data;
    mutated[pos] ^= 0x01;
    EXPECT_NE(Crc32c(mutated.data(), mutated.size()), base) << pos;
  }
}

TEST(Crc32cTest, UnalignedStarts) {
  // The slicing-by-8 loop reads words; make sure odd offsets agree with a
  // byte-by-byte reference via the Extend identity.
  std::string data = "0123456789abcdefghijklmnopqrstuvwxyz";
  for (size_t off = 0; off < 8; ++off) {
    uint32_t direct = Crc32c(data.data() + off, data.size() - off);
    uint32_t extended = ExtendCrc32c(0, data.data() + off, data.size() - off);
    EXPECT_EQ(direct, extended);
  }
}

TEST(Crc32cTest, DispatchedKernelMatchesPortableOracle) {
  // Whatever kernel the CPU selected must agree with the slicing-by-8
  // reference on every length 0-9000, every start misalignment and every
  // chaining split.
  Random rng(32);
  std::string buf(9000 + 16, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t len = trial < 64 ? static_cast<size_t>(trial)
                                  : static_cast<size_t>(rng.Uniform(9001));
    const size_t off = rng.Uniform(16);
    const char* p = buf.data() + off;
    const uint32_t seed = trial % 3 == 0 ? 0 : static_cast<uint32_t>(rng.Next());
    const uint32_t want = ExtendCrc32cPortable(seed, p, len);
    ASSERT_EQ(ExtendCrc32c(seed, p, len), want) << len << "@" << off;
    const size_t split = len == 0 ? 0 : rng.Uniform(len + 1);
    const uint32_t head = ExtendCrc32c(seed, p, split);
    ASSERT_EQ(ExtendCrc32c(head, p + split, len - split), want)
        << len << "@" << off << " split " << split;
  }
  EXPECT_EQ(ExtendCrc32cPortable(0, "123456789", 9), 0xE3069283u);
}

TEST(IsZeroFilledTest, Basics) {
  std::string zeros(4096, '\0');
  EXPECT_TRUE(IsZeroFilled(zeros.data(), zeros.size()));
  EXPECT_TRUE(IsZeroFilled(zeros.data(), 0));
  for (size_t pos : {size_t{0}, size_t{5}, size_t{4095}}) {
    std::string mutated = zeros;
    mutated[pos] = 1;
    EXPECT_FALSE(IsZeroFilled(mutated.data(), mutated.size())) << pos;
  }
  // Odd lengths exercise the byte tail.
  EXPECT_TRUE(IsZeroFilled(zeros.data(), 13));
}

}  // namespace
}  // namespace odh::storage
