#include "storage/checksum.h"

#include <cstring>

namespace odh::storage {
namespace {

constexpr uint32_t kCrc32cPoly = 0x82F63B78;  // Reflected 0x1EDC6F41.

struct Crc32cTables {
  uint32_t t[8][256];

  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? kCrc32cPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int slice = 1; slice < 8; ++slice) {
        t[slice][i] =
            (t[slice - 1][i] >> 8) ^ t[0][t[slice - 1][i] & 0xff];
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

#if defined(__x86_64__)
/// The SSE4.2 `crc32` instruction computes exactly CRC-32C. Eight bytes per
/// instruction; the byte tail (and any start short of eight bytes) one at a
/// time.
__attribute__((target("sse4.2"))) uint32_t ExtendCrc32cSse42(
    uint32_t crc, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t c = ~crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = __builtin_ia32_crc32di(c, word);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n-- > 0) c32 = __builtin_ia32_crc32qi(c32, *p++);
  return ~c32;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn ResolveExtend() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return ExtendCrc32cSse42;
#endif
  return ExtendCrc32cPortable;
}

}  // namespace

uint32_t ExtendCrc32cPortable(uint32_t crc, const void* data, size_t n) {
  const Crc32cTables& tab = Tables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Process 8 bytes per iteration (slicing-by-8).
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = tab.t[7][lo & 0xff] ^ tab.t[6][(lo >> 8) & 0xff] ^
          tab.t[5][(lo >> 16) & 0xff] ^ tab.t[4][lo >> 24] ^
          tab.t[3][hi & 0xff] ^ tab.t[2][(hi >> 8) & 0xff] ^
          tab.t[1][(hi >> 16) & 0xff] ^ tab.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tab.t[0][(crc ^ *p++) & 0xff];
  }
  return ~crc;
}

uint32_t ExtendCrc32c(uint32_t crc, const void* data, size_t n) {
  static const ExtendFn extend = ResolveExtend();
  return extend(crc, data, n);
}

uint32_t Crc32c(const void* data, size_t n) {
  return ExtendCrc32c(0, data, n);
}

bool IsZeroFilled(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  // Word-at-a-time scan; pages are word-aligned allocations.
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    if (w != 0) return false;
  }
  for (; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

}  // namespace odh::storage
