#ifndef ODH_STORAGE_CHECKSUM_H_
#define ODH_STORAGE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace odh::storage {

/// Bytes reserved at the end of every buffer-pool-managed page for the
/// CRC32C trailer. Clients of the pool must confine their data to
/// BufferPool::usable_page_size() bytes; the pool owns the trailer.
inline constexpr size_t kPageTrailerBytes = 4;

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected), the checksum used
/// by iSCSI, ext4 and most storage engines. Runs on the SSE4.2 `crc32`
/// instruction when the CPU has it (checked once, at the first call), and
/// on the slicing-by-8 table code otherwise.
uint32_t Crc32c(const void* data, size_t n);

/// Incremental form: extends `crc` (a previous Crc32c result) over more
/// bytes. Crc32c(data, n) == ExtendCrc32c(0, data, n).
uint32_t ExtendCrc32c(uint32_t crc, const void* data, size_t n);

/// The slicing-by-8 software kernel: the fallback on CPUs without SSE4.2
/// and the reference the instruction path is tested against.
uint32_t ExtendCrc32cPortable(uint32_t crc, const void* data, size_t n);

/// True when all `n` bytes are zero (a freshly allocated, never-written
/// page; such pages carry no checksum and are considered valid).
bool IsZeroFilled(const void* data, size_t n);

}  // namespace odh::storage

#endif  // ODH_STORAGE_CHECKSUM_H_
