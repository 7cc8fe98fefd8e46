#ifndef ODH_CORE_BITS_H_
#define ODH_CORE_BITS_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace odh::core {

namespace bits_internal {

/// Converts between host order and big-endian (its own inverse).
inline uint64_t ToBigEndian64(uint64_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return v;
#else
  return __builtin_bswap64(v);
#endif
}

}  // namespace bits_internal

/// Appends bits (MSB-first within the stream) to a byte buffer. Used by the
/// quantization and XOR codecs. Word-level: bits collect in a 64-bit
/// accumulator that is appended eight bytes at a time, so a Write costs a
/// shift and an or rather than a loop over its bits. The byte stream is the
/// same one a bit-at-a-time writer produces.
class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  /// Writes the low `nbits` bits of `value` (0 <= nbits <= 64); bits above
  /// `nbits` are ignored.
  void Write(uint64_t value, int nbits) {
    if (nbits == 0) return;
    if (nbits < 64) value &= (uint64_t{1} << nbits) - 1;
    const int room = 64 - fill_;
    if (nbits < room) {
      acc_ = (acc_ << nbits) | value;
      fill_ += nbits;
      return;
    }
    // Top up the accumulator to a full word, drain it, keep the rest.
    const int rest = nbits - room;  // 0..63
    acc_ = room == 64 ? value : (acc_ << room) | (value >> rest);
    const uint64_t word = bits_internal::ToBigEndian64(acc_);
    char bytes[8];
    std::memcpy(bytes, &word, 8);
    out_->append(bytes, 8);
    acc_ = rest == 0 ? 0 : value & ((uint64_t{1} << rest) - 1);
    fill_ = rest;
  }

  void WriteBit(bool bit) { Write(bit ? 1 : 0, 1); }

  /// Appends the buffered bits, padding the final partial byte with zeros.
  void Finish() {
    while (fill_ >= 8) {
      fill_ -= 8;
      out_->push_back(static_cast<char>(acc_ >> fill_));
    }
    if (fill_ > 0) out_->push_back(static_cast<char>(acc_ << (8 - fill_)));
    acc_ = 0;
    fill_ = 0;
  }

 private:
  std::string* out_;
  uint64_t acc_ = 0;  // The low `fill_` bits are pending, oldest highest.
  int fill_ = 0;      // 0..63
};

/// Reads bits written by BitWriter. Each Read is one unaligned big-endian
/// 8-byte load and a shift (plus one byte when the field straddles the
/// word); only the last eight bytes of the input take a byte-wise path.
class BitReader {
 public:
  explicit BitReader(Slice input)
      : data_(reinterpret_cast<const uint8_t*>(input.data())),
        size_(input.size()) {}

  /// Reads `nbits` bits (0 <= nbits <= 64); returns false past the end.
  bool Read(int nbits, uint64_t* value) {
    if (nbits == 0) {
      *value = 0;
      return true;
    }
    if (static_cast<uint64_t>(nbits) > size_ * 8 - pos_) return false;
    const size_t byte = pos_ >> 3;
    const int shift = static_cast<int>(pos_ & 7);
    uint64_t word = LoadWord(byte) << shift;
    if (nbits + shift > 64) {
      // The field reaches into a ninth byte; it exists because the whole
      // field lies inside the input.
      word |= data_[byte + 8] >> (8 - shift);
    }
    *value = word >> (64 - nbits);
    pos_ += static_cast<uint64_t>(nbits);
    return true;
  }

  bool ReadBit(bool* bit) {
    if (pos_ >= size_ * 8) return false;
    *bit = (data_[pos_ >> 3] >> (7 - (pos_ & 7))) & 1;
    ++pos_;
    return true;
  }

 private:
  /// The eight bytes from `byte` as a big-endian word, zero-filled past the
  /// end of the input.
  uint64_t LoadWord(size_t byte) const {
    uint64_t word = 0;
    if (byte + 8 <= size_) {
      std::memcpy(&word, data_ + byte, 8);
      return bits_internal::ToBigEndian64(word);
    }
    for (size_t i = 0; i < 8; ++i) {
      word = (word << 8) | (byte + i < size_ ? data_[byte + i] : 0);
    }
    return word;
  }

  const uint8_t* data_;
  size_t size_;
  uint64_t pos_ = 0;
};

/// Number of bits needed to represent `v` (at least 1).
inline int BitWidth(uint64_t v) { return 64 - __builtin_clzll(v | 1); }

}  // namespace odh::core

#endif  // ODH_CORE_BITS_H_
