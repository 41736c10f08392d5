// Shared primitive codecs for the TSDB storage formats: zigzag, LEB128
// varints (vector append + bounds-checked read), MSB-first bit streams,
// and little-endian fixed-width loads/stores. Used by the sealed-block
// codec (block.cpp), the segment file format (blockfile.cpp), and the
// write-ahead log (wal.cpp) so all three agree byte-for-byte on the
// primitives the golden-file tests pin.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace tacc::tsdb::coding {

constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Unchecked varint read for writer-produced (checksum-validated) streams.
inline std::uint64_t get_varint(const std::uint8_t* data,
                                std::size_t& pos) noexcept {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const std::uint8_t b = data[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

/// Bounds-checked varint read for untrusted bytes (segment/WAL parsing
/// before checksums are verified). Returns false on truncation or a
/// varint longer than 10 bytes, leaving `pos` unspecified.
inline bool get_varint_checked(const std::uint8_t* data, std::size_t size,
                               std::size_t& pos, std::uint64_t& out) noexcept {
  std::uint64_t v = 0;
  int shift = 0;
  while (pos < size && shift < 64) {
    const std::uint8_t b = data[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

/// varint length, then the bytes.
inline void put_string(std::vector<std::uint8_t>& out, std::string_view s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline std::uint64_t double_bits(double d) noexcept {
  return std::bit_cast<std::uint64_t>(d);
}

inline double bits_double(std::uint64_t b) noexcept {
  return std::bit_cast<double>(b);
}

/// MSB-first bit appender over a byte vector. Bits collect in a 64-bit
/// word that reaches `out` eight bytes at a time; finish() appends the
/// last partial word, zero-padded to a byte boundary.
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint8_t>& out) noexcept : out_(out) {}

  void bit(bool b) { bits(b ? 1 : 0, 1); }

  /// Appends the low `n` bits of `v`, most significant first. n in [0, 64].
  void bits(std::uint64_t v, int n) {
    if (n == 0) return;
    if (n < 64) v &= (std::uint64_t{1} << n) - 1;
    const int room = 64 - used_;
    if (n < room) {
      acc_ |= v << (room - n);
      used_ += n;
      return;
    }
    used_ = n - room;  // bits of `v` left over once the word is full
    put_word(acc_ | (v >> used_));
    acc_ = used_ == 0 ? 0 : v << (64 - used_);
  }

  /// Appends the pending bits; call once, after the last bits().
  void finish() {
    for (int i = 0; i < used_; i += 8) {
      out_.push_back(static_cast<std::uint8_t>(acc_ >> (56 - i)));
    }
    acc_ = 0;
    used_ = 0;
  }

 private:
  void put_word(std::uint64_t w) {
    if constexpr (std::endian::native == std::endian::little) {
      w = __builtin_bswap64(w);
    }
    const std::size_t at = out_.size();
    out_.resize(at + 8);
    std::memcpy(out_.data() + at, &w, 8);
  }

  std::vector<std::uint8_t>& out_;
  std::uint64_t acc_ = 0;  // pending bits, MSB-aligned
  int used_ = 0;           // pending bit count, < 64
};

/// Reads `n` bits (n in [0, 64]) starting at absolute bit offset `pos`
/// (MSB-first) of a `size`-byte stream, advancing `pos`. Loads at most the
/// bytes the stream holds: bits past its end read as zero.
inline std::uint64_t read_bits(const std::uint8_t* data, std::size_t size,
                               std::size_t& pos, int n) noexcept {
  if (n == 0) return 0;
  const std::size_t byte = pos >> 3;
  const int skip = static_cast<int>(pos & 7);
  pos += static_cast<std::size_t>(n);
  std::uint64_t w = 0;
  if (byte + 8 <= size) {
    std::memcpy(&w, data + byte, 8);
    if constexpr (std::endian::native == std::endian::little) {
      w = __builtin_bswap64(w);
    }
  } else {
    for (std::size_t i = byte; i < size; ++i) {
      w |= std::uint64_t{data[i]} << (56 - 8 * (i - byte));
    }
  }
  w <<= skip;
  if (skip + n > 64 && byte + 8 < size) w |= data[byte + 8] >> (8 - skip);
  return w >> (64 - n);
}

}  // namespace tacc::tsdb::coding
