#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

/// Endian-safe byte-buffer serialization.
///
/// Every control message in the library (sketches, Bloom filters, ART
/// summaries, symbol headers) serializes through these so that the exact
/// wire size can be measured against the paper's 1 KB-packet budgets. All
/// multi-byte integers are little-endian on the wire. The fixed-width ops
/// are inline: a 1 KB min-wise sketch is 128 of them per handshake.
namespace icd::util {

/// Encoded size of a LEB128 varint (1-10 bytes).
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

namespace detail {

/// Stores `v` little-endian at `out` (sizeof(T) bytes).
template <typename T>
inline void store_le(std::uint8_t* out, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

/// Loads a little-endian T from `in` (sizeof(T) bytes).
template <typename T>
inline T load_le(const std::uint8_t* in) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, in, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(in[i]) << (8 * i));
    }
  }
  return v;
}

}  // namespace detail

class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts `storage` as the output buffer, clearing its contents but
  /// keeping its capacity — the zero-allocation path: hand a recycled
  /// buffer (wire::BufferPool) to the writer and take() it back out.
  explicit ByteWriter(std::vector<std::uint8_t> storage)
      : bytes_(std::move(storage)) {
    bytes_.clear();
  }

  /// Makes room for `n` more bytes in at most one allocation: frame
  /// encoders reserve their exact size before the header. Growth stays
  /// geometric, so appending many frames to one buffer is still linear.
  void reserve_more(std::size_t n) {
    const std::size_t want = bytes_.size() + n;
    if (want > bytes_.capacity()) {
      bytes_.reserve(std::max(want, 2 * bytes_.capacity()));
    }
  }

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  /// Bulk little-endian words: byte-identical to u64() per word, one copy.
  void u64s(std::span<const std::uint64_t> words) {
    const std::size_t at = grow(words.size() * 8);
    if constexpr (std::endian::native == std::endian::little) {
      if (!words.empty()) {
        std::memcpy(bytes_.data() + at, words.data(), words.size() * 8);
      }
    } else {
      for (std::size_t i = 0; i < words.size(); ++i) {
        detail::store_le(bytes_.data() + at + 8 * i, words[i]);
      }
    }
  }
  /// LEB128 variable-length unsigned integer (1-10 bytes).
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }
  void raw(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  std::size_t size() const { return bytes_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  /// Appends `n` bytes and returns their offset.
  std::size_t grow(std::size_t n) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    return at;
  }
  template <typename T>
  void put(T v) {
    const std::size_t at = grow(sizeof(T));  // may reallocate: data() after
    detail::store_le(bytes_.data() + at, v);
  }

  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader; all methods throw std::out_of_range on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  /// Bulk little-endian words into `out`: the inverse of ByteWriter::u64s.
  void u64s(std::span<std::uint64_t> out) {
    const auto bytes = view(out.size() * 8);
    if constexpr (std::endian::native == std::endian::little) {
      if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    } else {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = detail::load_le<std::uint64_t>(bytes.data() + 8 * i);
      }
    }
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      need(1);
      const std::uint8_t byte = bytes_[pos_++];
      if (shift >= 64 || (shift == 63 && (byte & 0x7e))) {
        throw std::out_of_range("ByteReader: varint overflows 64 bits");
      }
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }
  std::vector<std::uint8_t> raw(std::size_t n) {
    const auto bytes = view(n);
    return {bytes.begin(), bytes.end()};
  }
  /// Bounds-checked non-owning view of the next `n` bytes; the span borrows
  /// the reader's underlying buffer and is invalidated with it.
  std::span<const std::uint8_t> view(std::size_t n) {
    need(n);
    const auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) {
      throw std::out_of_range("ByteReader: read past end of buffer");
    }
  }
  template <typename T>
  T get() {
    need(sizeof(T));
    const T v = detail::load_le<T>(bytes_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace icd::util
