#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// Compact bit array backing the Bloom filters.
namespace icd::util {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  std::size_t size() const { return bits_; }
  bool empty() const { return bits_ == 0; }

  bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void clear(std::size_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void reset() { std::fill(words_.begin(), words_.end(), 0); }

  /// Number of set bits.
  std::size_t popcount() const;

  /// Bitwise OR with a vector of identical size (Bloom filter union).
  BitVector& operator|=(const BitVector& other);
  /// Bitwise AND with a vector of identical size (Bloom filter intersection).
  BitVector& operator&=(const BitVector& other);

  bool operator==(const BitVector& other) const = default;

  /// Raw 64-bit words, little-endian bit order within each word.
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Serialized size in bytes (8 per word; callers prepend their own
  /// headers).
  std::vector<std::uint8_t> to_bytes() const;
  static BitVector from_bytes(std::span<const std::uint8_t> bytes,
                              std::size_t bits);

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace icd::util
