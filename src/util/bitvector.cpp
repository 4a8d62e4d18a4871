#include "util/bitvector.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/buffer.hpp"

namespace icd::util {

std::size_t BitVector::popcount() const {
  std::size_t total = 0;
  for (const std::uint64_t word : words_) {
    total += static_cast<std::size_t>(std::popcount(word));
  }
  return total;
}

BitVector& BitVector::operator|=(const BitVector& other) {
  if (bits_ != other.bits_) {
    throw std::invalid_argument("BitVector |=: size mismatch");
  }
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

BitVector& BitVector::operator&=(const BitVector& other) {
  if (bits_ != other.bits_) {
    throw std::invalid_argument("BitVector &=: size mismatch");
  }
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

std::vector<std::uint8_t> BitVector::to_bytes() const {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(words_.size() * 8);
  for (const std::uint64_t word : words_) {
    for (int shift = 0; shift < 64; shift += 8) {
      bytes.push_back(static_cast<std::uint8_t>(word >> shift));
    }
  }
  return bytes;
}

BitVector BitVector::from_bytes(std::span<const std::uint8_t> bytes,
                                std::size_t bits) {
  BitVector result(bits);
  if (bytes.size() < result.words_.size() * 8) {
    throw std::invalid_argument("BitVector::from_bytes: truncated input");
  }
  ByteReader(bytes).u64s(result.words_);
  return result;
}

}  // namespace icd::util
