#include "filter/bloom.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/buffer.hpp"

namespace icd::filter {

BloomFilter::BloomFilter(std::size_t bits, std::size_t hashes,
                         std::uint64_t seed)
    : hashes_(hashes), seed_(seed), family_(bits == 0 ? 1 : bits, seed),
      bits_(bits) {
  if (bits == 0) throw std::invalid_argument("BloomFilter: bits must be > 0");
  if (hashes == 0) {
    throw std::invalid_argument("BloomFilter: hashes must be > 0");
  }
}

BloomFilter BloomFilter::with_bits_per_element(std::size_t expected_elements,
                                               double bits_per_element,
                                               std::uint64_t seed) {
  if (expected_elements == 0 || bits_per_element <= 0) {
    throw std::invalid_argument(
        "BloomFilter::with_bits_per_element: need n > 0 and bits > 0");
  }
  const auto bits = static_cast<std::size_t>(
      std::ceil(bits_per_element * static_cast<double>(expected_elements)));
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(bits_per_element * 0.6931472)));
  return BloomFilter(std::max<std::size_t>(bits, 1), k, seed);
}

void BloomFilter::insert(std::uint64_t key) {
  for (std::size_t i = 0; i < hashes_; ++i) {
    bits_.set(family_.at(key, i));
  }
  ++inserted_;
}

bool BloomFilter::contains(std::uint64_t key) const {
  for (std::size_t i = 0; i < hashes_; ++i) {
    if (!bits_.get(family_.at(key, i))) return false;
  }
  return true;
}

void BloomFilter::insert_all(const std::vector<std::uint64_t>& keys) {
  for (const std::uint64_t key : keys) insert(key);
}

double BloomFilter::fill_ratio() const {
  return static_cast<double>(bits_.popcount()) /
         static_cast<double>(bits_.size());
}

double BloomFilter::theoretical_fp_rate(std::size_t n) const {
  return fp_rate(bits_.size(), n, hashes_);
}

void BloomFilter::check_compatible(const BloomFilter& other) const {
  if (bits_.size() != other.bits_.size() || hashes_ != other.hashes_ ||
      seed_ != other.seed_) {
    throw std::invalid_argument("BloomFilter: incompatible geometry/seed");
  }
}

BloomFilter& BloomFilter::merge_union(const BloomFilter& other) {
  check_compatible(other);
  bits_ |= other.bits_;
  inserted_ += other.inserted_;
  return *this;
}

BloomFilter& BloomFilter::merge_intersect(const BloomFilter& other) {
  check_compatible(other);
  bits_ &= other.bits_;
  inserted_ = std::min(inserted_, other.inserted_);
  return *this;
}

std::vector<std::uint8_t> BloomFilter::serialize() const {
  util::ByteWriter writer;
  serialize_into(writer);
  return writer.take();
}

std::size_t BloomFilter::serialized_size() const {
  return util::varint_size(bits_.size()) + util::varint_size(hashes_) + 8 +
         util::varint_size(inserted_) + bits_.words().size() * 8;
}

void BloomFilter::serialize_into(util::ByteWriter& out) const {
  out.varint(bits_.size());
  out.varint(hashes_);
  out.u64(seed_);
  out.varint(inserted_);
  // Byte-identical to raw(bits_.to_bytes()): u64s and to_bytes both emit
  // each word little-endian.
  out.u64s(bits_.words());
}

BloomFilter BloomFilter::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader reader(bytes);
  const std::size_t bits = reader.varint();
  const std::size_t hashes = reader.varint();
  const std::uint64_t seed = reader.u64();
  const std::size_t inserted = reader.varint();
  // Bound by what the payload can hold: a corrupt bit count must fail
  // like a truncation, not attempt a giant allocation (and bits near
  // 2^64 must not overflow the word computation below).
  if (bits > reader.remaining() * 8) {
    throw std::out_of_range("BloomFilter: bit count exceeds payload");
  }
  // No sane filter probes more positions than it has bits, and real
  // configurations use a handful; a corrupt hash count must not turn
  // every future membership query into an unbounded loop.
  if (hashes > std::min<std::size_t>(bits, 256)) {
    throw std::out_of_range("BloomFilter: hash count exceeds geometry");
  }
  BloomFilter filter(bits, hashes, seed);
  const std::size_t words = (bits + 63) / 64;
  filter.bits_ = util::BitVector::from_bytes(reader.view(words * 8), bits);
  filter.inserted_ = inserted;
  return filter;
}

}  // namespace icd::filter
