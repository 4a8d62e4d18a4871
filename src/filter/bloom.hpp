#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bitvector.hpp"
#include "util/hash.hpp"

namespace icd::util {
class ByteWriter;
}

/// Bloom filters (Section 5.2 of the paper).
///
/// Peer A sends a Bloom filter of its working set S_A; peer B checks each of
/// its own symbols against the filter and sends only those that miss. False
/// positives make B *withhold* a useful symbol (harmless with encoded
/// content); the filter never causes a redundant transmission.
namespace icd::filter {

class BloomFilter {
 public:
  /// A filter of `bits` bits with `hashes` hash functions drawn from the
  /// family selected by `seed`. Both peers must use the same seed; the
  /// library fixes one by default so filters are interchangeable.
  BloomFilter(std::size_t bits, std::size_t hashes,
              std::uint64_t seed = kDefaultSeed);

  /// Convenience: dimensions the filter for `expected_elements` at
  /// `bits_per_element`, using the optimal hash count
  /// k = round(ln 2 * m / n).
  static BloomFilter with_bits_per_element(std::size_t expected_elements,
                                           double bits_per_element,
                                           std::uint64_t seed = kDefaultSeed);

  void insert(std::uint64_t key);

  /// True if `key` may be in the set (false positives possible); false
  /// guarantees absence.
  bool contains(std::uint64_t key) const;

  /// Inserts every key in `keys`.
  void insert_all(const std::vector<std::uint64_t>& keys);

  std::size_t bit_count() const { return bits_.size(); }
  std::size_t hash_count() const { return hashes_; }
  std::size_t inserted_count() const { return inserted_; }
  std::uint64_t seed() const { return seed_; }

  /// Heap bytes the bit array pins (the scale-audit surface).
  std::size_t memory_bytes() const { return (bits_.size() + 7) / 8; }

  /// Fraction of bits set; used to estimate the realized fp probability
  /// (1 - e^{-kn/m})^k without knowing n.
  double fill_ratio() const;

  /// Theoretical false positive probability for n insertions into this
  /// filter: (1 - e^{-kn/m})^k.
  double theoretical_fp_rate(std::size_t n) const;

  /// Same formula as a free function, as printed in the paper:
  /// f = (1 - e^{-kn/m})^k.
  static double fp_rate(std::size_t m, std::size_t n, std::size_t k) {
    return std::pow(1.0 - std::exp(-static_cast<double>(k) * n / m),
                    static_cast<double>(k));
  }

  /// Union of two filters with identical geometry and seed (bitwise OR).
  /// The result behaves exactly like a filter built from the union of the
  /// two key sets.
  BloomFilter& merge_union(const BloomFilter& other);

  /// Bitwise AND. Note: unlike union this only *approximates* the filter of
  /// the intersection (it may contain extra bits), but never loses elements
  /// of the intersection.
  BloomFilter& merge_intersect(const BloomFilter& other);

  /// Wire form: header (bits, hashes, seed, inserted) + bit array. Sized to
  /// be charged against 1 KB packets by the simulator. serialize_into
  /// appends the same bytes to an existing writer (e.g. over a pooled
  /// frame buffer) without a scratch vector; serialized_size is the exact
  /// byte count it will append.
  std::vector<std::uint8_t> serialize() const;
  std::size_t serialized_size() const;
  void serialize_into(util::ByteWriter& out) const;
  static BloomFilter deserialize(std::span<const std::uint8_t> bytes);

  static constexpr std::uint64_t kDefaultSeed = 0x1cdb10f11e500d5eULL;

 private:
  void check_compatible(const BloomFilter& other) const;

  std::size_t hashes_;
  std::uint64_t seed_;
  std::size_t inserted_ = 0;
  util::DoubleHashFamily family_;
  util::BitVector bits_;
};

}  // namespace icd::filter
