#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/random.hpp"

/// Linear permutations pi(x) = (a*x + b) mod p over a prime-sized universe.
///
/// Section 4 of the paper: "In practice, truly random permutations cannot be
/// used, as the storage requirements are impractical. Instead, we may use
/// simple permutations, such as pi(x) = ax + b (mod |U|) for randomly chosen
/// a and b, without dramatically affecting overall performance."
namespace icd::util {

class LinearPermutation {
 public:
  /// Constructs pi(x) = (a*x + b) mod modulus. `modulus` must be prime and
  /// `a` must satisfy 1 <= a < modulus; 0 <= b < modulus.
  LinearPermutation(std::uint64_t a, std::uint64_t b, std::uint64_t modulus);

  /// Draws a uniformly random member of the family over a universe of at
  /// least `universe_size` (the modulus is the smallest prime >= the size).
  static LinearPermutation random(std::uint64_t universe_size,
                                  Xoshiro256& rng);

  /// pi(x), division-free (Shoup's method with the precomputed
  /// floor(a * 2^64 / p)): r = a*x - q*p lands in [0, 2p) for every 64-bit
  /// x, so one conditional subtract reduces it. The historical formula
  /// added b in uint64 arithmetic, which wraps once p > 2^63 (the sketch
  /// universe's modulus); the wrapped sum is then < p, so the same single
  /// conditional subtract reproduces it bit for bit.
  std::uint64_t operator()(std::uint64_t x) const {
    using u128 = unsigned __int128;
    const auto q =
        static_cast<std::uint64_t>((static_cast<u128>(shoup_) * x) >> 64);
    u128 r = static_cast<u128>(a_) * x - static_cast<u128>(q) * modulus_;
    if (r >= modulus_) r -= modulus_;
    std::uint64_t y = static_cast<std::uint64_t>(r) + b_;  // may wrap
    if (y >= modulus_) y -= modulus_;
    return y;
  }

  /// Inverse permutation: pi^{-1}(y) = (y - b) * a^{-1} mod p.
  std::uint64_t inverse(std::uint64_t y) const;

  std::uint64_t a() const { return a_; }
  std::uint64_t b() const { return b_; }
  std::uint64_t modulus() const { return modulus_; }

 private:
  std::uint64_t a_;
  std::uint64_t b_;
  std::uint64_t modulus_;
  std::uint64_t a_inverse_;
  /// floor(a * 2^64 / p), the Shoup constant of operator().
  std::uint64_t shoup_;
};

/// A fixed, seed-derived family of linear permutations. Peers that agree on
/// (seed, count, universe size) derive identical permutations — this is how
/// the paper's requirement that "peers must agree on these permutations in
/// advance" is met without any communication.
std::vector<LinearPermutation> make_permutation_family(
    std::uint64_t universe_size, std::size_t count, std::uint64_t seed);

/// Process-wide cache over make_permutation_family, keyed by
/// (universe_size, count, seed). Families are immutable once drawn and the
/// key triple fully determines the draw, so every sketch over the same
/// universe can share one family. This matters on the handshake receive
/// path: MinwiseSketch::deserialize constructs a sketch per received
/// summary, and rebuilding the family there costs a next_prime search plus
/// `count` modular inversions per packet. Thread-safe; entries live for the
/// process (distinct key triples are few — one per universe geometry).
std::shared_ptr<const std::vector<LinearPermutation>>
shared_permutation_family(std::uint64_t universe_size, std::size_t count,
                          std::uint64_t seed);

}  // namespace icd::util
