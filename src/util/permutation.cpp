#include "util/permutation.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "util/prime.hpp"

namespace icd::util {

LinearPermutation::LinearPermutation(std::uint64_t a, std::uint64_t b,
                                     std::uint64_t modulus)
    : a_(a), b_(b), modulus_(modulus) {
  if (!is_prime(modulus)) {
    throw std::invalid_argument("LinearPermutation: modulus must be prime");
  }
  if (a == 0 || a >= modulus || b >= modulus) {
    throw std::invalid_argument(
        "LinearPermutation: require 1 <= a < p and 0 <= b < p");
  }
  a_inverse_ = inverse_mod(a_, modulus_);
  shoup_ = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a_) << 64) / modulus_);
}

LinearPermutation LinearPermutation::random(std::uint64_t universe_size,
                                            Xoshiro256& rng) {
  if (universe_size < 2) {
    throw std::invalid_argument("LinearPermutation: universe too small");
  }
  const std::uint64_t p = next_prime(universe_size);
  const std::uint64_t a = 1 + rng.next_below(p - 1);
  const std::uint64_t b = rng.next_below(p);
  return LinearPermutation(a, b, p);
}

std::uint64_t LinearPermutation::inverse(std::uint64_t y) const {
  const std::uint64_t shifted = (y + modulus_ - b_ % modulus_) % modulus_;
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(shifted) * a_inverse_ % modulus_);
}

std::vector<LinearPermutation> make_permutation_family(
    std::uint64_t universe_size, std::size_t count, std::uint64_t seed) {
  if (universe_size < 2) {
    throw std::invalid_argument("make_permutation_family: universe too small");
  }
  Xoshiro256 rng(seed);
  // Hoisted out of the loop: the modulus is shared by the whole family, and
  // next_prime near 2^63 costs ~10^4 modular multiplications per call.
  const std::uint64_t p = next_prime(universe_size);
  std::vector<LinearPermutation> family;
  family.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t a = 1 + rng.next_below(p - 1);
    const std::uint64_t b = rng.next_below(p);
    family.emplace_back(a, b, p);
  }
  return family;
}

std::shared_ptr<const std::vector<LinearPermutation>>
shared_permutation_family(std::uint64_t universe_size, std::size_t count,
                          std::uint64_t seed) {
  using Key = std::tuple<std::uint64_t, std::size_t, std::uint64_t>;
  static std::mutex mutex;
  static std::map<Key, std::shared_ptr<const std::vector<LinearPermutation>>>
      cache;
  const Key key{universe_size, count, seed};
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (const auto it = cache.find(key); it != cache.end()) return it->second;
  }
  // Draw outside the lock — next_prime near 2^63 is the expensive part and
  // the draw is deterministic, so a racing duplicate is identical and the
  // first insert simply wins.
  auto family = std::make_shared<const std::vector<LinearPermutation>>(
      make_permutation_family(universe_size, count, seed));
  std::lock_guard<std::mutex> lock(mutex);
  return cache.try_emplace(key, std::move(family)).first->second;
}

}  // namespace icd::util
