#include "sketch/minwise.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/buffer.hpp"
#include "util/hash.hpp"

namespace icd::sketch {

MinwiseSketch::MinwiseSketch(std::uint64_t universe_size,
                             std::size_t permutations, std::uint64_t seed)
    : universe_size_(universe_size), seed_(seed),
      permutations_(
          util::shared_permutation_family(universe_size, permutations, seed)),
      minima_(permutations, kEmpty) {
  if (permutations == 0) {
    throw std::invalid_argument("MinwiseSketch: need at least 1 permutation");
  }
}

void MinwiseSketch::update(std::uint64_t key) {
  const auto& family = *permutations_;
  for (std::size_t j = 0; j < family.size(); ++j) {
    minima_[j] = std::min(minima_[j], family[j](key));
  }
}

void MinwiseSketch::update_all(const std::vector<std::uint64_t>& keys) {
  for (const std::uint64_t key : keys) update(key);
}

void MinwiseSketch::check_compatible(const MinwiseSketch& other) const {
  if (universe_size_ != other.universe_size_ || seed_ != other.seed_ ||
      minima_.size() != other.minima_.size()) {
    throw std::invalid_argument("MinwiseSketch: incompatible sketches");
  }
}

double MinwiseSketch::resemblance(const MinwiseSketch& a,
                                  const MinwiseSketch& b) {
  a.check_compatible(b);
  std::size_t live = 0;
  std::size_t equal = 0;
  for (std::size_t j = 0; j < a.minima_.size(); ++j) {
    const bool a_empty = a.minima_[j] == kEmpty;
    const bool b_empty = b.minima_[j] == kEmpty;
    if (a_empty && b_empty) continue;
    ++live;
    if (a.minima_[j] == b.minima_[j]) ++equal;
  }
  if (live == 0) return 1.0;  // both sets empty
  return static_cast<double>(equal) / static_cast<double>(live);
}

MinwiseSketch MinwiseSketch::combine_union(const MinwiseSketch& a,
                                           const MinwiseSketch& b) {
  a.check_compatible(b);
  MinwiseSketch result = a;
  for (std::size_t j = 0; j < result.minima_.size(); ++j) {
    result.minima_[j] = std::min(result.minima_[j], b.minima_[j]);
  }
  return result;
}

std::vector<std::uint8_t> MinwiseSketch::serialize() const {
  util::ByteWriter writer;
  serialize_into(writer);
  return writer.take();
}

std::size_t MinwiseSketch::serialized_size() const {
  return 16 + util::varint_size(minima_.size()) + 8 * minima_.size();
}

void MinwiseSketch::serialize_into(util::ByteWriter& out) const {
  out.u64(universe_size_);
  out.u64(seed_);
  out.varint(minima_.size());
  out.u64s(minima_);
}

MinwiseSketch MinwiseSketch::deserialize(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader reader(bytes);
  const std::uint64_t universe = reader.u64();
  const std::uint64_t seed = reader.u64();
  const std::size_t count = reader.varint();
  // Bound by what the payload can hold (8 bytes per minimum): a corrupt
  // count must fail like a truncation, not attempt a giant allocation.
  if (count > reader.remaining() / 8) {
    throw std::out_of_range("MinwiseSketch: count exceeds payload");
  }
  MinwiseSketch sketch(universe, count, seed);
  reader.u64s(sketch.minima_);
  return sketch;
}

double containment_from_resemblance(double resemblance, std::size_t size_a,
                                    std::size_t size_b) {
  if (size_b == 0) return 0.0;
  const double r = std::clamp(resemblance, 0.0, 1.0);
  const double intersection =
      r / (1.0 + r) * (static_cast<double>(size_a) + size_b);
  return std::clamp(intersection / static_cast<double>(size_b), 0.0, 1.0);
}

double resemblance_from_containment(double containment, std::size_t size_a,
                                    std::size_t size_b) {
  const double intersection = containment * static_cast<double>(size_b);
  const double uni = static_cast<double>(size_a) + size_b - intersection;
  if (uni <= 0.0) return 1.0;
  return std::clamp(intersection / uni, 0.0, 1.0);
}

}  // namespace icd::sketch
