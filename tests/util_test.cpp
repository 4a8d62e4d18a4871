// Tests for the icd::util substrate: RNG, primality, hashing, permutations,
// bit vectors, serialization buffers, packetization.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "util/bitvector.hpp"
#include "util/buffer.hpp"
#include "util/hash.hpp"
#include "util/packet.hpp"
#include "util/permutation.hpp"
#include "util/prime.hpp"
#include "util/random.hpp"

namespace icd::util {
namespace {

TEST(SplitMix64, MatchesReferenceVector) {
  // Reference values for seed 0 from the published splitmix64 algorithm.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Xoshiro256, DeterministicForSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Xoshiro256, NextBelowRespectsBound) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Xoshiro256, NextBelowZeroThrows) {
  Xoshiro256 rng(7);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Xoshiro256, NextDoubleInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro256, NextBelowRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.next_below(kBuckets)]++;
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 500);
  }
}

TEST(Xoshiro256, JumpDecorrelates) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(SampleWithoutReplacement, ProducesDistinctValuesInRange) {
  Xoshiro256 rng(3);
  const auto sample = sample_without_replacement(100, 30, rng);
  ASSERT_EQ(sample.size(), 30u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto v : sample) EXPECT_LT(v, 100u);
}

TEST(SampleWithoutReplacement, FullRangeIsPermutation) {
  Xoshiro256 rng(4);
  const auto sample = sample_without_replacement(50, 50, rng);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(SampleWithoutReplacement, RejectsOversizedRequest) {
  Xoshiro256 rng(5);
  EXPECT_THROW(sample_without_replacement(10, 11, rng), std::invalid_argument);
}

TEST(SampleWithoutReplacement, UniformCoverage) {
  // Every element should be picked with probability k/n.
  Xoshiro256 rng(6);
  constexpr int kTrials = 20000;
  int hits[20] = {};
  for (int t = 0; t < kTrials; ++t) {
    for (const auto v : sample_without_replacement(20, 5, rng)) {
      hits[v]++;
    }
  }
  for (const int h : hits) {
    EXPECT_NEAR(h, kTrials / 4, kTrials / 40);
  }
}

TEST(Shuffle, PreservesElements) {
  Xoshiro256 rng(8);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Prime, SmallValues) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(5));
  EXPECT_FALSE(is_prime(1000));
  EXPECT_TRUE(is_prime(7919));
}

TEST(Prime, LargeKnownPrimes) {
  EXPECT_TRUE(is_prime((std::uint64_t{1} << 61) - 1));  // Mersenne M61
  EXPECT_TRUE(is_prime(0xFFFFFFFFFFFFFFC5ULL));         // largest 64-bit prime
  EXPECT_FALSE(is_prime((std::uint64_t{1} << 61)));
  EXPECT_FALSE(is_prime(0xFFFFFFFFFFFFFFC7ULL));
}

TEST(Prime, CarmichaelNumbersRejected) {
  EXPECT_FALSE(is_prime(561));
  EXPECT_FALSE(is_prime(1105));
  EXPECT_FALSE(is_prime(41041));
  EXPECT_FALSE(is_prime(825265));
}

TEST(Prime, NextPrime) {
  EXPECT_EQ(next_prime(0), 2u);
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(3), 3u);
  EXPECT_EQ(next_prime(4), 5u);
  EXPECT_EQ(next_prime(14), 17u);
  EXPECT_EQ(next_prime(7908), 7919u);
}

TEST(Prime, MulModMatchesSmallCases) {
  EXPECT_EQ(mul_mod(7, 8, 5), 1u);
  EXPECT_EQ(mul_mod(0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
                    0xFFFFFFFFFFFFFFC5ULL),
            mul_mod(58, 58, 0xFFFFFFFFFFFFFFC5ULL));
}

TEST(Prime, PowModKnownValues) {
  EXPECT_EQ(pow_mod(2, 10, 1000), 24u);
  EXPECT_EQ(pow_mod(3, 0, 7), 1u);
  EXPECT_EQ(pow_mod(10, 18, 1000000007ULL), 49u);  // 10^18 mod p
}

TEST(Prime, InverseMod) {
  const std::uint64_t p = 1000000007ULL;
  for (std::uint64_t a :
       {std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{123456789}, p - 1}) {
    EXPECT_EQ(mul_mod(a, inverse_mod(a, p), p), 1u);
  }
  EXPECT_THROW(inverse_mod(0, p), std::invalid_argument);
}

TEST(Hash, Mix64IsBijectiveOnSamples) {
  // Injectivity spot check: no collisions across a large sample.
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    seen.insert(mix64(i));
  }
  EXPECT_EQ(seen.size(), 100000u);
}

TEST(Hash, SeedChangesHash64) {
  int equal = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (hash64(i, 1) == hash64(i, 2)) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Hash, Fnv1aKnownVector) {
  const std::string s = "hello";
  const auto h = fnv1a(std::as_bytes(std::span(s.data(), s.size())));
  EXPECT_EQ(h, 0xa430d84680aabd0bULL);
}

TEST(DoubleHashFamily, CoversRange) {
  DoubleHashFamily family(100, 1);
  std::set<std::size_t> positions;
  for (std::uint64_t key = 0; key < 500; ++key) {
    for (std::size_t i = 0; i < 3; ++i) {
      const auto p = family.at(key, i);
      EXPECT_LT(p, 100u);
      positions.insert(p);
    }
  }
  EXPECT_EQ(positions.size(), 100u);  // all slots reachable
}

TEST(DoubleHashFamily, FillMatchesAt) {
  DoubleHashFamily family(997, 3);
  std::vector<std::size_t> out;
  family.fill(12345, 5, out);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(out[i], family.at(12345, i));
}

TEST(DoubleHashFamily, ZeroRangeThrows) {
  EXPECT_THROW(DoubleHashFamily(0, 1), std::invalid_argument);
}

TEST(TabulationHash, DeterministicAndSeedSensitive) {
  TabulationHash64 h1(1), h1b(1), h2(2);
  EXPECT_EQ(h1(12345), h1b(12345));
  EXPECT_NE(h1(12345), h2(12345));
}

TEST(LinearPermutation, IsBijectionOnFullDomain) {
  const std::uint64_t p = 101;
  LinearPermutation perm(13, 7, p);
  std::set<std::uint64_t> image;
  for (std::uint64_t x = 0; x < p; ++x) {
    const auto y = perm(x);
    EXPECT_LT(y, p);
    image.insert(y);
  }
  EXPECT_EQ(image.size(), p);
}

TEST(LinearPermutation, InverseRoundTrips) {
  Xoshiro256 rng(17);
  const auto perm = LinearPermutation::random(1 << 20, rng);
  for (std::uint64_t x = 0; x < 1000; ++x) {
    EXPECT_EQ(perm.inverse(perm(x)), x % perm.modulus());
  }
}

TEST(LinearPermutation, RejectsBadParameters) {
  EXPECT_THROW(LinearPermutation(1, 0, 100), std::invalid_argument);  // 100 not prime
  EXPECT_THROW(LinearPermutation(0, 0, 101), std::invalid_argument);  // a == 0
  EXPECT_THROW(LinearPermutation(101, 0, 101), std::invalid_argument);
}

TEST(LinearPermutation, DivisionFreeEvaluationMatchesModularFormula) {
  // The modular-reduction formula operator() replaced, including its
  // uint64 wrap of (a*x mod p) + b when p > 2^63.
  const auto reference = [](const LinearPermutation& perm, std::uint64_t x) {
    const std::uint64_t p = perm.modulus();
    const auto ax = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(perm.a()) * (x % p) % p);
    return static_cast<std::uint64_t>(ax + perm.b()) % p;
  };
  const std::uint64_t moduli[] = {
      2, 3, 101,
      4294967291ULL,              // largest prime below 2^32
      next_prime(std::uint64_t{1} << 32),
      next_prime(std::uint64_t{1} << 63),  // the sketch universe's modulus
      18446744073709551557ULL,    // largest prime below 2^64
  };
  Xoshiro256 rng(0x5eedf00dULL);
  for (const std::uint64_t p : moduli) {
    // Extreme and random multipliers and offsets.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> params = {
        {1, 0}, {1, p - 1}, {p - 1, 0}, {p - 1, p - 1}};
    for (int i = 0; i < 6; ++i) {
      params.emplace_back(1 + rng.next_below(p - 1), rng.next_below(p));
    }
    for (const auto& [a, b] : params) {
      const LinearPermutation perm(a, b, p);
      std::vector<std::uint64_t> xs = {0, 1, p - 1, p,
                                       ~std::uint64_t{0},
                                       ~std::uint64_t{0} - 1};
      if (p <= ~std::uint64_t{0} - 1) xs.push_back(p + 1);
      if (p <= ~std::uint64_t{0} / 2) xs.push_back(2 * p - 1);
      for (int i = 0; i < 2000; ++i) {
        xs.push_back(rng());                 // mostly >= p for small p
        xs.push_back(rng.next_below(p));     // inside the universe
      }
      for (const std::uint64_t x : xs) {
        ASSERT_EQ(perm(x), reference(perm, x))
            << "p=" << p << " a=" << a << " b=" << b << " x=" << x;
      }
    }
  }
}

TEST(LinearPermutation, FamilyIsDeterministicInSeed) {
  const auto f1 = make_permutation_family(1000, 8, 99);
  const auto f2 = make_permutation_family(1000, 8, 99);
  ASSERT_EQ(f1.size(), f2.size());
  for (std::size_t i = 0; i < f1.size(); ++i) {
    EXPECT_EQ(f1[i].a(), f2[i].a());
    EXPECT_EQ(f1[i].b(), f2[i].b());
  }
}

TEST(BitVector, SetGetClear) {
  BitVector bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_FALSE(bits.get(0));
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.get(0));
  EXPECT_TRUE(bits.get(64));
  EXPECT_TRUE(bits.get(129));
  EXPECT_EQ(bits.popcount(), 3u);
  bits.clear(64);
  EXPECT_FALSE(bits.get(64));
  EXPECT_EQ(bits.popcount(), 2u);
  bits.reset();
  EXPECT_EQ(bits.popcount(), 0u);
}

TEST(BitVector, UnionAndIntersection) {
  BitVector a(64), b(64);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  BitVector u = a;
  u |= b;
  EXPECT_TRUE(u.get(1));
  EXPECT_TRUE(u.get(2));
  EXPECT_TRUE(u.get(3));
  BitVector i = a;
  i &= b;
  EXPECT_FALSE(i.get(1));
  EXPECT_TRUE(i.get(2));
  EXPECT_FALSE(i.get(3));
}

TEST(BitVector, SizeMismatchThrows) {
  BitVector a(64), b(65);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW(a &= b, std::invalid_argument);
}

TEST(BitVector, SerializationRoundTrip) {
  BitVector bits(100);
  bits.set(5);
  bits.set(63);
  bits.set(99);
  const auto bytes = bits.to_bytes();
  const auto restored = BitVector::from_bytes(bytes, 100);
  EXPECT_EQ(bits, restored);
}

TEST(ByteBuffer, RoundTripsAllWidths) {
  ByteWriter writer;
  writer.u8(0xab);
  writer.u16(0x1234);
  writer.u32(0xdeadbeef);
  writer.u64(0x0123456789abcdefULL);
  writer.varint(0);
  writer.varint(127);
  writer.varint(128);
  writer.varint(0xffffffffffffffffULL);

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.u8(), 0xab);
  EXPECT_EQ(reader.u16(), 0x1234);
  EXPECT_EQ(reader.u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.varint(), 0u);
  EXPECT_EQ(reader.varint(), 127u);
  EXPECT_EQ(reader.varint(), 128u);
  EXPECT_EQ(reader.varint(), 0xffffffffffffffffULL);
  EXPECT_TRUE(reader.done());
}

TEST(ByteBuffer, ReaderThrowsOnUnderrun) {
  ByteWriter writer;
  writer.u16(7);
  ByteReader reader(writer.bytes());
  reader.u8();
  EXPECT_THROW(reader.u16(), std::out_of_range);
}

TEST(ByteBuffer, BulkWordsMatchPerWordWrites) {
  const std::vector<std::uint64_t> words = {0, 1, 0x0123456789abcdefULL,
                                            ~0ULL, 0x8000000000000000ULL};
  ByteWriter bulk;
  bulk.u8(7);  // unaligned start
  bulk.u64s(words);
  bulk.u64s({});
  ByteWriter single;
  single.u8(7);
  for (const std::uint64_t word : words) single.u64(word);
  EXPECT_EQ(bulk.bytes(), single.bytes());

  ByteReader reader(bulk.bytes());
  reader.u8();
  std::vector<std::uint64_t> decoded(words.size());
  reader.u64s(decoded);
  EXPECT_EQ(decoded, words);
  EXPECT_TRUE(reader.done());

  ByteReader truncated(std::span(bulk.bytes()).first(bulk.size() - 1));
  truncated.u8();
  EXPECT_THROW(truncated.u64s(decoded), std::out_of_range);
}

TEST(ByteBuffer, VarintEncodingIsMinimal) {
  ByteWriter writer;
  writer.varint(127);
  EXPECT_EQ(writer.size(), 1u);
  writer.varint(128);
  EXPECT_EQ(writer.size(), 3u);  // 1 + 2
  writer.varint(1ULL << 21);
  EXPECT_EQ(writer.size(), 7u);  // + 4
}

TEST(Packet, PacketizeSplitsAtMtu) {
  std::vector<std::uint8_t> message(2500, 7);
  const auto packets = packetize(message, 1024);
  ASSERT_EQ(packets.size(), 3u);
  EXPECT_EQ(packets[0].size(), 1024u);
  EXPECT_EQ(packets[1].size(), 1024u);
  EXPECT_EQ(packets[2].size(), 452u);
  EXPECT_EQ(reassemble(packets), message);
}

TEST(Packet, PacketsForMatchesFormula) {
  EXPECT_EQ(packets_for(0), 0u);
  EXPECT_EQ(packets_for(1), 1u);
  EXPECT_EQ(packets_for(1024), 1u);
  EXPECT_EQ(packets_for(1025), 2u);
}

TEST(Packet, SketchFitsOnePacket) {
  // The paper's sizing argument: 128 64-bit minima fill exactly one 1 KB
  // packet.
  EXPECT_EQ(packets_for(128 * 8), 1u);
}

}  // namespace
}  // namespace icd::util
