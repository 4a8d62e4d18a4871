// Tests for the library's extensions beyond the paper's minimum:
// inactivation decoding and bottom-k sketches.
#include <gtest/gtest.h>

#include <vector>

#include "codec/inactivation.hpp"
#include "sketch/bottomk.hpp"
#include "sketch/minwise.hpp"
#include "util/random.hpp"

namespace icd {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

// --- Inactivation decoding -------------------------------------------------

TEST(InactivationDecoder, DecodesWithExactlyNSymbolsUsually) {
  // Peeling alone needs (1 + eps) l symbols; with Gaussian elimination the
  // residual solves as soon as the equations have full rank, which for
  // robust-soliton equations happens within a handful of symbols of l.
  const std::uint32_t blocks = 300;
  const auto content = random_content(blocks * 8, 1);
  const codec::BlockSource source(content, 8);
  const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
  codec::Encoder encoder(source, dist, 555);
  codec::InactivationDecoder decoder(encoder.parameters(), dist);
  while (!decoder.complete()) {
    decoder.add_symbol(encoder.next());
    if (decoder.received_count() >= blocks) decoder.try_solve();
    ASSERT_LT(decoder.received_count(), 2 * blocks);
  }
  EXPECT_EQ(codec::BlockSource::restore(decoder.blocks(), content.size()),
            content);
  // Full-rank typically within ~2% of l.
  EXPECT_LE(decoder.received_count(), blocks + blocks / 10);
}

TEST(InactivationDecoder, OverheadBeatsPurePeeling) {
  const std::uint32_t blocks = 500;
  const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
  double peeling = 0, inactivation = 0;
  for (int t = 0; t < 3; ++t) {
    peeling += codec::measure_decode_overhead(blocks, 8, dist, 100 + t);
    inactivation +=
        codec::measure_inactivation_overhead(blocks, 8, dist, 100 + t);
  }
  EXPECT_LT(inactivation, peeling);
  EXPECT_LT(inactivation / 3, 1.05);  // within ~5% of optimal
}

TEST(InactivationDecoder, TrySolveBeforeEnoughSymbolsIsFalse) {
  const std::uint32_t blocks = 100;
  const auto content = random_content(blocks * 8, 2);
  const codec::BlockSource source(content, 8);
  const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
  codec::Encoder encoder(source, dist, 7);
  codec::InactivationDecoder decoder(encoder.parameters(), dist);
  for (std::uint32_t i = 0; i < blocks / 2; ++i) {
    decoder.add_symbol(encoder.next());
  }
  EXPECT_FALSE(decoder.try_solve());
  EXPECT_FALSE(decoder.complete());
  EXPECT_THROW(decoder.blocks(), std::logic_error);
}

TEST(InactivationDecoder, SolvesDegenerateDistributionPeelingCannot) {
  // All-degree-3 equations never peel from scratch (no degree-1 symbols),
  // but a random 3-uniform system reaches full rank quickly; GE finishes
  // where the substitution rule starves. (Degree 2 would NOT work: all
  // even-weight rows span a subspace of rank at most l - 1.)
  const std::uint32_t blocks = 24;
  const auto content = random_content(blocks * 4, 3);
  const codec::BlockSource source(content, 4);
  const auto dist = codec::DegreeDistribution::constant(3);
  codec::Encoder encoder(source, dist, 99);
  codec::InactivationDecoder decoder(encoder.parameters(), dist);
  for (int i = 0; i < 400 && !decoder.try_solve(); ++i) {
    decoder.add_symbol(encoder.next());
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(codec::BlockSource::restore(decoder.blocks(), content.size()),
            content);
}

// --- Bottom-k sketches -------------------------------------------------------

TEST(BottomK, IdenticalSetsResembleCompletely) {
  sketch::BottomKSketch a(1 << 20), b(1 << 20);
  for (std::uint64_t i = 0; i < 500; ++i) {
    a.update(i * 31);
    b.update(i * 31);
  }
  EXPECT_DOUBLE_EQ(sketch::BottomKSketch::resemblance(a, b), 1.0);
}

TEST(BottomK, DisjointSetsResembleRarely) {
  sketch::BottomKSketch a(1 << 20), b(1 << 20);
  for (std::uint64_t i = 0; i < 500; ++i) {
    a.update(i);
    b.update(100000 + i);
  }
  EXPECT_LT(sketch::BottomKSketch::resemblance(a, b), 0.05);
}

TEST(BottomK, TracksTrueResemblance) {
  util::Xoshiro256 rng(4);
  const auto ids = util::sample_without_replacement(1 << 20, 1500, rng);
  // |A| = |B| = 1000, shared 500 -> r = 500 / 1500 = 1/3.
  sketch::BottomKSketch a(1 << 20), b(1 << 20);
  for (int i = 0; i < 1000; ++i) a.update(ids[static_cast<std::size_t>(i)]);
  for (int i = 500; i < 1500; ++i) b.update(ids[static_cast<std::size_t>(i)]);
  EXPECT_NEAR(sketch::BottomKSketch::resemblance(a, b), 1.0 / 3.0, 0.12);
}

TEST(BottomK, LowerVarianceThanMinwiseAtEqualBudget) {
  // The headline property: at the same wire budget (128 values), bottom-k
  // estimates have visibly lower error than 128 independent minima.
  util::Xoshiro256 rng(5);
  double minwise_sq_err = 0, bottomk_sq_err = 0;
  constexpr int kTrials = 30;
  for (int t = 0; t < kTrials; ++t) {
    const auto ids = util::sample_without_replacement(1 << 22, 3000, rng);
    const double truth = 1000.0 / 3000.0;
    sketch::MinwiseSketch ma(1 << 22, 128), mb(1 << 22, 128);
    sketch::BottomKSketch ba(1 << 22, 128), bb(1 << 22, 128);
    for (int i = 0; i < 2000; ++i) {
      ma.update(ids[static_cast<std::size_t>(i)]);
      ba.update(ids[static_cast<std::size_t>(i)]);
    }
    for (int i = 1000; i < 3000; ++i) {
      mb.update(ids[static_cast<std::size_t>(i)]);
      bb.update(ids[static_cast<std::size_t>(i)]);
    }
    const double em = sketch::MinwiseSketch::resemblance(ma, mb) - truth;
    const double eb = sketch::BottomKSketch::resemblance(ba, bb) - truth;
    minwise_sq_err += em * em;
    bottomk_sq_err += eb * eb;
  }
  EXPECT_LT(bottomk_sq_err, minwise_sq_err);
}

TEST(BottomK, UnionCombinationMatchesDirectSketch) {
  sketch::BottomKSketch a(1 << 20), b(1 << 20), direct(1 << 20);
  util::Xoshiro256 rng(6);
  for (int i = 0; i < 400; ++i) {
    const auto key = rng.next_below(1 << 20);
    if (i % 2 == 0) a.update(key);
    else b.update(key);
    direct.update(key);
  }
  const auto combined = sketch::BottomKSketch::combine_union(a, b);
  EXPECT_EQ(combined.values(), direct.values());
}

TEST(BottomK, SerializationRoundTrip) {
  sketch::BottomKSketch sketch(1 << 20, 64);
  for (std::uint64_t i = 0; i < 200; ++i) sketch.update(i * 17);
  const auto restored =
      sketch::BottomKSketch::deserialize(sketch.serialize());
  EXPECT_EQ(restored.values(), sketch.values());
  EXPECT_EQ(restored.k(), sketch.k());
}

TEST(BottomK, IncompatibleSketchesThrow) {
  sketch::BottomKSketch a(1 << 20, 64), b(1 << 20, 128);
  EXPECT_THROW(sketch::BottomKSketch::resemblance(a, b),
               std::invalid_argument);
  EXPECT_THROW(sketch::BottomKSketch(1 << 20, 0), std::invalid_argument);
}

}  // namespace
}  // namespace icd
