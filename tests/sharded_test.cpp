// Sharded delivery engine: determinism contract (shards = 1 reproduces its
// golden trajectories under tests/golden/ bit for bit), multi-shard swarm
// correctness (run under TSAN in CI), SPSC ring and cross-shard link plumbing, and the
// per-tick control-frame batching layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/delivery.hpp"
#include "core/sharded_delivery.hpp"
#include "golden.hpp"
#include "overlay/simulator.hpp"
#include "util/random.hpp"
#include "util/spsc.hpp"
#include "wire/shard_link.hpp"
#include "wire/transport.hpp"

namespace icd {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

core::DeliveryOptions small_options() {
  core::DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 13;
  options.refresh_interval = 25;
  return options;
}

/// Drives a service tick by tick, recording the tick at which each peer
/// completed, until all complete or max_ticks pass.
std::vector<std::size_t> drive(core::ShardedDelivery& service,
                               std::size_t peers, std::size_t max_ticks) {
  std::vector<std::size_t> completion(peers, 0);
  for (std::size_t t = 0; t < max_ticks; ++t) {
    service.tick();
    bool all = true;
    for (std::size_t p = 0; p < peers; ++p) {
      if (completion[p] == 0 && service.peer_complete(p)) {
        completion[p] = service.ticks();
      }
      all = all && completion[p] != 0;
    }
    if (all) break;
  }
  return completion;
}

// --- SPSC ring --------------------------------------------------------------

TEST(SpscRing, CrossThreadFifoDeliversEverythingInOrder) {
  util::SpscRing<std::vector<std::uint8_t>> ring(64);
  constexpr std::size_t kItems = 20000;
  std::vector<std::size_t> seen;
  seen.reserve(kItems);
  std::jthread consumer([&] {
    while (seen.size() < kItems) {
      if (auto item = ring.try_pop()) {
        seen.push_back((*item)[0] | (std::size_t{(*item)[1]} << 8));
      }
    }
  });
  for (std::size_t i = 0; i < kItems; ++i) {
    std::vector<std::uint8_t> item{static_cast<std::uint8_t>(i),
                                   static_cast<std::uint8_t>(i >> 8)};
    while (!ring.try_push(item)) {
    }
  }
  consumer.join();
  ASSERT_EQ(seen.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(seen[i], i & 0xffff) << "position " << i;
    if (seen[i] != (i & 0xffff)) break;
  }
}

TEST(SpscRing, RejectsWhenFullWithoutLosingTheValue) {
  util::SpscRing<std::vector<std::uint8_t>> ring(8);
  std::vector<std::uint8_t> item{42};
  for (std::size_t i = 0; i < ring.capacity(); ++i) {
    std::vector<std::uint8_t> filler{1};
    ASSERT_TRUE(ring.try_push(filler));
  }
  EXPECT_FALSE(ring.try_push(item));
  EXPECT_EQ(item, (std::vector<std::uint8_t>{42}));  // untouched
}

// --- ShardLink --------------------------------------------------------------

TEST(ShardLink, CarriesFramesBothWaysAndRecyclesBuffers) {
  wire::ChannelConfig config;
  config.mtu = 1500;
  wire::ShardLink link(config);

  // a -> b and b -> a, single-threaded (coordinator role on both ends).
  // The last frame sent stays in flight for one hop (LossyChannel's event
  // clock, emulated producer-side): the owner's next advance releases it.
  ASSERT_TRUE(link.a().send(wire::Request{7}));
  ASSERT_TRUE(link.b().send(wire::Request{9}));
  EXPECT_FALSE(link.b().receive().has_value());
  link.advance_a_to(1);
  link.advance_b_to(1);
  auto at_b = link.b().receive();
  ASSERT_TRUE(at_b.has_value());
  EXPECT_EQ(std::get<wire::Request>(*at_b).symbols_desired, 7u);
  auto at_a = link.a().receive();
  ASSERT_TRUE(at_a.has_value());
  EXPECT_EQ(std::get<wire::Request>(*at_a).symbols_desired, 9u);

  // Steady state: buffers must recycle through the rings — after warmup a
  // burst of sends allocates nothing new from the pools. Each send
  // displaces its predecessor out of flight and onto the ring.
  ASSERT_TRUE(link.a().send(wire::Request{1000}));
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(link.a().send(wire::Request{static_cast<std::uint64_t>(
        round)}));
    ASSERT_TRUE(link.b().receive().has_value());
  }
  EXPECT_EQ(link.overflow_drops(), 0u);
}

TEST(ShardLink, AppliesBernoulliLossSenderSide) {
  wire::ChannelConfig config;
  config.mtu = 1500;
  config.loss_rate = 0.5;
  config.seed = 99;
  wire::ShardLink link(config);
  std::size_t delivered = 0;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(link.a().send(wire::Request{1}));
    if (link.b().receive().has_value()) ++delivered;
  }
  // ~50% loss; generous bounds.
  EXPECT_GT(delivered, 100u);
  EXPECT_LT(delivered, 300u);
  // Lost frames still count as sent (handed to the link), like a channel.
  EXPECT_EQ(link.a().stats().frames_sent, 400u);
}

// --- Determinism: shards = 1 vs the golden trajectories --------------------

TEST(ShardedDelivery, Shards1MatchesGoldenTrajectory) {
  const auto content = random_content(64 * 100, 21);
  const std::size_t peers = 6;
  core::ShardedDelivery sharded(content, small_options(),
                                core::ShardOptions{/*shards=*/1});
  sharded.add_mirror();
  for (std::size_t p = 0; p < peers; ++p) {
    sharded.add_peer("p" + std::to_string(p), p < 2);
  }
  drive(sharded, peers, 5000);
  for (std::size_t p = 0; p < peers; ++p) {
    ASSERT_TRUE(sharded.peer_complete(p));
  }
  golden::expect_matches("sharded_mirror_swarm", "shards=1", sharded, content);
}

TEST(ShardedDelivery, Shards1MatchesGoldenUnderLossAndReorder) {
  auto options = small_options();
  options.link.loss_rate = 0.08;
  options.link.reorder_rate = 0.1;
  options.link.mtu = 600;
  const auto content = random_content(64 * 60, 22);
  const std::size_t peers = 5;
  core::ShardedDelivery sharded(content, options,
                                core::ShardOptions{/*shards=*/1});
  for (std::size_t p = 0; p < peers; ++p) {
    sharded.add_peer("p" + std::to_string(p), p < 2);
  }
  drive(sharded, peers, 8000);
  golden::expect_matches("sharded_loss_reorder", "shards=1", sharded, content);
}

// --- The bench_delivery swarm ----------------------------------------------

/// The 1-shard swarm bench_delivery times, at its smoke and full sizes:
/// two origin mirrors, a quarter of the peers origin-fed, 512 B blocks,
/// perfect untimed links, driven tick by tick until every peer completes.
core::DeliveryOptions bench_delivery_options() {
  core::DeliveryOptions options;
  options.block_size = 512;
  options.max_peer_sessions = 2;
  options.refresh_interval = 40;
  return options;
}

void expect_bench_delivery_swarm(const std::string& name, std::size_t peers,
                                 std::size_t content_bytes,
                                 std::size_t max_ticks) {
  const auto content = random_content(content_bytes, 0xc0ffee);
  core::ShardedDelivery sharded(content, bench_delivery_options(),
                                core::ShardOptions{1});
  sharded.add_mirror();
  for (std::size_t p = 0; p < peers; ++p) {
    sharded.add_peer("peer" + std::to_string(p), p < peers / 4);
  }
  drive(sharded, peers, max_ticks);
  golden::expect_matches(name, "shards=1", sharded, content);
}

TEST(ShardedDelivery, BenchDeliverySmokeSwarmMatchesGolden) {
  expect_bench_delivery_swarm("bench_delivery_smoke", 8, 16 * 1024, 4000);
}

TEST(ShardedDelivery, BenchDeliveryFullSwarmMatchesGolden) {
  expect_bench_delivery_swarm("bench_delivery_full", 64, 96 * 1024, 20000);
}

// --- Multi-shard swarms (TSAN target) ---------------------------------------

TEST(ShardedDelivery, FourShardSwarmDeliversEverywhere) {
  const auto content = random_content(64 * 80, 23);
  const std::size_t peers = 12;
  core::ShardedDelivery service(content, small_options(),
                                core::ShardOptions{/*shards=*/4});
  service.add_mirror();
  for (std::size_t p = 0; p < peers; ++p) {
    service.add_peer("p" + std::to_string(p), p < 3);
  }
  ASSERT_TRUE(service.run(8000));
  for (std::size_t p = 0; p < peers; ++p) {
    EXPECT_TRUE(service.peer_complete(p));
    EXPECT_EQ(service.peer_content(p), content);
  }
}

TEST(ShardedDelivery, FourShardRunsAreDeterministic) {
  const auto content = random_content(64 * 60, 24);
  const std::size_t peers = 9;
  auto run_once = [&](std::vector<std::size_t>& completion,
                      core::ShardedDelivery::LinkTotals& totals) {
    core::ShardedDelivery service(content, small_options(),
                                  core::ShardOptions{/*shards=*/4});
    for (std::size_t p = 0; p < peers; ++p) {
      service.add_peer("p" + std::to_string(p), p < 3);
    }
    completion = drive(service, peers, 8000);
    totals = service.link_totals();
  };
  std::vector<std::size_t> first_completion, second_completion;
  core::ShardedDelivery::LinkTotals first_totals, second_totals;
  run_once(first_completion, first_totals);
  run_once(second_completion, second_totals);
  EXPECT_EQ(first_completion, second_completion);
  EXPECT_EQ(first_totals.control_bytes, second_totals.control_bytes);
  EXPECT_EQ(first_totals.data_bytes, second_totals.data_bytes);
  EXPECT_EQ(first_totals.data_frames, second_totals.data_frames);
}

TEST(ShardedDelivery, FourShardSwarmSurvivesLossyCrossLinks) {
  auto options = small_options();
  options.link.loss_rate = 0.1;
  const auto content = random_content(64 * 50, 25);
  const std::size_t peers = 8;
  core::ShardedDelivery service(content, options,
                                core::ShardOptions{/*shards=*/4});
  for (std::size_t p = 0; p < peers; ++p) {
    service.add_peer("p" + std::to_string(p), p < 2);
  }
  ASSERT_TRUE(service.run(10000));
  for (std::size_t p = 0; p < peers; ++p) {
    EXPECT_EQ(service.peer_content(p), content);
  }
}

// --- Per-tick control-frame batching ----------------------------------------

TEST(Batching, TrainPreservesMessagesOrderAndBytes) {
  wire::Pipe plain(1500);
  wire::Pipe batched(1500);
  batched.a().set_batch_budget(1400);

  const std::vector<wire::Message> bundle = {
      wire::Hello{100, 7, 42}, wire::Request{64}, wire::Request{65}};
  for (const auto& m : bundle) {
    ASSERT_TRUE(plain.a().send(m));
    ASSERT_TRUE(batched.a().send(m));
  }
  ASSERT_TRUE(batched.a().flush_batch());

  // Same wire bytes, fewer datagrams.
  EXPECT_EQ(batched.a().stats().control_bytes_sent,
            plain.a().stats().control_bytes_sent);
  EXPECT_EQ(plain.a().stats().control_frames_sent, 3u);
  EXPECT_EQ(batched.a().stats().control_frames_sent, 1u);

  // The receiver slices the train back into the same messages, in order.
  for (const auto& m : bundle) {
    auto received = batched.b().receive();
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(wire::message_type(*received), wire::message_type(m));
  }
  EXPECT_FALSE(batched.b().receive().has_value());
}

TEST(Batching, SplitsTrainsAtBudget) {
  wire::Pipe pipe(1500);
  pipe.a().set_batch_budget(40);  // Request frames are ~9 bytes
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pipe.a().send(wire::Request{static_cast<std::uint64_t>(i)}));
  }
  ASSERT_TRUE(pipe.a().flush_batch());
  // Request frames are 6 bytes, so a 40-byte budget holds 6 per train:
  // 10 frames split into exactly 2 datagrams.
  EXPECT_EQ(pipe.a().stats().control_frames_sent, 2u);
  for (int i = 0; i < 10; ++i) {
    auto received = pipe.b().receive();
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(std::get<wire::Request>(*received).symbols_desired,
              static_cast<std::uint64_t>(i));
  }
}

TEST(Batching, DataSendFlushesPendingControlFirst) {
  wire::Pipe pipe(1500);
  pipe.a().set_batch_budget(1400);
  ASSERT_TRUE(pipe.a().send(wire::Request{5}));
  const std::vector<std::uint8_t> payload(64, 0xab);
  ASSERT_TRUE(pipe.a().send(codec::EncodedSymbolView{11, payload}));

  // Control departs before the symbol that followed it.
  auto first = pipe.b().receive();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(std::holds_alternative<wire::Request>(*first));
  auto second = pipe.b().receive();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(std::holds_alternative<wire::EncodedSymbolMessage>(*second));
}

TEST(Batching, ShardedDeliveryWithBatchingMatchesUnbatchedTrajectory) {
  // On perfect links, batching changes datagram count but neither bytes
  // nor protocol behavior: same completion ticks, same control bytes,
  // fewer control frames.
  const auto content = random_content(64 * 60, 26);
  const std::size_t peers = 5;
  core::ShardedDelivery plain(content, small_options(),
                              core::ShardOptions{/*shards=*/1});
  core::ShardedDelivery batched(
      content, small_options(),
      core::ShardOptions{/*shards=*/1, /*batch_budget=*/4096});
  for (std::size_t p = 0; p < peers; ++p) {
    plain.add_peer("p" + std::to_string(p), p < 2);
    batched.add_peer("p" + std::to_string(p), p < 2);
  }
  EXPECT_EQ(drive(plain, peers, 6000), drive(batched, peers, 6000));
  const auto plain_totals = plain.link_totals();
  const auto batched_totals = batched.link_totals();
  EXPECT_EQ(batched_totals.control_bytes, plain_totals.control_bytes);
  EXPECT_EQ(batched_totals.data_bytes, plain_totals.data_bytes);
  EXPECT_LT(batched_totals.control_frames, plain_totals.control_frames);
  for (std::size_t p = 0; p < peers; ++p) {
    EXPECT_EQ(batched.peer_content(p), content);
  }
}

TEST(Batching, FourShardsWithBatchingDeliversEverywhere) {
  const auto content = random_content(64 * 50, 27);
  const std::size_t peers = 8;
  core::ShardedDelivery service(
      content, small_options(),
      core::ShardOptions{/*shards=*/4, /*batch_budget=*/2048});
  for (std::size_t p = 0; p < peers; ++p) {
    service.add_peer("p" + std::to_string(p), p < 2);
  }
  ASSERT_TRUE(service.run(8000));
  for (std::size_t p = 0; p < peers; ++p) {
    EXPECT_EQ(service.peer_content(p), content);
  }
}

TEST(Batching, OverlaySimulatorChargesCoalescedControlPackets) {
  // SimConfig::batch_budget in the count-only simulator: same delivery
  // trajectory (the data plane is untouched), fewer control packets (the
  // per-connection setup blobs pay packetization once per train).
  overlay::AdaptiveOverlayConfig config;
  config.base.n = 200;
  config.base.seed = 404;
  config.peer_count = 8;
  config.origin_fanout = 2;
  config.max_rounds = 30000;
  const auto plain = overlay::run_adaptive_overlay(config);
  config.base.batch_budget = 4096;
  const auto batched = overlay::run_adaptive_overlay(config);
  EXPECT_EQ(plain.completion_round, batched.completion_round);
  EXPECT_EQ(plain.transmissions, batched.transmissions);
  EXPECT_LT(batched.control_packets, plain.control_packets);
}

// --- BufferPool shard-local ownership ---------------------------------------

#if defined(__SANITIZE_THREAD__)
#define ICD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ICD_TSAN 1
#endif
#endif

// Death tests fork, which TSAN dislikes; the abort path is still exercised
// by the non-death handoff test below.
#if defined(ICD_POOL_OWNER_CHECKS) && !defined(ICD_TSAN)
TEST(BufferPoolOwnerDeathTest, CrossThreadUseAbortsLoudly) {
  EXPECT_DEATH(
      {
        wire::BufferPool pool;
        pool.release(pool.acquire());  // binds to this thread
        std::thread offender([&pool] { (void)pool.acquire(); });
        offender.join();
      },
      "non-owner thread");
}
#endif

#if defined(ICD_POOL_OWNER_CHECKS)
TEST(BufferPoolOwner, ReleaseOwnerAllowsHandoff) {
  wire::BufferPool pool;
  pool.release(pool.acquire());  // bind here
  pool.debug_release_owner();
  std::thread other([&pool] {
    pool.release(pool.acquire());  // rebinds to the worker: must not die
  });
  other.join();
  pool.debug_release_owner();
  pool.release(pool.acquire());  // and back
  SUCCEED();
}
#endif

}  // namespace
}  // namespace icd
