// Tests for the delivery engine (ShardedDelivery, inline at shards = 1):
// full-fidelity end-to-end delivery with origin mirrors,
// admission-controlled peer sessions, and verification of reconstructed
// content.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/delivery.hpp"
#include "core/fault_plan.hpp"
#include "core/session_plan.hpp"
#include "core/sharded_delivery.hpp"
#include "util/random.hpp"

namespace icd::core {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

DeliveryOptions small_options() {
  DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 13;
  options.refresh_interval = 25;
  return options;
}

// --- Admission starvation relaxation ----------------------------------------

/// Builds a sketch over `count` ids starting at `first` (512 permutations:
/// tight resemblance estimates so the cutoff comparisons are stable).
sketch::MinwiseSketch make_sketch(std::uint64_t first, std::uint64_t count) {
  sketch::MinwiseSketch sketch(1u << 20, 512);
  for (std::uint64_t id = first; id < first + count; ++id) sketch.update(id);
  return sketch;
}

TEST(AdmissionRelaxation, NearCompletePeerAdmitsNovelNotIdenticalSenders) {
  // End-of-download regime: every candidate resembles the receiver above
  // the strict cutoff. The relaxed policy (tiny remaining need -> cutoff
  // relaxes toward 1) must admit the sender that still holds novel
  // symbols while continuing to reject the genuinely identical one —
  // which the old largest-candidate fallback would happily have picked.
  const auto receiver = make_sketch(0, 950);
  const auto identical = make_sketch(0, 950);     // same 950 ids
  const auto near_identical = make_sketch(0, 960);  // 950 shared + 10 novel

  AdmissionPolicy policy;  // max_resemblance 0.95
  std::vector<CandidateSender> candidates{
      CandidateSender{7, &identical, 950},
      CandidateSender{9, &near_identical, 960}};

  // Strict admission rejects both (estimated resemblance 1.0 and ~0.98).
  EXPECT_TRUE(
      select_senders(receiver, 950, candidates, policy, 2).empty());

  // Near complete: needed 50 of a 1000-symbol target.
  const AdmissionPolicy relaxed = relax_policy_for_need(policy, 50, 1000);
  EXPECT_GT(relaxed.max_resemblance, 0.99);
  EXPECT_LT(relaxed.max_resemblance, 1.0);  // identical stays out
  const auto selected = select_senders(receiver, 950, candidates, relaxed, 2);
  EXPECT_EQ(selected, (std::vector<std::size_t>{9}));
}

TEST(AdmissionRelaxation, FarFromDonePeerKeepsTheStrictCutoff) {
  // Early-download regime: the same near-identical candidate offers
  // nothing a peer that needs most of the content could not get from a
  // genuinely novel sender, and the barely-relaxed cutoff still rejects
  // it — no useless sessions are admitted.
  const auto receiver = make_sketch(0, 950);
  const auto near_identical = make_sketch(0, 960);
  AdmissionPolicy policy;
  std::vector<CandidateSender> candidates{
      CandidateSender{9, &near_identical, 960}};

  const AdmissionPolicy relaxed = relax_policy_for_need(policy, 900, 1000);
  EXPECT_LT(relaxed.max_resemblance, 0.96);
  EXPECT_TRUE(
      select_senders(receiver, 950, candidates, relaxed, 2).empty());
  // And the relaxation is monotone in the remaining need.
  EXPECT_LT(relax_policy_for_need(policy, 900, 1000).max_resemblance,
            relax_policy_for_need(policy, 400, 1000).max_resemblance);
  EXPECT_LT(relax_policy_for_need(policy, 400, 1000).max_resemblance,
            relax_policy_for_need(policy, 50, 1000).max_resemblance);
}

// --- Overlap-aware sender-group selection -----------------------------------

TEST(OverlapAwareSelection, DemotesOverlappingPairForComplementarySender) {
  // Three candidates, all equally novel against the receiver: two
  // near-identical to *each other* (190 of 200 ids shared), one disjoint
  // from both. Per-candidate novelty cannot tell the pair apart from the
  // complementary sender — only the group-overlap estimate can.
  const auto receiver = make_sketch(0, 100);
  const auto first = make_sketch(1000, 200);
  const auto twin = make_sketch(1010, 200);          // 190 ids shared
  const auto complementary = make_sketch(5000, 200);  // disjoint
  const std::vector<PlanPeer> peers{
      PlanPeer{&receiver, 100}, PlanPeer{&first, 200}, PlanPeer{&twin, 200},
      PlanPeer{&complementary, 200}};
  DeliveryOptions options = small_options();
  options.max_peer_sessions = 2;

  const auto sender_ids = [&](bool overlap_aware) {
    options.overlap_aware_selection = overlap_aware;
    std::uint64_t chain = 99;
    std::vector<std::size_t> ids;
    for (const auto& download :
         plan_peer_downloads(0, peers, options, 400, chain)) {
      ids.push_back(download.sender_id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };

  // Historical plan: novelty-ranked with input order on ties, so the two
  // overlapping senders win — and must keep winning with the flag off.
  EXPECT_EQ(sender_ids(false), (std::vector<std::size_t>{1, 2}));
  // Overlap-aware: the twins' mutual overlap demotes one of them in favor
  // of the complementary sender.
  const auto aware = sender_ids(true);
  ASSERT_EQ(aware.size(), 2u);
  EXPECT_TRUE(std::find(aware.begin(), aware.end(), 3u) != aware.end());
  EXPECT_FALSE(std::find(aware.begin(), aware.end(), 1u) != aware.end() &&
               std::find(aware.begin(), aware.end(), 2u) != aware.end());
}

TEST(DeliveryService, SingleSubscriberDecodesFromOrigin) {
  const auto content = random_content(64 * 200, 1);
  ShardedDelivery service(content, small_options());
  const auto id = service.add_peer("solo", /*subscribe_origin=*/true);
  ASSERT_TRUE(service.run(2000));
  EXPECT_TRUE(service.peer_complete(id));
  EXPECT_EQ(service.peer_content(id), content);
}

TEST(DeliveryService, NonSubscribersFedByPeers) {
  // Two origin-fed peers, three peers reachable only via the overlay: the
  // informed peer sessions must carry the content the rest of the way.
  const auto content = random_content(64 * 150, 2);
  ShardedDelivery service(content, small_options());
  std::vector<std::size_t> ids;
  ids.push_back(service.add_peer("seed-a", true));
  ids.push_back(service.add_peer("seed-b", true));
  ids.push_back(service.add_peer("leaf-1", false));
  ids.push_back(service.add_peer("leaf-2", false));
  ids.push_back(service.add_peer("leaf-3", false));
  ASSERT_TRUE(service.run(6000));
  for (const auto id : ids) {
    EXPECT_TRUE(service.peer_complete(id));
    EXPECT_EQ(service.peer_content(id), content);
  }
}

TEST(DeliveryService, MirrorsSpeedUpSubscribers) {
  const auto content = random_content(64 * 200, 3);

  ShardedDelivery one(content, small_options());
  one.add_peer("a", true);
  ASSERT_TRUE(one.run(4000));
  const auto single_ticks = one.ticks();

  ShardedDelivery two(content, small_options());
  two.add_mirror();
  // Peers round-robin across origins; a pair of subscribers shares the
  // load and both still finish.
  two.add_peer("a", true);
  two.add_peer("b", true);
  ASSERT_TRUE(two.run(4000));
  // The mirrored service serves double the peers in comparable time.
  EXPECT_LE(two.ticks(), single_ticks * 2);
}

TEST(DeliveryService, CompletedPeersServeLateJoiners) {
  const auto content = random_content(64 * 120, 4);
  auto options = small_options();
  ShardedDelivery service(content, options);
  const auto seeder = service.add_peer("seeder", true);
  ASSERT_TRUE(service.run(3000));
  ASSERT_TRUE(service.peer_complete(seeder));

  // Late joiner with no origin subscription: it can only get content from
  // the completed seeder, which serves re-encoded fresh symbols.
  const auto late = service.add_peer("late", false);
  ASSERT_TRUE(service.run(5000));
  EXPECT_TRUE(service.peer_complete(late));
  EXPECT_EQ(service.peer_content(late), content);
}

TEST(DeliveryService, ShortRefreshIntervalDoesNotStarveNearCompletePeers) {
  // Regression: with short sessions a nearly-complete peer's sketch
  // resembles every candidate above the admission cutoff, and without the
  // starvation fallback refresh_sessions stops creating downloads — the
  // peer stalls a few symbols short of decoding, forever.
  const auto content = random_content(64 * 150, 9);
  auto options = small_options();
  options.refresh_interval = 10;
  options.link.loss_rate = 0.1;  // over lossy edges, too
  ShardedDelivery service(content, options);
  service.add_peer("seed", true);
  const auto leaf = service.add_peer("leaf", false);
  ASSERT_TRUE(service.run(6000));
  EXPECT_EQ(service.peer_content(leaf), content);
}

TEST(DeliveryService, TinyLinkMtuIsDiagnosableNotSilent) {
  // An MTU below the fragment overhead means no frame can ever cross the
  // peer links; the service must stall visibly (frames_refused) instead
  // of reporting an idle wire.
  const auto content = random_content(64 * 50, 11);
  auto options = small_options();
  options.link.mtu = 16;
  ShardedDelivery service(content, options);
  service.add_peer("seed", true);
  const auto leaf = service.add_peer("leaf", false);
  EXPECT_FALSE(service.run(100));
  EXPECT_FALSE(service.peer_complete(leaf));
  const auto totals = service.link_totals();
  EXPECT_GT(totals.frames_refused, 0u);
  // Only the few-byte Request fits a 16-byte MTU; Hello, sketch, and
  // summary are all refused, so the handshake stalls and no data-plane
  // traffic ever flows.
  EXPECT_EQ(totals.data_bytes, 0u);
}

TEST(DeliveryService, LinkTotalsAreCumulativeAcrossRefreshes) {
  const auto content = random_content(64 * 150, 7);
  auto options = small_options();
  options.refresh_interval = 10;  // force several session teardowns
  ShardedDelivery service(content, options);
  service.add_peer("seed", true);
  const auto leaf = service.add_peer("leaf", false);

  ShardedDelivery::LinkTotals previous;
  std::size_t refreshes_observed = 0;
  for (int t = 0; t < 600 && !service.peer_complete(leaf); ++t) {
    service.tick();
    const auto totals = service.link_totals();
    // Cumulative totals never decrease, even across a refresh teardown.
    EXPECT_GE(totals.control_bytes, previous.control_bytes);
    EXPECT_GE(totals.data_bytes, previous.data_bytes);
    EXPECT_GE(totals.control_frames, previous.control_frames);
    EXPECT_GE(totals.data_frames, previous.data_frames);
    if (service.active_link_totals().control_bytes < totals.control_bytes) {
      ++refreshes_observed;  // some cost now lives only in retired links
    }
    previous = totals;
  }
  EXPECT_GT(refreshes_observed, 0u);
  EXPECT_GT(previous.control_bytes, 0u);
  EXPECT_GT(previous.data_bytes, 0u);
}

TEST(DeliveryService, SuspectOnlyNovelSenderIsReadmittedAfterTtlExpiry) {
  // relax_policy_for_need x suspect set: peer 1's only novel source is
  // peer 0, which crashes mid-transfer (flagged by the liveness timeout,
  // marked suspect) and restarts while still inside its suspect TTL. The
  // starving receiver's admission cutoff relaxes toward 1 as refreshes
  // pass — but relaxation widens the *policy*, never the candidate pool:
  // a suspect stays excluded until the TTL expires, and only then does
  // the (relaxed) admission re-form the session and finish the download.
  auto plan = std::make_shared<FaultPlan>();
  plan->crashes.push_back({30, 0});
  plan->restarts.push_back({55, 0});
  DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 51;
  options.refresh_interval = 25;
  options.faults = plan;
  options.liveness_timeout_ticks = 12;
  options.max_handshake_retries = 4;
  options.suspect_ttl_ticks = 60;
  const auto content = random_content(64 * 60, 77);
  ShardedDelivery service(content, options);
  service.add_peer("source", true);
  service.add_peer("leaf", false);

  // Restarted and alive — but still suspect, so refreshes (with ever more
  // relaxed cutoffs: the leaf is starving) must not re-admit peer 0.
  for (std::size_t t = 0; t < 90; ++t) service.tick();
  EXPECT_FALSE(service.peer_down(0));
  EXPECT_FALSE(service.peer_complete(1));

  ASSERT_TRUE(service.run(8000));
  EXPECT_TRUE(service.peer_complete(1));
  EXPECT_EQ(service.peer_content(1), content);

  // The abandoned session was diagnosed, and completion waited out the
  // suspect window (failure tick + TTL) rather than racing the restart.
  const auto result = service.session_result(1);
  ASSERT_FALSE(result.failed_peers.empty());
  EXPECT_EQ(result.failed_peers.front().peer, 0u);
  EXPECT_EQ(result.failed_peers.front().reason,
            FailedPeer::Reason::kLivenessTimeout);
  EXPECT_GE(service.peer_completion_tick(1),
            result.failed_peers.front().tick + options.suspect_ttl_ticks);
}

// --- Adaptive overlay (Section 2.1) ------------------------------------------

/// Eight peers (two origin-fed) with two sessions each; runs to completion
/// and returns the mean completion tick, byte-checking every peer.
double mean_overlay_completion(const DeliveryOptions& options) {
  const auto content = random_content(64 * 200, options.session_seed);
  ShardedDelivery service(content, options);
  constexpr std::size_t kPeers = 8;
  for (std::size_t p = 0; p < kPeers; ++p) service.add_peer("p", p < 2);
  EXPECT_TRUE(service.run(30000));
  double total = 0.0;
  for (std::size_t id = 0; id < kPeers; ++id) {
    EXPECT_EQ(service.peer_content(id), content);
    total += static_cast<double>(service.peer_completion_tick(id));
  }
  return total / kPeers;
}

DeliveryOptions overlay_options(std::uint64_t seed) {
  DeliveryOptions options = small_options();
  options.session_seed = seed;
  options.max_peer_sessions = 2;
  return options;
}

TEST(AdaptiveOverlay, SketchAdmissionBeatsRandomSelection) {
  // Random selection through the admission knobs: sample exactly as many
  // candidates as there are session slots and admit them all.
  double informed_total = 0, random_total = 0;
  for (std::uint64_t seed = 1000; seed < 1003; ++seed) {
    informed_total += mean_overlay_completion(overlay_options(seed));
    auto random = overlay_options(seed);
    random.admission_sample = random.max_peer_sessions;
    random.admission = AdmissionPolicy{1.0, 0.0};
    random_total += mean_overlay_completion(random);
  }
  EXPECT_LT(informed_total, random_total);
}

TEST(AdaptiveOverlay, ToleratesLoss) {
  // Loss slows delivery but must not break it; a single seed's completion
  // ticks are noisy at this scale, so sum over a few.
  double clean_total = 0, lossy_total = 0;
  for (std::uint64_t seed = 424242; seed < 424245; ++seed) {
    auto options = overlay_options(seed);
    clean_total += mean_overlay_completion(options);
    options.link.loss_rate = 0.3;
    lossy_total += mean_overlay_completion(options);
  }
  EXPECT_GT(lossy_total, clean_total);
}

TEST(AdaptiveOverlay, HeavyReorderingStillCompletes) {
  // Every frame may swap with its successor; handshakes and symbols must
  // still get through (the helper checks completion and content).
  auto options = overlay_options(424242);
  options.link.reorder_rate = 1.0;
  EXPECT_GT(mean_overlay_completion(options), 0.0);
}

TEST(DeliveryService, TicksAreCountedAndContentIsStable) {
  const auto content = random_content(64 * 50, 5);
  ShardedDelivery service(content, small_options());
  const auto id = service.add_peer("a", true);
  EXPECT_EQ(service.ticks(), 0u);
  service.tick();
  EXPECT_EQ(service.ticks(), 1u);
  ASSERT_TRUE(service.run(2000));
  const auto first = service.peer_content(id);
  service.tick();  // extra ticks change nothing for completed peers
  EXPECT_EQ(service.peer_content(id), first);
}

}  // namespace
}  // namespace icd::core
