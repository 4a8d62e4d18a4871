// Randomized differential property: the event-loop driver (run() with
// DeliveryOptions::jump_empty_ticks) reproduces the lockstep tick loop on
// seeded small swarms — random timed links (delay, jitter, pacing, loss),
// refresh intervals, sampled and full-pool admission, flow control,
// failure detection, and crash/restart/stall/blackout/join fault plans.
// Every peer's completion tick, the final clock and the wire byte totals
// must agree. Two fixed cases pin boundary shapes the random draws found:
// a flash-crowd join at a tick the jump planner would otherwise overshoot,
// and the only origin-fed peer thawing from a stall between refreshes.
// Among the random draws, seeds 3 and 567 pin the teardown's retry-clock
// credit for a handshaking receiver whose last service a jump skipped.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/delivery.hpp"
#include "core/fault_plan.hpp"
#include "core/sharded_delivery.hpp"
#include "util/random.hpp"

namespace icd {
namespace {

struct SwarmCase {
  core::DeliveryOptions options;
  std::size_t peers = 4;
  std::size_t fed = 1;  // peers [0, fed) are origin-fed
  std::size_t content_bytes = 0;
  std::size_t horizon = 4000;
};

struct Outcome {
  std::vector<std::size_t> completion;
  std::size_t ticks = 0;
  bool finished = false;
  core::ShardedDelivery::LinkTotals totals;
};

Outcome drive(const SwarmCase& swarm, bool jump) {
  core::DeliveryOptions options = swarm.options;
  options.jump_empty_ticks = jump;
  util::Xoshiro256 rng(swarm.content_bytes);
  std::vector<std::uint8_t> content(swarm.content_bytes);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  core::ShardedDelivery service(content, options);
  for (std::size_t p = 0; p < swarm.peers; ++p) {
    service.add_peer("p" + std::to_string(p), p < swarm.fed);
  }
  Outcome out;
  out.finished = service.run(swarm.horizon);
  out.ticks = service.ticks();
  out.totals = service.link_totals();
  for (std::size_t p = 0; p < service.peer_count(); ++p) {
    out.completion.push_back(service.peer_completion_tick(p));
  }
  return out;
}

/// Empty when the two drivers agree; otherwise what differs.
std::string divergence(const SwarmCase& swarm) {
  const Outcome lockstep = drive(swarm, /*jump=*/false);
  const Outcome jumped = drive(swarm, /*jump=*/true);
  std::ostringstream diff;
  if (lockstep.completion != jumped.completion) {
    diff << "completion ticks (peer: lockstep/jump):";
    const std::size_t n =
        std::max(lockstep.completion.size(), jumped.completion.size());
    for (std::size_t p = 0; p < n; ++p) {
      const auto at = [p](const Outcome& o) {
        return p < o.completion.size() ? std::to_string(o.completion[p])
                                       : std::string("-");
      };
      diff << " " << p << ":" << at(lockstep) << "/" << at(jumped);
    }
    diff << ";";
  }
  if (lockstep.ticks != jumped.ticks ||
      lockstep.finished != jumped.finished) {
    diff << " clock " << lockstep.ticks << "/" << jumped.ticks
         << " finished " << lockstep.finished << "/" << jumped.finished
         << ";";
  }
  const auto& a = lockstep.totals;
  const auto& b = jumped.totals;
  if (a.control_bytes != b.control_bytes ||
      a.control_frames != b.control_frames || a.data_bytes != b.data_bytes ||
      a.data_frames != b.data_frames) {
    diff << " wire control " << a.control_bytes << "/" << b.control_bytes
         << " B in " << a.control_frames << "/" << b.control_frames
         << ", data " << a.data_bytes << "/" << b.data_bytes << " B in "
         << a.data_frames << "/" << b.data_frames << ";";
  }
  return diff.str();
}

std::uint64_t pick(util::Xoshiro256& rng, std::uint64_t lo,
                   std::uint64_t hi) {
  return lo + rng.next_below(hi - lo + 1);
}

/// One seeded random swarm. Small enough that the lockstep twin stays
/// cheap; timed enough that the jump planner opens real spans.
SwarmCase random_swarm(std::uint64_t seed) {
  util::Xoshiro256 rng(util::mix64(seed ^ 0xd1ffULL));
  SwarmCase swarm;
  core::DeliveryOptions& options = swarm.options;
  options.block_size = 64;
  options.session_seed = seed;
  swarm.peers = pick(rng, 3, 6);
  swarm.fed = pick(rng, 1, 2);
  swarm.content_bytes = 64 * pick(rng, 8, 30) - pick(rng, 0, 63);
  options.refresh_interval = pick(rng, 15, 70);
  options.flow_control = rng.next_below(4) != 0;
  options.max_peer_sessions = pick(rng, 1, 3);
  options.admission_sample = rng.next_below(2) == 0 ? 0 : pick(rng, 1, 3);
  options.strategy = overlay::kAllStrategies[rng.next_below(
      overlay::kAllStrategies.size())];

  wire::ChannelConfig& link = options.link;
  link.delay_ticks = pick(rng, 1, 5);
  link.jitter_ticks = rng.next_below(3) == 0 ? pick(rng, 1, 2) : 0;
  link.rate_bytes_per_tick =
      rng.next_below(3) == 0 ? 0.0 : static_cast<double>(pick(rng, 60, 1600));
  link.loss_rate = rng.next_below(3) == 0 ? 0.03 : 0.0;
  link.mtu = rng.next_below(4) == 0 ? 400 : 1500;
  options.handshake_retry_ticks =
      2 * (link.delay_ticks + link.jitter_ticks) + pick(rng, 4, 24);

  if (rng.next_below(2) == 0) {
    options.liveness_timeout_ticks = pick(rng, 12, 30);
    options.handshake_backoff_factor = pick(rng, 1, 2);
    options.handshake_backoff_cap_ticks = 64;
    options.max_handshake_retries = pick(rng, 3, 8);
    options.suspect_ttl_ticks = pick(rng, 0, 60);
  }

  auto plan = std::make_shared<core::FaultPlan>();
  const std::size_t faults = rng.next_below(5);
  for (std::size_t f = 0; f < faults; ++f) {
    const std::uint64_t at = pick(rng, 1, 250);
    const std::size_t peer = rng.next_below(swarm.peers);
    switch (rng.next_below(5)) {
      case 0:
        plan->crashes.push_back({at, peer});
        if (rng.next_below(3) != 0) {
          plan->restarts.push_back({at + pick(rng, 1, 120), peer});
        }
        break;
      case 1:
        plan->stalls.push_back({at, at + pick(rng, 1, 80), peer});
        break;
      case 2: {
        const std::size_t receiver =
            (peer + 1 + rng.next_below(swarm.peers - 1)) % swarm.peers;
        plan->blackouts.push_back({at, at + pick(rng, 1, 90), peer, receiver});
        break;
      }
      default:
        plan->joins.push_back({at, pick(rng, 1, 2), rng.next_below(3) == 0});
        break;
    }
  }
  if (!plan->empty()) options.faults = std::move(plan);
  return swarm;
}

TEST(JumpDifferential, RandomSwarmsMatchLockstep) {
  constexpr std::uint64_t kCases = 1500;
  std::size_t divergent = 0;
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    const std::string diff = divergence(random_swarm(seed));
    if (!diff.empty()) {
      ++divergent;
      ADD_FAILURE() << "seed " << seed << ": " << diff;
    }
  }
  EXPECT_EQ(divergent, 0u);
}

/// A flash-crowd join that lands on a planning tick: the jump must stop at
/// tick 130 and add the joiners there, exactly as the lockstep loop does.
TEST(JumpDifferential, JoinOnThePlanningTickIsNotOvershot) {
  SwarmCase swarm;
  swarm.peers = 4;
  swarm.fed = 1;
  swarm.content_bytes = 1472;
  core::DeliveryOptions& options = swarm.options;
  options.block_size = 64;
  options.refresh_interval = 51;
  options.flow_control = true;
  options.handshake_retry_ticks = 26;
  options.link.delay_ticks = 3;
  options.link.rate_bytes_per_tick = 1503;
  options.liveness_timeout_ticks = 25;
  options.max_peer_sessions = 3;
  options.admission_sample = 2;
  options.session_seed = 706;
  auto plan = std::make_shared<core::FaultPlan>();
  plan->joins.push_back({130, 2, /*origin_fed=*/true});
  options.faults = std::move(plan);
  EXPECT_EQ(divergence(swarm), "");
}

/// The only origin-fed peer stalls and thaws between refreshes: the thaw
/// tick must service every peer, not only the ones the planner marked due.
TEST(JumpDifferential, OnlyOriginFedPeerThawsBetweenRefreshes) {
  for (const std::uint64_t thaw : {61u, 72u, 83u}) {
    SwarmCase swarm;
    swarm.peers = 5;
    swarm.fed = 1;
    swarm.content_bytes = 1024;
    core::DeliveryOptions& options = swarm.options;
    options.block_size = 64;
    options.session_seed = 406;
    options.refresh_interval = 44;
    options.max_peer_sessions = 3;
    options.handshake_retry_ticks = 23;
    options.link.delay_ticks = 1;
    options.link.mtu = 400;
    auto plan = std::make_shared<core::FaultPlan>();
    plan->stalls.push_back({53, thaw, /*peer=*/0});
    options.faults = std::move(plan);
    EXPECT_EQ(divergence(swarm), "") << "thaw at " << thaw;
  }
}

}  // namespace
}  // namespace icd
