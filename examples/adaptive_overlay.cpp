// Adaptive overlay demo: the Section 2.1 environment end to end.
//
// Twelve peers download a file through an overlay that suffers 10% link
// loss and peer crashes (each crashed peer is replaced by an empty one),
// while peers join at staggered times. The run is repeated with overlay
// adaptation (periodic session refresh + sketch-based sender admission)
// switched off and on, printing completion ticks and control bytes for
// each variant. Every completed peer's content is checked against the
// source.
//
// Build & run:  ./examples/adaptive_overlay
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/delivery.hpp"
#include "core/fault_plan.hpp"
#include "core/sharded_delivery.hpp"
#include "util/random.hpp"

namespace {

using namespace icd;

constexpr std::size_t kPeers = 12;
constexpr std::size_t kOriginFed = 2;
constexpr std::size_t kJoinStagger = 15;
constexpr double kChurnRate = 0.002;
constexpr std::size_t kHorizon = 20000;

/// Peer i joins at tick i * kJoinStagger (peer 0 is added up front); each
/// tick, with probability kChurnRate, one joined peer crashes for good and
/// an empty replacement joins (origin-fed iff the victim was).
std::shared_ptr<const core::FaultPlan> membership_plan(std::uint64_t seed) {
  auto plan = std::make_shared<core::FaultPlan>();
  util::Xoshiro256 rng(seed);
  std::vector<std::size_t> live{0};
  std::vector<bool> origin_fed{true};
  // Joins take the next peer id in plan order; a peer can crash from the
  // tick after it joined.
  const auto join = [&](std::uint64_t t, bool fed) {
    plan->joins.push_back({t, 1, fed});
    origin_fed.push_back(fed);
    return origin_fed.size() - 1;
  };
  for (std::uint64_t t = 1; t <= kHorizon; ++t) {
    if (rng.next_bool(kChurnRate)) {
      const std::size_t slot = rng.next_below(live.size());
      plan->crashes.push_back({t, live[slot]});
      live[slot] = join(t, origin_fed[live[slot]]);
    }
    if (t % kJoinStagger == 0 && t / kJoinStagger < kPeers) {
      live.push_back(join(t, t / kJoinStagger < kOriginFed));
    }
  }
  return plan;
}

}  // namespace

int main() {
  util::Xoshiro256 rng(20260612);
  std::vector<std::uint8_t> content(400 * 64);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());

  core::DeliveryOptions base;
  base.block_size = 64;
  base.session_seed = 20260612;
  base.max_peer_sessions = 2;
  base.link.loss_rate = 0.10;
  base.liveness_timeout_ticks = 12;
  base.faults = membership_plan(20260612);

  std::printf("adaptive overlay: 12 peers, 10%% loss, churn, staggered "
              "joins, Recode/BF sessions\n\n");
  std::printf("%-28s %12s %14s %12s %10s\n", "configuration", "mean ticks",
              "last finisher", "ctrl bytes", "complete");

  struct Variant {
    const char* name;
    std::size_t refresh_interval;  // kHorizon = plan once, at tick 0
    bool sketch_admission;
  };
  const Variant variants[] = {
      {"static, random senders", kHorizon, false},
      {"adaptive, random senders", 25, false},
      {"adaptive, sketch admission", 25, true},
  };
  bool bytes_ok = true;
  for (const auto& variant : variants) {
    auto options = base;
    options.refresh_interval = variant.refresh_interval;
    if (!variant.sketch_admission) {
      // Sample as many candidates as there are session slots and admit
      // them all: a seeded uniform choice of senders.
      options.admission_sample = options.max_peer_sessions;
      options.admission = core::AdmissionPolicy{1.0, 0.0};
    }
    core::ShardedDelivery service(content, options);
    service.add_peer("p0", /*subscribe_origin=*/true);
    // Ticks until every live peer (all staggered joiners included) holds
    // the content. Not run(): it also waits for scheduled joins, and the
    // churn plan schedules replacements up to the horizon.
    while (service.ticks() < kHorizon &&
           (service.ticks() < (kPeers - 1) * kJoinStagger ||
            !service.all_live_complete())) {
      service.tick();
    }

    std::size_t live = 0, complete = 0, last = 0;
    double total = 0.0;
    for (std::size_t id = 0; id < service.peer_count(); ++id) {
      if (service.peer_down(id)) continue;
      ++live;
      if (!service.peer_complete(id)) continue;
      ++complete;
      const std::size_t tick = service.peer_completion_tick(id);
      total += static_cast<double>(tick);
      last = std::max(last, tick);
      bytes_ok &= service.peer_content(id) == content;
    }
    std::printf("%-28s %12.1f %14zu %12zu %7zu/%zu\n", variant.name,
                complete == 0 ? 0.0 : total / static_cast<double>(complete),
                complete == live ? last : 0,
                service.link_totals().control_bytes, complete, live);
  }

  if (!bytes_ok) {
    std::printf("\nFAIL: a completed peer's content differs from the source\n");
    return 1;
  }
  std::printf("\na static overlay strands the peers that join after its "
              "one plan; refreshing sessions serves every live peer.\n");
  return 0;
}
