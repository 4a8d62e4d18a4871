// Adaptive overlay experiments (the Section 2.1 claims, quantified):
//   B1  sketch-based admission control vs random sender selection
//   B2  loss tolerance: completion time vs per-link loss rate
//   B3  churn tolerance: completion under peer crashes with empty
//       replacements
//   B4  value of adaptation: completion vs refresh interval
// Every run is core::ShardedDelivery at shards = 1 with Recode/BF
// sessions: 12 peers (the first 2 origin-fed), 2 download sessions each,
// 400 blocks of 64 B, three seeds per point. Every completed peer's
// reconstructed bytes are compared with the source; a mismatch fails the
// bench (exit 1).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "core/delivery.hpp"
#include "core/fault_plan.hpp"
#include "core/sharded_delivery.hpp"
#include "util/random.hpp"

namespace {

using namespace icd;

constexpr std::size_t kPeers = 12;
constexpr std::size_t kOriginFed = 2;
constexpr std::size_t kBlocks = 400;
constexpr std::size_t kBlockSize = 64;
constexpr std::size_t kHorizon = 60000;
/// Churn lasts through tick 1000, about the clean run's last completion;
/// after that the survivors must finish on a quiet overlay.
constexpr std::size_t kChurnTicks = 1000;
constexpr std::uint64_t kSeeds[] = {77001, 77002, 77003};

core::DeliveryOptions base_options(std::uint64_t seed) {
  core::DeliveryOptions options;
  options.block_size = kBlockSize;
  options.session_seed = seed;
  options.max_peer_sessions = 2;
  options.refresh_interval = 25;
  return options;
}

/// Random sender selection through the existing admission knobs: sample
/// exactly as many candidates as there are session slots and admit every
/// one of them, so the chosen senders are a seeded uniform draw.
void select_senders_at_random(core::DeliveryOptions& options) {
  options.admission_sample = options.max_peer_sessions;
  options.admission = core::AdmissionPolicy{/*max_resemblance=*/1.0,
                                            /*min_novelty=*/0.0};
}

/// Churn: each tick up to kChurnTicks, with probability `rate`, one live
/// peer crashes for good and a fresh, empty peer joins in its place
/// (origin-fed iff the victim was), so the population stays at kPeers.
std::shared_ptr<const core::FaultPlan> churn_plan(double rate,
                                                  std::uint64_t seed) {
  auto plan = std::make_shared<core::FaultPlan>();
  util::Xoshiro256 rng(seed ^ 0xc4u);
  std::vector<std::size_t> live(kPeers);
  std::iota(live.begin(), live.end(), 0);
  std::vector<bool> origin_fed(kPeers, false);
  for (std::size_t i = 0; i < kOriginFed; ++i) origin_fed[i] = true;
  for (std::uint64_t t = 1; t <= kChurnTicks; ++t) {
    if (!rng.next_bool(rate)) continue;
    const std::size_t slot = rng.next_below(live.size());
    const bool fed = origin_fed[live[slot]];
    plan->crashes.push_back({t, live[slot]});
    plan->joins.push_back({t, 1, fed});
    live[slot] = origin_fed.size();  // joiners take the next peer id
    origin_fed.push_back(fed);
  }
  return plan;
}

struct Outcome {
  std::size_t peers = 0;     // live at the end (survivors)
  std::size_t complete = 0;  // survivors holding the content
  double completion_sum = 0.0;
  std::size_t last = 0;      // last survivor completion (0 = not all)
  std::size_t control_bytes = 0;
  bool bytes_ok = true;
};

/// Drives one run until every live peer holds the content (churn still
/// scheduled after that never fires) or kHorizon.
Outcome run_overlay(const core::DeliveryOptions& options) {
  util::Xoshiro256 rng(options.session_seed);
  std::vector<std::uint8_t> content(kBlocks * kBlockSize);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());

  core::ShardedDelivery service(content, options);
  for (std::size_t p = 0; p < kPeers; ++p) {
    service.add_peer("peer", p < kOriginFed);
  }
  const auto all_live_complete = [&service] {
    for (std::size_t id = 0; id < service.peer_count(); ++id) {
      if (!service.peer_down(id) && !service.peer_complete(id)) return false;
    }
    return true;
  };
  while (service.ticks() < kHorizon && !all_live_complete()) service.tick();

  Outcome outcome;
  std::size_t last = 0;
  for (std::size_t id = 0; id < service.peer_count(); ++id) {
    if (service.peer_down(id)) continue;
    ++outcome.peers;
    if (!service.peer_complete(id)) continue;
    ++outcome.complete;
    const std::size_t tick = service.peer_completion_tick(id);
    outcome.completion_sum += static_cast<double>(tick);
    last = std::max(last, tick);
    outcome.bytes_ok &= service.peer_content(id) == content;
  }
  outcome.last = outcome.complete == outcome.peers ? last : 0;
  outcome.control_bytes = service.link_totals().control_bytes;
  return outcome;
}

bool g_bytes_ok = true;

void sweep(const char* title, const char* xlabel,
           const std::vector<double>& xs,
           const std::function<void(core::DeliveryOptions&, double,
                                    std::uint64_t)>& mutate) {
  std::printf("\n=== %s ===\n", title);
  std::printf("%12s %14s %14s %14s %10s\n", xlabel, "mean ticks",
              "last finisher", "ctrl bytes", "complete");
  for (const double x : xs) {
    double mean = 0, last = 0, control = 0;
    std::size_t complete = 0, peers = 0;
    for (const std::uint64_t seed : kSeeds) {
      auto options = base_options(seed);
      mutate(options, x, seed);
      const Outcome outcome = run_overlay(options);
      if (outcome.complete > 0) {
        mean += outcome.completion_sum / static_cast<double>(outcome.complete);
      }
      last += static_cast<double>(outcome.last);
      control += static_cast<double>(outcome.control_bytes);
      complete += outcome.complete;
      peers += outcome.peers;
      g_bytes_ok &= outcome.bytes_ok;
    }
    const double runs = static_cast<double>(std::size(kSeeds));
    std::printf("%12.3f %14.1f %14.1f %14.1f %7zu/%zu\n", x,
                mean / runs, last / runs, control / runs, complete, peers);
  }
}

}  // namespace

int main() {
  // B1: x = 0 random sender selection, 1 sketch-based admission (default).
  sweep("B1: sketch admission control vs random sender selection",
        "admission", {0.0, 1.0},
        [](core::DeliveryOptions& options, double x, std::uint64_t) {
          if (x < 0.5) select_senders_at_random(options);
        });

  // B2: loss tolerance.
  sweep("B2: completion vs per-link loss rate (Recode/BF overlay)", "loss",
        {0.0, 0.05, 0.1, 0.2, 0.3, 0.4},
        [](core::DeliveryOptions& options, double x, std::uint64_t) {
          options.link.loss_rate = x;
        });

  // B3: churn tolerance; survivors only (crashed peers never come back).
  sweep("B3: completion vs churn rate (crash + empty replacement, ticks "
        "1-1000)",
        "churn/tick", {0.0, 0.005, 0.01, 0.02},
        [](core::DeliveryOptions& options, double x, std::uint64_t seed) {
          if (x <= 0.0) return;
          options.faults = churn_plan(x, seed);
          options.liveness_timeout_ticks = 12;
        });

  // B4: refresh interval; 0 = never refresh after the first plan (an
  // interval at the horizon: the engine reads 0 as every tick).
  sweep("B4: completion vs refresh interval (0 = never)", "interval",
        {0.0, 10.0, 25.0, 50.0, 100.0, 400.0},
        [](core::DeliveryOptions& options, double x, std::uint64_t) {
          options.refresh_interval =
              x <= 0.0 ? kHorizon : static_cast<std::size_t>(x);
        });

  if (!g_bytes_ok) {
    std::printf("\nFAIL: a completed peer's content differs from the source\n");
    return 1;
  }
  std::printf("\nevery completed peer's content matches the source\n");
  return 0;
}
