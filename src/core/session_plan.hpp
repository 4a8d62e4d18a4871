#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/admission.hpp"
#include "core/endpoint.hpp"
#include "wire/channel.hpp"

/// Session planning for the delivery engine: the admission ranking,
/// starvation fallback, request sizing and the seed-chain evolution, kept
/// apart from the engine's link and endpoint plumbing. Every refresh runs
/// run_refresh_loop, whose per-peer order fixes the seed sequence — and
/// with it the sessions the golden trajectories (tests/golden/) pin.
namespace icd::core {

struct DeliveryOptions;

/// One peer's view for planning: its sketch and working-set size.
struct PlanPeer {
  const sketch::MinwiseSketch* sketch = nullptr;
  std::size_t symbol_count = 0;
  /// False when the peer may not serve right now — crashed, stalled, or
  /// under liveness suspicion (see core::FaultTracker). Unavailable peers
  /// are skipped as candidates but still plan their own downloads.
  bool available = true;
};

/// One download the plan tells the engine to create.
struct PlannedDownload {
  std::size_t sender_id = 0;
  SessionOptions session;
  wire::ChannelConfig link;
};

/// Plans receiver `me`'s downloads: admission-ranked senders (with the
/// largest-candidate starvation fallback), per-sender requested-symbol
/// shares toward `target_symbols`, and one session seed plus link config
/// per download drawn from `session_seed_chain`, which this call advances
/// once per planned download.
std::vector<PlannedDownload> plan_peer_downloads(
    std::size_t me, const std::vector<PlanPeer>& peers,
    const DeliveryOptions& options, std::size_t target_symbols,
    std::uint64_t& session_seed_chain);

/// The degree distribution the delivery engine gives its origins and
/// peers for a piece of content.
codec::DegreeDistribution delivery_distribution(std::size_t content_size,
                                                std::size_t block_size);

/// Longest-processing-time assignment of per-peer costs to `shards` bins:
/// peers in descending cost (id ascending on ties) each go to the
/// currently lightest bin (lowest index on ties). Deterministic — the
/// sharded engine's cost rebalance and its tests both call this.
std::vector<std::size_t> balance_by_cost(
    const std::vector<std::uint64_t>& cost, std::size_t shards);

/// The full refresh loop: per peer in ascending order — teardown, skip if
/// complete, plan against the pool, create. The pool is snapshot once per
/// refresh; a peer's entry is re-read after its own teardown, the only
/// call that can change it (its teardown tick may grow its working set),
/// so each receiver sees every earlier peer's post-teardown state. Teardown
/// and create are the engine's (they own the link/endpoint types);
/// everything that orders the seed chain lives here. Runs once per
/// refresh_interval ticks.
void run_refresh_loop(
    std::size_t peer_count, const DeliveryOptions& options,
    std::size_t target_symbols, std::uint64_t& session_seed_chain,
    const std::function<void(std::size_t)>& teardown,
    const std::function<bool(std::size_t)>& is_complete,
    const std::function<PlanPeer(std::size_t)>& snapshot,
    const std::function<void(std::size_t, PlannedDownload&)>& create);

}  // namespace icd::core
