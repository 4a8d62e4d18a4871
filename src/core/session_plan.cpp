#include "core/session_plan.hpp"

#include <algorithm>

#include "core/delivery.hpp"
#include "util/hash.hpp"

namespace icd::core {

namespace {

/// Sketch of a ranked candidate id: ranked ids come out of
/// select_senders over `candidates`, so a linear find by id always hits
/// (the candidate lists here are admission pools — small by construction
/// in sampled mode, and only walked once per chosen member otherwise).
const sketch::MinwiseSketch* candidate_sketch(
    const std::vector<CandidateSender>& candidates, std::size_t id) {
  for (const CandidateSender& candidate : candidates) {
    if (candidate.id == id) return candidate.sketch;
  }
  return nullptr;
}

/// Overlap-aware narrowing of an admission-ranked pool to a session cap:
/// anchor at the top-ranked (most novel) candidate, then repeatedly add
/// the candidate whose inclusion keeps estimate_group_overlap of the
/// chosen group smallest, ranking order breaking exact ties. The sketches
/// admission already fetched are all this needs — the group-overlap
/// estimator works on coordinate-wise minima alone.
std::vector<std::size_t> pick_complementary_group(
    const std::vector<CandidateSender>& candidates,
    const std::vector<std::size_t>& ranked, std::size_t max_sessions) {
  if (ranked.size() <= max_sessions) return ranked;
  std::vector<std::size_t> chosen{ranked.front()};
  std::vector<const sketch::MinwiseSketch*> sketches{
      candidate_sketch(candidates, ranked.front())};
  std::vector<std::size_t> remaining(ranked.begin() + 1, ranked.end());
  while (chosen.size() < max_sessions && !remaining.empty()) {
    std::size_t best = 0;
    double best_overlap = 2.0;  // overlap estimates live in [0, 1]
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      sketches.push_back(candidate_sketch(candidates, remaining[i]));
      const double overlap = estimate_group_overlap(sketches);
      sketches.pop_back();
      if (overlap < best_overlap) {
        best_overlap = overlap;
        best = i;
      }
    }
    chosen.push_back(remaining[best]);
    sketches.push_back(candidate_sketch(candidates, remaining[best]));
    remaining.erase(remaining.begin() +
                    static_cast<std::ptrdiff_t>(best));
  }
  return chosen;
}

/// The candidate-based planning core: everything plan_peer_downloads did
/// after building its candidate pool, so the sampled-admission path can
/// feed a bounded pool through identical ranking/relaxation/sizing logic.
std::vector<PlannedDownload> plan_from_candidates(
    std::size_t me, const PlanPeer& self,
    const std::vector<CandidateSender>& candidates,
    const DeliveryOptions& options, std::size_t target_symbols,
    std::uint64_t& session_seed_chain) {
  const std::size_t have = self.symbol_count;
  const std::size_t needed =
      target_symbols > have ? target_symbols - have : 1;
  // Overlap-aware mode admits the whole pool (ranked), then narrows to the
  // cap by group complementarity below; a cap of zero still means zero.
  const std::size_t admit_cap =
      options.overlap_aware_selection && options.max_peer_sessions > 0
          ? candidates.size()
          : options.max_peer_sessions;
  auto selected = select_senders(*self.sketch, self.symbol_count,
                                 candidates, options.admission, admit_cap);
  // Starvation relaxation: admission exists to skip identical-content
  // senders, but near the end of a download every candidate looks
  // near-identical (resemblance above the cutoff) while still holding
  // the few novel symbols the peer needs to finish. Instead of blindly
  // connecting to the largest candidate, re-run admission under a policy
  // whose resemblance cutoff relaxes in proportion to the shrinking
  // remaining need — near-complete peers stay served, ranked by novelty,
  // while a peer that still needs most of the content keeps the strict
  // cutoff and admits no useless (genuinely identical) senders. The
  // largest candidate survives only as the last-resort fallback when even
  // the relaxed policy admits nobody (noisy sketch estimates), and never
  // when peer sessions are disabled outright (max_peer_sessions 0).
  if (selected.empty() && !candidates.empty() &&
      options.max_peer_sessions > 0) {
    selected = select_senders(
        *self.sketch, self.symbol_count, candidates,
        relax_policy_for_need(options.admission, needed, target_symbols),
        admit_cap);
  }
  if (selected.empty() && !candidates.empty() &&
      options.max_peer_sessions > 0) {
    const auto best = std::max_element(
        candidates.begin(), candidates.end(),
        [](const CandidateSender& a, const CandidateSender& b) {
          return a.working_set_size < b.working_set_size;
        });
    selected.push_back(best->id);
  }
  if (options.overlap_aware_selection &&
      selected.size() > options.max_peer_sessions) {
    selected = pick_complementary_group(candidates, selected,
                                        options.max_peer_sessions);
  }
  std::vector<PlannedDownload> plan;
  plan.reserve(selected.size());
  for (const std::size_t j : selected) {
    PlannedDownload download;
    download.sender_id = j;
    download.session.strategy = options.strategy;
    download.session.flow_control = options.flow_control;
    download.session.handshake_retry_ticks = options.handshake_retry_ticks;
    download.session.handshake_backoff_factor =
        options.handshake_backoff_factor;
    download.session.handshake_backoff_cap_ticks =
        options.handshake_backoff_cap_ticks;
    download.session.max_handshake_retries = options.max_handshake_retries;
    download.session.liveness_timeout_ticks = options.liveness_timeout_ticks;
    download.session.requested_symbols = std::max<std::size_t>(
        1, (needed * 5 / 4) / std::max<std::size_t>(1, selected.size()));
    download.session.seed = session_seed_chain =
        util::mix64(session_seed_chain);
    download.link = wire::resolve_edge_config(
        options.link_config, options.link, j, me,
        util::mix64(session_seed_chain ^ 0x11aacULL));
    plan.push_back(std::move(download));
  }
  return plan;
}

}  // namespace

std::vector<PlannedDownload> plan_peer_downloads(
    std::size_t me, const std::vector<PlanPeer>& peers,
    const DeliveryOptions& options, std::size_t target_symbols,
    std::uint64_t& session_seed_chain) {
  std::vector<CandidateSender> candidates;
  for (std::size_t j = 0; j < peers.size(); ++j) {
    if (j == me || peers[j].symbol_count == 0 || !peers[j].available) {
      continue;
    }
    candidates.push_back(
        CandidateSender{j, peers[j].sketch, peers[j].symbol_count});
  }
  return plan_from_candidates(me, peers[me], candidates, options,
                              target_symbols, session_seed_chain);
}

std::vector<std::size_t> balance_by_cost(
    const std::vector<std::uint64_t>& cost, std::size_t shards) {
  std::vector<std::size_t> assignment(cost.size(), 0);
  if (shards <= 1) return assignment;
  // Longest-processing-time: heaviest peers first (id ascending on ties,
  // so the result is deterministic), each onto the currently least-loaded
  // shard (lowest index on ties).
  std::vector<std::size_t> order(cost.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&cost](std::size_t a, std::size_t b) {
              if (cost[a] != cost[b]) return cost[a] > cost[b];
              return a < b;
            });
  std::vector<std::uint64_t> load(shards, 0);
  for (const std::size_t id : order) {
    std::size_t lightest = 0;
    for (std::size_t s = 1; s < shards; ++s) {
      if (load[s] < load[lightest]) lightest = s;
    }
    assignment[id] = lightest;
    load[lightest] += cost[id];
  }
  return assignment;
}

void run_refresh_loop(
    std::size_t peer_count, const DeliveryOptions& options,
    std::size_t target_symbols, std::uint64_t& session_seed_chain,
    const std::function<void(std::size_t)>& teardown,
    const std::function<bool(std::size_t)>& is_complete,
    const std::function<PlanPeer(std::size_t)>& snapshot,
    const std::function<void(std::size_t, PlannedDownload&)>& create) {
  if (options.admission_sample > 0) {
    // Sampled admission (massive swarms): tear every session down first,
    // snapshot the swarm once, and rank each receiver against a bounded
    // random candidate sample instead of the full pool — one refresh
    // costs O(n * sample) sketch comparisons instead of O(n^2). The
    // candidate draws come from a stream forked off the seed chain
    // without advancing it, so the chain still evolves only per planned
    // download (as in the historical path) and the whole refresh remains
    // a deterministic function of (swarm state, chain value).
    for (std::size_t me = 0; me < peer_count; ++me) teardown(me);
    std::vector<PlanPeer> plan_peers;
    plan_peers.reserve(peer_count);
    for (std::size_t j = 0; j < peer_count; ++j) {
      plan_peers.push_back(snapshot(j));
    }
    std::vector<std::size_t> eligible;
    for (std::size_t j = 0; j < peer_count; ++j) {
      if (plan_peers[j].symbol_count > 0 && plan_peers[j].available) {
        eligible.push_back(j);
      }
    }
    std::vector<CandidateSender> candidates;
    std::vector<char> drawn(peer_count, 0);
    for (std::size_t me = 0; me < peer_count; ++me) {
      if (is_complete(me)) continue;
      const bool self_eligible =
          std::binary_search(eligible.begin(), eligible.end(), me);
      const std::size_t pool =
          eligible.size() - static_cast<std::size_t>(self_eligible);
      if (pool == 0) continue;
      const std::size_t want = std::min(options.admission_sample, pool);
      std::uint64_t draw = util::mix64(
          session_seed_chain ^ (0x5ca1ab1eULL + me * 0x9e3779b97f4a7c15ULL));
      candidates.clear();
      // Rejection-sample `want` distinct candidates; the attempt cap only
      // matters when want is close to the pool size, where a rare
      // undershoot just means a slightly smaller (still ranked) pool.
      std::size_t attempts = 0;
      const std::size_t max_attempts = 64 + 16 * want;
      while (candidates.size() < want && attempts < max_attempts) {
        ++attempts;
        draw = util::mix64(draw);
        const std::size_t j = eligible[draw % eligible.size()];
        if (j == me || drawn[j]) continue;
        drawn[j] = 1;
        candidates.push_back(
            CandidateSender{j, plan_peers[j].sketch,
                            plan_peers[j].symbol_count});
      }
      for (const CandidateSender& candidate : candidates) {
        drawn[candidate.id] = 0;
      }
      for (PlannedDownload& planned :
           plan_from_candidates(me, plan_peers[me], candidates, options,
                                target_symbols, session_seed_chain)) {
        create(me, planned);
      }
    }
    return;
  }
  // Full pool: one snapshot for the whole refresh. teardown(me) drains
  // only me's own downloads, so it can change me's entry and no other:
  // re-reading me after its teardown gives every receiver exactly the
  // view a per-receiver snapshot would.
  std::vector<PlanPeer> plan_peers;
  plan_peers.reserve(peer_count);
  for (std::size_t j = 0; j < peer_count; ++j) {
    plan_peers.push_back(snapshot(j));
  }
  for (std::size_t me = 0; me < peer_count; ++me) {
    teardown(me);
    plan_peers[me] = snapshot(me);
    if (is_complete(me)) continue;
    for (PlannedDownload& planned : plan_peer_downloads(
             me, plan_peers, options, target_symbols, session_seed_chain)) {
      create(me, planned);
    }
  }
}

codec::DegreeDistribution delivery_distribution(std::size_t content_size,
                                                std::size_t block_size) {
  const std::size_t blocks = std::max<std::size_t>(
      1, (content_size + block_size - 1) / block_size);
  return codec::DegreeDistribution::robust_soliton(
      std::max<std::size_t>(blocks, 2));
}

}  // namespace icd::core
