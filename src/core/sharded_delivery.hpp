#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/delivery.hpp"
#include "core/endpoint.hpp"
#include "core/event_loop.hpp"
#include "core/fault_plan.hpp"
#include "core/origin.hpp"
#include "core/peer.hpp"
#include "util/shard_pool.hpp"
#include "wire/shard_link.hpp"
#include "wire/transport.hpp"

/// ShardedDelivery: the delivery engine, optionally partitioned across
/// worker shards.
///
/// It is the application-level entry point: one piece of content, any
/// number of origin mirrors, and a registry of peers whose downloads each
/// tick advances by one round (see core/delivery.hpp for the options).
///
/// With shards = 1 (the default) everything runs inline on the caller's
/// thread, in ascending peer order: each peer applies its origin symbol
/// and services its downloads end to end over local ChannelLinks. That
/// trajectory — per-peer completion ticks, symbol counts, failure
/// diagnostics and wire byte accounting — is pinned bit for bit by the
/// committed golden files under tests/golden/, for the lockstep tick()
/// driver and the event-loop run() driver alike.
///
/// With shards >= 2, peers are assigned to shards by id (round-robin);
/// each shard owns its peers' decoders, endpoints and the links whose two
/// peers it both owns, so the per-tick hot work — recoding, XOR-heavy decoding, frame
/// encode/decode — runs on all shards concurrently. Downloads whose sender
/// and receiver live on different shards ride a wire::ShardLink: the only
/// state two shards ever share is SPSC rings of encoded frames (and
/// recycled buffers), exactly the "shards only exchange frames" property
/// the endpoint layering was built for.
///
/// A multi-shard tick is two phases with barriers between them (see
/// DESIGN.md, "Threading model"):
///   send phase     — each shard runs the sender halves of its local
///                    downloads and of the cross-shard downloads its peers
///                    serve, reading swarm state only;
///   receive phase  — each shard applies its peers' origin symbols and
///                    runs the receiver halves of their downloads.
/// Admission/refresh and origin symbol draws stay single-threaded on the
/// coordinator between phases, where they may touch any shard's state.
///
/// Determinism: no shared RNG and a fixed per-peer order, so a run is
/// reproducible for a given shard count; a multi-shard trajectory differs
/// from the shards = 1 one, and its jump and lockstep drivers agree bit
/// for bit (enforced by sharded_test and scheduler_test).
///
/// `batch_budget` > 0 turns on per-tick control-frame batching on every
/// link (wire::Transport::set_batch_budget), with the engine flushing each
/// endpoint's train at its tick boundary.
namespace icd::core {

struct ShardOptions {
  /// Worker shards. 1 = run inline on the caller's thread (the trajectory
  /// the golden files pin).
  std::size_t shards = 1;
  /// Control-frame batching budget in bytes per train (0 = off). Applied
  /// to every download link's two transports.
  std::size_t batch_budget = 0;
  /// Cost-balanced peer placement: every `rebalance_epochs` refreshes the
  /// coordinator reassigns peers to shards by measured per-peer work
  /// (longest-processing-time over deterministic work units) instead of
  /// the admission-time id % shards placement. 0 = off (historical).
  /// Placement is semantics-free — a download behaves identically over a
  /// local ChannelLink and a cross-shard ShardLink — and the rebalance
  /// runs at a refresh (itself a planning barrier, with every download
  /// torn down), so per-peer results are bit-for-bit unchanged; only
  /// which thread does the work moves.
  std::size_t rebalance_epochs = 0;
};

class ShardedDelivery {
 public:
  /// Aggregate wire-level stats over download links.
  struct LinkTotals {
    std::size_t control_bytes = 0;
    std::size_t control_frames = 0;
    std::size_t data_bytes = 0;
    std::size_t data_frames = 0;
    /// Frames the transports refused to carry (MTU too small to fit even
    /// one fragment). Nonzero while nothing completes means the link
    /// config, not the protocol, is blocking delivery.
    std::size_t frames_refused = 0;

    LinkTotals& operator+=(const LinkTotals& other) {
      control_bytes += other.control_bytes;
      control_frames += other.control_frames;
      data_bytes += other.data_bytes;
      data_frames += other.data_frames;
      frames_refused += other.frames_refused;
      return *this;
    }

    /// Banks one transport's send-side counters: the single place the
    /// TransportStats -> LinkTotals field mapping lives.
    LinkTotals& add(const wire::TransportStats& stats) {
      control_bytes += stats.control_bytes_sent;
      control_frames += stats.control_frames_sent;
      data_bytes += stats.data_bytes_sent;
      data_frames += stats.data_frames_sent;
      frames_refused += stats.frames_refused;
      return *this;
    }
  };

  ShardedDelivery(std::vector<std::uint8_t> content, DeliveryOptions options,
                  ShardOptions shard_options = {});

  /// Adds another full mirror with an uncorrelated symbol stream.
  void add_mirror();
  /// Registers a new peer; `subscribe_origin` connects it to a round-robin
  /// origin feed (one symbol per tick). Returns the peer's id.
  std::size_t add_peer(const std::string& name, bool subscribe_origin);

  /// Advances the whole service by one round: fault application, a
  /// refresh when due, then every download (inline at shards = 1; send
  /// phase, barrier, receive phase otherwise), the failure sweep and the
  /// completion stamps.
  void tick();
  /// Drives the service for up to `max_ticks` virtual ticks, jumping
  /// empty tick spans when DeliveryOptions::jump_empty_ticks is set.
  /// Returns true if everyone finished (see all_live_complete).
  bool run(std::size_t max_ticks);
  /// Event-loop driver: advances until every live peer holds the content
  /// (and no flash-crowd join is still pending) or the virtual clock
  /// reaches `deadline`, executing only ticks at which an event (refresh,
  /// origin feed, frame arrival, send credit, handshake retry, fault
  /// boundary) can occur. Sharded ticks barrier only at event times — the
  /// jump happens on the coordinator between pool runs, where it owns all
  /// state. Returns true when everyone finished.
  bool run_until(std::uint64_t deadline);
  /// Every peer holds the content, except peers that crashed for good
  /// (down now, no restart scheduled): those can never finish. Stalled
  /// peers and peers with a pending restart still count.
  bool all_live_complete() const;

  std::size_t peer_count() const { return peers_.size(); }
  const Peer& peer(std::size_t id) const { return *peers_.at(id).peer; }
  bool peer_complete(std::size_t id) const {
    return peers_.at(id).peer->has_content();
  }
  /// Virtual tick at which the peer first held the content (the ticks()
  /// value observed right after the completing tick); 0 = not yet.
  std::size_t peer_completion_tick(std::size_t id) const {
    return peers_.at(id).completed_tick;
  }
  /// Reconstructed content for a finished peer.
  std::vector<std::uint8_t> peer_content(std::size_t id) const;

  /// Per-receiver session outcome: completion plus every download session
  /// the engine abandoned for this receiver (liveness timeout, handshake
  /// retry exhaustion) — the "my sender died" diagnostic surface.
  SessionResult session_result(std::size_t id) const {
    const PeerEntry& entry = peers_.at(id);
    return SessionResult{entry.peer->has_content(), entry.completed_tick,
                         entry.failed_peers, entry.peer->memory_bytes(),
                         entry.peer->decoder_stats()};
  }
  /// Whether the peer is currently down (crashed or stalled) under the
  /// fault plan.
  bool peer_down(std::size_t id) const { return faults_.down(id, ticks_); }

  std::size_t ticks() const { return ticks_; }
  /// Scheduler-ordered link services executed across all shards (timed
  /// service path pops). Coordinator-only, between ticks.
  std::uint64_t events_processed() const;
  /// Virtual ticks run_until() jumped over without executing.
  std::uint64_t ticks_skipped() const { return loop_.ticks_skipped(); }
  const codec::CodeParameters& parameters() const {
    return origins_.front()->parameters();
  }
  std::size_t shards() const { return shards_; }
  /// Current shard owning `peer_id`. Admission places id % shards; a
  /// cost rebalance (ShardOptions::rebalance_epochs) may move it.
  std::size_t shard_of(std::size_t peer_id) const {
    return shard_assignment_[peer_id];
  }

  /// Stats over currently active links only; resets to near zero after
  /// every refresh_interval teardown. May be called between ticks only
  /// (the coordinator thread owns all state while the workers are parked).
  LinkTotals active_link_totals() const;
  /// Cumulative wire-level stats over the whole delivery: links retired
  /// by session refreshes plus the currently active ones.
  LinkTotals link_totals() const;

  /// Per-peer memory audit across decoders, endpoints and links (scale
  /// budget). Coordinator-only, between ticks.
  MemoryAudit memory_audit() const;
  /// Incremental planning-queue counters (run_until's jump planner).
  const PlanningQueue::Stats& planner_stats() const {
    return planner_.stats();
  }
  /// Deterministic per-shard service cost: the sum of the owned peers'
  /// accumulated work units (halved at each rebalance so stale history
  /// decays). The rebalance input, exposed for tests/benches; unlike
  /// busy_ns it is identical across runs and machines.
  std::vector<std::uint64_t> shard_cost_units() const;

  /// Cumulative per-shard worker thread-CPU nanoseconds (empty when
  /// shards = 1 runs inline) and wall time spent inside the parallel
  /// phases — bench_delivery's critical-path scaling model.
  std::vector<std::uint64_t> shard_busy_ns() const;
  std::uint64_t parallel_wall_ns() const { return parallel_wall_ns_; }

 private:
  /// One admitted download. Exactly one of `local` (both peers on the same
  /// shard: a ChannelLink; always, at shards = 1) and `cross` (a
  /// thread-crossing ShardLink) is set; the sender endpoint always drives
  /// the link's `a()` end.
  struct Download {
    std::size_t sender_id = 0;
    std::size_t receiver_id = 0;
    std::unique_ptr<wire::ChannelLink> local;
    std::unique_ptr<wire::ShardLink> cross;
    std::optional<SenderEndpoint> sender;
    std::optional<ReceiverEndpoint> receiver;

    wire::Transport& sender_transport() {
      return local ? local->a() : cross->a();
    }
    wire::Transport& receiver_transport() {
      return local ? local->b() : cross->b();
    }
    void flush_link() {
      if (local) {
        local->flush();
      } else {
        cross->flush();
      }
    }
  };

  struct PeerEntry {
    std::unique_ptr<Peer> peer;
    bool origin_fed = false;
    std::size_t origin_index = 0;
    /// Active downloads, keyed by the serving peer id.
    std::map<std::size_t, std::unique_ptr<Download>> downloads;
    /// Origin symbol id reserved by the coordinator this tick; the owning
    /// shard runs the (pure, const) encode when it services the peer, so
    /// the XOR-heavy origin encoding parallelizes across the pool while
    /// the id sequence — and thus the symbol-to-peer assignment — stays
    /// the coordinator's deterministic draw order.
    std::optional<std::uint64_t> pending_origin_id;
    /// Deterministic service-cost accumulator (rebalance input): bumped by
    /// the owning shard only — local service 2, cross receive 1, cross
    /// send 1 (charged to the sender), origin apply 1.
    std::uint64_t work_units = 0;
    /// Snapshot the phases read instead of cross-shard peer state.
    bool complete_at_tick_start = false;
    /// Down (crashed or stalled) under the fault plan this tick — written
    /// by the coordinator prologue, read by the phase workers (the pool
    /// barrier orders the handoff).
    bool faulted_at_tick_start = false;
    /// Virtual tick of first completion (0 = incomplete).
    std::size_t completed_tick = 0;
    /// Download sessions abandoned for this receiver (diagnostics).
    std::vector<FailedPeer> failed_peers;
  };

  struct ShardWork {
    /// Owned peer ids, ascending.
    std::vector<std::size_t> peers;
    /// Cross-shard downloads whose *sender* this shard owns, in
    /// (receiver_id, sender_id) order. Rebuilt each refresh.
    std::vector<Download*> cross_senders;
    /// Per-shard service ordering for local downloads (shard-local: each
    /// worker thread touches only its own event queue).
    EventLoop scheduler;
  };

  void refresh_sessions();
  void release_pool_owners();
  /// Rebuilds the per-shard cross-sender worklists from the live download
  /// maps — required after any teardown that may have erased a cross
  /// download (refresh, crash, failure sweep), or the lists dangle.
  void rebuild_cross_senders();
  /// Top-of-tick fault application on the coordinator: due crashes tear
  /// the crashed peer's own downloads down (banking wire costs; its
  /// decoded content survives for rejoin), due joins add fresh peers.
  void apply_faults(std::uint64_t now);
  /// End-of-tick sweep on the coordinator (workers parked): downloads
  /// whose receiver flagged its sender suspect (liveness) or exhausted its
  /// retry budget are torn down, recorded in failed_peers, and the sender
  /// marked suspect for admission. Runs only when liveness/retry bounding
  /// is enabled.
  void sweep_failed_downloads(std::uint64_t now);
  /// Graceful single-download teardown shared by refresh, crash, and the
  /// failure sweep: flush in-flight frames, final receiver drain, bank
  /// wire costs.
  void teardown_download(Download& download);
  bool failure_detection_enabled() const {
    return options_.liveness_timeout_ticks > 0 ||
           options_.max_handshake_retries > 0;
  }
  std::uint64_t suspect_ttl() const {
    return options_.suspect_ttl_ticks > 0
               ? options_.suspect_ttl_ticks
               : std::max<std::size_t>(1, options_.refresh_interval);
  }
  /// The shards = 1 tick body: every peer in ascending id order applies
  /// its reserved origin symbol, then services its downloads.
  void service_inline();
  /// Multi-shard (shards >= 2) phases: placement-independent two-phase
  /// servicing. The send phase only *reads* swarm state (sender halves of
  /// every download, local and cross alike, draw symbols from working
  /// sets nothing mutates until the barrier); the receive phase mutates
  /// only the iterated peer's own state (its origin apply, its receiver
  /// halves). No intra-tick ordering between peers can leak into results,
  /// so which shard a peer lives on — and hence the cost rebalance — is a
  /// planning concern, not a semantics one.
  void phase_send_multi(std::size_t shard);
  void phase_receive_multi(std::size_t shard);
  /// Services one peer's downloads at shards = 1, in event order at
  /// virtual time tick_now_: untimed links every tick in sender order,
  /// timed links only when a frame has arrived or the token bucket grants
  /// send credit.
  void service_downloads(PeerEntry& entry, EventLoop& scheduler);
  /// Reassigns peers to shards by accumulated work units (LPT); called at
  /// a refresh boundary only, before the refresh loop rebuilds downloads.
  void rebalance_shards();
  /// One peer's earliest upcoming event, re-keyed to the peer id — the
  /// incremental planner's per-key value. nullopt for complete, down, or
  /// fully drained peers (a down peer is woken by the fault-boundary
  /// rebuild). Covers local ChannelLinks and cross-shard ShardLinks (both
  /// directions' delay lines and rings).
  std::optional<Event> plan_peer_events(std::size_t i, std::uint64_t now);
  /// Re-derives one peer's planner entry and incomplete accounting.
  void replan_peer(std::size_t i, std::uint64_t now);
  /// The earliest virtual tick >= ticks_ at which a lockstep tick would
  /// not be a no-op: the next refresh, a fault boundary, an origin feed
  /// (every tick while a fed peer is incomplete), or any active
  /// download's next frame arrival / send credit / handshake retry.
  /// nullopt when every peer is complete. Served by the incremental
  /// planner: only peers whose stored entry came due (or a structural
  /// invalidation) are replanned (see DESIGN.md, "Scale model").
  /// Inspected by the coordinator while the workers are parked.
  std::optional<std::uint64_t> next_event_time();
  void flush_batches(Download& download);
  static void accumulate_link(Download& download, LinkTotals& totals);

  std::vector<std::uint8_t> content_;
  DeliveryOptions options_;
  std::size_t shards_;
  std::size_t batch_budget_;
  std::size_t rebalance_epochs_;
  /// Peer id -> owning shard (admission: id % shards; rebalance may move).
  std::vector<std::size_t> shard_assignment_;
  /// Refreshes executed (the rebalance epoch clock).
  std::size_t refresh_count_ = 0;
  std::vector<std::unique_ptr<OriginServer>> origins_;
  std::vector<PeerEntry> peers_;
  std::vector<ShardWork> shard_work_;
  std::size_t ticks_ = 0;
  /// Virtual time of the tick in progress (= its tick index), read by the
  /// phases on every shard; written only between pool runs.
  std::uint64_t tick_now_ = 0;
  std::uint64_t next_session_seed_;
  LinkTotals retired_link_totals_;
  /// Fault bookkeeping (inert when options_.faults is null). Mutated on
  /// the coordinator only; the phases read per-tick snapshots instead.
  FaultTracker faults_;
  /// Coordinator event loop: global clock and jump accounting. The
  /// per-shard service queues live in ShardWork (worker-thread-local).
  EventLoop loop_;
  /// Incremental cross-tick planning queue: one live entry per peer (its
  /// earliest upcoming event), lazily invalidated by stamp; due keys are
  /// replanned per round.
  PlanningQueue planner_;
  /// Scratch queue plan_peer_events builds one peer's events into.
  EventLoop plan_scratch_;
  /// Keys handed back by PlanningQueue::take_due each planning round.
  std::vector<std::uint64_t> plan_due_scratch_;
  /// Structural invalidation: session refresh, fault application, failure
  /// sweep, membership change — the next planning round rebuilds fully.
  bool planner_dirty_ = true;
  /// The `now` of the last planning round (fault-boundary gap detection).
  std::uint64_t planned_through_ = 0;
  /// Per-peer incompleteness mirror + count, so planning needn't rescan
  /// every peer to decide whether the swarm is done.
  std::vector<char> plan_incomplete_;
  std::size_t incomplete_peers_ = 0;
  /// Present only when shards > 1.
  std::optional<util::ShardPool> pool_;
  std::function<void(std::size_t)> send_fn_;
  std::function<void(std::size_t)> receive_fn_;
  std::uint64_t parallel_wall_ns_ = 0;
};

}  // namespace icd::core
