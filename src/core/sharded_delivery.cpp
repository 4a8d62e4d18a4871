#include "core/sharded_delivery.hpp"

#include <algorithm>
#include <chrono>

#include "core/session_plan.hpp"
#include "util/hash.hpp"

namespace icd::core {

ShardedDelivery::ShardedDelivery(std::vector<std::uint8_t> content,
                                 DeliveryOptions options,
                                 ShardOptions shard_options)
    : content_(std::move(content)), options_(options),
      shards_(std::max<std::size_t>(1, shard_options.shards)),
      batch_budget_(shard_options.batch_budget),
      rebalance_epochs_(shard_options.rebalance_epochs),
      shard_work_(shards_),
      next_session_seed_(util::mix64(options.session_seed ^ 0x5e551075ULL)),
      faults_(options.faults) {
  origins_.push_back(std::make_unique<OriginServer>(
      content_, options_.block_size,
      delivery_distribution(content_.size(), options_.block_size),
      options_.session_seed, /*stream_index=*/0));
  if (shards_ > 1) {
    pool_.emplace(shards_);
    send_fn_ = [this](std::size_t shard) { phase_send_multi(shard); };
    receive_fn_ = [this](std::size_t shard) { phase_receive_multi(shard); };
  }
}

void ShardedDelivery::add_mirror() {
  origins_.push_back(std::make_unique<OriginServer>(
      content_, options_.block_size,
      delivery_distribution(content_.size(), options_.block_size),
      options_.session_seed, /*stream_index=*/origins_.size()));
}

std::size_t ShardedDelivery::add_peer(const std::string& name,
                                      bool subscribe_origin) {
  PeerEntry entry;
  entry.peer = std::make_unique<Peer>(
      name, origins_.front()->parameters(),
      delivery_distribution(content_.size(), options_.block_size));
  entry.origin_fed = subscribe_origin;
  entry.origin_index = peers_.size() % origins_.size();
  peers_.push_back(std::move(entry));
  const std::size_t id = peers_.size() - 1;
  shard_assignment_.push_back(id % shards_);
  shard_work_[shard_of(id)].peers.push_back(id);
  planner_dirty_ = true;
  return id;
}

void ShardedDelivery::flush_batches(Download& download) {
  if (batch_budget_ == 0) return;
  download.sender_transport().flush_batch();
  download.receiver_transport().flush_batch();
}

void ShardedDelivery::release_pool_owners() {
  // The coordinator is about to stand in for the shard threads (teardown
  // ticks, handshake starts) or has just done so: unbind every pool so the
  // next user — worker or coordinator — rebinds. Workers are parked at a
  // barrier, which orders the handoff. Local links borrow their shard's
  // pool; each cross-shard end owns a private one. The cross worklists
  // must be current (see rebuild_cross_senders).
  for (ShardWork& work : shard_work_) {
    work.frame_pool->debug_release_owner();
    for (Download* download : work.cross_senders) {
      download->sender_transport().pool_mutable().debug_release_owner();
      download->receiver_transport().pool_mutable().debug_release_owner();
    }
  }
}

void ShardedDelivery::refresh_sessions() {
  planner_dirty_ = true;
  release_pool_owners();
  // Cost rebalance rides the refresh boundary: every download is torn
  // down below and recreated against the *new* placement, so no live link
  // ever changes local/cross type, and the refresh is already a planning
  // barrier for the jump driver.
  if (rebalance_epochs_ > 0 && refresh_count_ > 0 &&
      refresh_count_ % rebalance_epochs_ == 0) {
    rebalance_shards();
  }
  ++refresh_count_;
  // The loop shape and the seed chain's evolution live in session_plan.
  const std::size_t target = static_cast<std::size_t>(
      1.07 * static_cast<double>(parameters().block_count));
  run_refresh_loop(
      peers_.size(), options_, target, next_session_seed_,
      /*teardown=*/
      [this](std::size_t me) {
        for (auto& [sender_id, download] : peers_[me].downloads) {
          teardown_download(*download);
        }
        peers_[me].downloads.clear();
        // Sessions are fully retired: a peer that finished since the last
        // refresh can safely shed its solver state (see
        // Peer::compact_on_complete for why this must not happen at the
        // completion stamp itself).
        if (peers_[me].peer->has_content()) {
          peers_[me].peer->compact_on_complete();
        }
      },
      /*is_complete=*/
      [this](std::size_t me) {
        // A down peer plans nothing this refresh — it rejoins (session
        // resumption with its surviving working set) at the first refresh
        // after its restart.
        return peers_[me].peer->has_content() || faults_.down(me, ticks_);
      },
      /*snapshot=*/
      [this](std::size_t j) {
        return PlanPeer{&peers_[j].peer->sketch(),
                        peers_[j].peer->symbol_count(),
                        !faults_.unavailable(j, ticks_)};
      },
      /*create=*/
      [this](std::size_t me, PlannedDownload& planned) {
        auto download = std::make_unique<Download>();
        download->sender_id = planned.sender_id;
        download->receiver_id = me;
        if (shard_of(planned.sender_id) == shard_of(me)) {
          download->local = std::make_unique<wire::ChannelLink>(
              planned.link, shard_work_[shard_of(me)].frame_pool);
        } else {
          download->cross = std::make_unique<wire::ShardLink>(planned.link);
        }
        if (batch_budget_ > 0) {
          download->sender_transport().set_batch_budget(batch_budget_);
          download->receiver_transport().set_batch_budget(batch_budget_);
        }
        download->sender.emplace(*peers_[planned.sender_id].peer,
                                 planned.session,
                                 download->sender_transport());
        download->receiver.emplace(*peers_[me].peer, planned.session,
                                   download->receiver_transport());
        // The handshake itself flows over the link and completes across
        // subsequent ticks.
        download->receiver->start();
        if (batch_budget_ > 0) {
          download->receiver_transport().flush_batch();
        }
        peers_[me].downloads.emplace(planned.sender_id,
                                     std::move(download));
      });

  // Rebuild the cross-sender worklists and hand the pools back to
  // whichever thread uses them next. The frame pools keep what the new
  // sessions may use; a shard left without local links keeps nothing.
  rebuild_cross_senders();
  for (ShardWork& work : shard_work_) work.frame_pool->trim();
  release_pool_owners();
}

void ShardedDelivery::rebuild_cross_senders() {
  // (receiver, sender) order, as the per-peer download maps iterate.
  for (ShardWork& work : shard_work_) work.cross_senders.clear();
  for (PeerEntry& entry : peers_) {
    for (auto& [sender_id, download] : entry.downloads) {
      if (download->cross) {
        shard_work_[shard_of(sender_id)].cross_senders.push_back(
            download.get());
      }
    }
  }
}

void ShardedDelivery::teardown_download(Download& download) {
  // Ship pending control trains first so their bytes are accounted, then
  // deliver frames still in flight and bank the link's costs. The
  // teardown tick may batch a retry bundle; ship that too so the retiring
  // link's accounting matches the unbatched engine.
  flush_batches(download);
  download.flush_link();
  // Credit the teardown tick as the lockstep loop would. It services a
  // handshaking receiver of a live, incomplete peer on every tick, so the
  // retry clock has counted every tick up to this one; a jumped run may
  // have skipped some of those services, and advancing the clock to this
  // tick credits them at once (a lockstep run gains one tick, as before).
  // A receiver the lockstep loop left unserviced (complete or down peer)
  // keeps the one-tick stale-clock credit.
  const std::size_t receiver = download.receiver_id;
  if (!peers_[receiver].peer->has_content() &&
      !faults_.down(receiver, ticks_ > 0 ? ticks_ - 1 : 0)) {
    download.receiver->advance_to(ticks_);
  }
  download.receiver->tick();
  flush_batches(download);
  accumulate_link(download, retired_link_totals_);
}

void ShardedDelivery::apply_faults(std::uint64_t now) {
  bool any_crash = false;
  faults_.apply_until(
      now,
      /*on_crash=*/
      [this, &any_crash](std::size_t peer) {
        if (peer >= peers_.size()) return;
        // Coordinator stands in for the shard threads during the
        // teardown ticks; the workers are parked between pool runs.
        if (!any_crash) release_pool_owners();
        any_crash = true;
        planner_dirty_ = true;
        for (auto& [sender_id, download] : peers_[peer].downloads) {
          teardown_download(*download);
        }
        peers_[peer].downloads.clear();
        if (peers_[peer].peer->has_content()) {
          peers_[peer].peer->compact_on_complete();
        }
      },
      /*on_join=*/
      [this](std::size_t count, bool origin_fed) {
        for (std::size_t n = 0; n < count; ++n) {
          add_peer("join" + std::to_string(peers_.size()), origin_fed);
        }
      });
  // Crashed peers' downloads may have been cross-shard: drop the dangling
  // worklist entries, then hand the pools back.
  if (any_crash) {
    rebuild_cross_senders();
    release_pool_owners();
  }
}

void ShardedDelivery::sweep_failed_downloads(std::uint64_t now) {
  bool any_erased = false;
  for (PeerEntry& entry : peers_) {
    for (auto it = entry.downloads.begin(); it != entry.downloads.end();) {
      const ReceiverEndpoint& receiver = *it->second->receiver;
      if (!receiver.failed() && !receiver.sender_suspect()) {
        ++it;
        continue;
      }
      if (!any_erased) release_pool_owners();
      any_erased = true;
      planner_dirty_ = true;
      const auto reason = receiver.failed()
                              ? FailedPeer::Reason::kHandshakeExhausted
                              : FailedPeer::Reason::kLivenessTimeout;
      teardown_download(*it->second);
      entry.failed_peers.push_back(FailedPeer{it->first, now, reason});
      faults_.mark_suspect(it->first, now + suspect_ttl());
      it = entry.downloads.erase(it);
    }
  }
  if (any_erased) {
    rebuild_cross_senders();
    release_pool_owners();
  }
}

void ShardedDelivery::service_downloads(PeerEntry& entry,
                                        EventLoop& scheduler) {
  // All-untimed peers keep the plain lockstep loop with zero scheduling
  // overhead; otherwise untimed links are due every tick in sender order,
  // timed links only when a frame has arrived or the token bucket grants
  // send credit. At shards = 1 every download is a local ChannelLink.
  bool any_timed = false;
  for (auto& [sender_id, download] : entry.downloads) {
    if (download->local->timed()) {
      any_timed = true;
      break;
    }
  }
  if (!any_timed) {
    for (auto& [sender_id, download] : entry.downloads) {
      if (entry.peer->has_content()) break;
      // Down sender: frozen endpoint, but the receiver keeps ticking so
      // its liveness clock runs.
      if (!peers_[sender_id].faulted_at_tick_start) {
        download->sender->tick();
        download->sender->send_symbol();
      }
      download->receiver->tick();
      flush_batches(*download);
      entry.work_units += 2;  // both endpoint halves ran on this shard
    }
    return;
  }

  const std::uint64_t now = tick_now_;
  const std::size_t hint = data_frame_bytes_hint(options_.block_size);
  scheduler.clear();
  for (auto& [sender_id, download] : entry.downloads) {
    download->local->advance_to(now);
    LinkTimes times;
    times.timed = download->local->timed();
    times.sender_down = peers_[sender_id].faulted_at_tick_start;
    if (times.timed) {
      times.next_arrival = download->local->next_arrival_at();
      times.send_credit_at = download->local->a_send_ready_at(hint);
    }
    if (auto at = next_service_time(*download->sender, *download->receiver,
                                    times, now)) {
      scheduler.schedule(*at, EventKind::kService, sender_id);
    }
  }
  while (auto event = scheduler.pop_due(now)) {
    if (entry.peer->has_content()) break;
    Download& download = *entry.downloads.at(event->key);
    if (!peers_[event->key].faulted_at_tick_start) {
      download.sender->tick();
      if (!download.local->timed() ||
          download.local->a_send_ready_at(hint) <= now) {
        download.sender->send_symbol();
      }
    }
    download.receiver->advance_to(now);
    download.receiver->tick();
    flush_batches(download);
    entry.work_units += 2;  // both endpoint halves ran on this shard
  }
}

void ShardedDelivery::service_inline(bool due_only) {
  EventLoop& scheduler = shard_work_.front().scheduler;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    PeerEntry& entry = peers_[i];
    if (entry.peer->has_content()) {
      entry.pending_origin_id.reset();
      continue;
    }
    // A down peer is frozen this tick: no origin apply, no servicing.
    if (entry.faulted_at_tick_start) continue;
    // Not due: the planner proved every one of its links idle this tick
    // (an origin-fed peer is due every tick while incomplete).
    if (due_only && !entry.pending_origin_id) {
      const auto at = planner_.planned_at(i);
      if (!at || *at > tick_now_) continue;
    }
    // Origin feed: the coordinator reserved the id (the deterministic
    // stream order); Encoder::encode is a const pure function of it.
    if (entry.pending_origin_id) {
      entry.peer->receive_encoded(
          origins_[entry.origin_index]->encode(*entry.pending_origin_id));
      entry.pending_origin_id.reset();
      entry.work_units += 1;
    }
    service_downloads(entry, scheduler);
  }
}

void ShardedDelivery::phase_send_multi(std::size_t shard) {
  // Read-only over swarm state: sender halves draw from working sets that
  // nothing mutates until the barrier (origin applies and receives both
  // live in phase_receive_multi), so the iteration order — and therefore
  // peer placement — cannot leak into results. Local downloads get the
  // exact servicing the cross worklist below gives cross ones.
  ShardWork& work = shard_work_[shard];
  const std::size_t hint = data_frame_bytes_hint(options_.block_size);
  for (const std::size_t id : work.peers) {
    PeerEntry& entry = peers_[id];
    if (entry.complete_at_tick_start || entry.faulted_at_tick_start) continue;
    for (auto& [sender_id, download] : entry.downloads) {
      if (!download->local) continue;  // cross: sender's shard handles it
      download->local->advance_to(tick_now_);
      // A down sender goes silent: in-flight frames still arrive (the
      // advance above), but its endpoint is frozen — the receiver's
      // liveness clock does the failure detection.
      if (peers_[sender_id].faulted_at_tick_start) continue;
      download->sender->tick();
      if (!download->local->timed() ||
          (!download->sender->satisfied() &&
           download->local->a_send_ready_at(hint) <= tick_now_)) {
        download->sender->send_symbol();
      }
      if (batch_budget_ > 0) download->sender_transport().flush_batch();
      // The local sender half runs on (and loads) the receiver's shard.
      entry.work_units += 1;
    }
  }
  for (Download* download : work.cross_senders) {
    if (peers_[download->receiver_id].complete_at_tick_start ||
        peers_[download->receiver_id].faulted_at_tick_start) {
      continue;
    }
    // Surface the reverse direction's due frames before this half drains:
    // a local link's advance_to(now) does both in one call. Keyed off the
    // current tick (never a look-ahead stashed by a previous tick), so a
    // jumped run commits exactly what a lockstep run would have by now.
    // Phase-safe: the b owner only produces onto this ring in the receive
    // phase, behind the barrier.
    download->cross->commit_b_through(tick_now_);
    download->cross->advance_a_to(tick_now_);
    if (peers_[download->sender_id].faulted_at_tick_start) continue;
    download->sender->tick();
    if (!download->cross->timed() ||
        (!download->sender->satisfied() &&
         download->cross->a_send_ready_at(hint) <= tick_now_)) {
      download->sender->send_symbol();
    }
    if (batch_budget_ > 0) download->sender_transport().flush_batch();
    peers_[download->sender_id].work_units += 1;
  }
}

void ShardedDelivery::phase_receive_multi(std::size_t shard) {
  // All working-set mutations happen here, and each touches only the
  // iterated peer's own state: the origin apply the coordinator reserved
  // the id for (stream order is fixed at reservation, so where the
  // XOR-heavy encode runs is immaterial), then the receiver halves in
  // ascending sender order. Cross b-ends advance in a separate pass
  // *before* any completion can land mid-loop, mirroring the local
  // links' phase-send advance — so a peer's mid-tick completion leaves
  // every link in exactly the state a local placement would. (Their
  // timed reverse frames are committed by the consuming side at the top
  // of the next send phase; see phase_send_multi.)
  for (const std::size_t id : shard_work_[shard].peers) {
    PeerEntry& entry = peers_[id];
    if (entry.complete_at_tick_start || entry.faulted_at_tick_start) continue;
    for (auto& [sender_id, download] : entry.downloads) {
      if (download->cross) download->cross->advance_b_to(tick_now_);
    }
  }
  for (const std::size_t id : shard_work_[shard].peers) {
    PeerEntry& entry = peers_[id];
    if (entry.complete_at_tick_start || entry.faulted_at_tick_start) continue;
    if (entry.pending_origin_id) {
      entry.peer->receive_encoded(
          origins_[entry.origin_index]->encode(*entry.pending_origin_id));
      entry.pending_origin_id.reset();
      entry.work_units += 1;
    }
    for (auto& [sender_id, download] : entry.downloads) {
      if (entry.peer->has_content()) break;
      download->receiver->advance_to(tick_now_);
      download->receiver->tick();
      if (batch_budget_ > 0) download->receiver_transport().flush_batch();
      entry.work_units += 1;
    }
  }
}

void ShardedDelivery::tick() {
  // Fault application precedes the refresh so crashed peers are excluded
  // from (and flash-crowd joiners included in) a refresh due this tick.
  if (faults_.active()) apply_faults(ticks_);
  if (ticks_ % std::max<std::size_t>(1, options_.refresh_interval) == 0) {
    refresh_sessions();
  }
  // Virtual time of this tick (= its index).
  tick_now_ = ticks_;
  ++ticks_;

  // Coordinator prologue: completion and fault snapshots (the phases read
  // these instead of cross-shard peer state) and origin draws in peer
  // order, skipping complete and down peers — the symbol-to-peer
  // assignment is fixed here, whatever thread later encodes the symbol.
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    PeerEntry& entry = peers_[i];
    entry.complete_at_tick_start = entry.peer->has_content();
    entry.faulted_at_tick_start =
        faults_.active() && faults_.down(i, tick_now_);
    if (entry.complete_at_tick_start || entry.faulted_at_tick_start) {
      continue;
    }
    if (entry.origin_fed) {
      // Reserve the id only; the owning peer's servicing encodes it.
      // next() ≡ encode(take_next_id()), so the symbol each peer sees is
      // exactly what a serial draw produces.
      entry.pending_origin_id =
          origins_[entry.origin_index]->take_next_id();
    }
    if (faults_.any_blackouts()) {
      for (auto& [sender_id, download] : entry.downloads) {
        const bool dark = faults_.blackout(sender_id, i, tick_now_);
        if (download->local) {
          download->local->set_blackout(dark);
        } else {
          download->cross->set_blackout(dark);
        }
      }
    }
  }

  if (!pool_) {
    service_inline(due_only_service());
  } else {
    const auto start = std::chrono::steady_clock::now();
    pool_->run(send_fn_);
    pool_->run(receive_fn_);
    parallel_wall_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  planned_tick_ = false;

  // Failure sweep before the completion stamps; the workers are parked
  // again, so the coordinator owns all state.
  if (failure_detection_enabled()) sweep_failed_downloads(ticks_);

  for (PeerEntry& entry : peers_) {
    if (entry.completed_tick == 0 && entry.peer->has_content()) {
      entry.completed_tick = ticks_;
    }
  }
  loop_.advance_to(ticks_);
}

bool ShardedDelivery::due_only_service() const {
  if (!planned_tick_ || planner_dirty_) return false;
  // A fault boundary (thaw, restart, window edge) changes what a peer's
  // planned entry assumed: every peer is serviced on it.
  if (faults_.active() && tick_now_ > 0 &&
      faults_.next_boundary_after(tick_now_ - 1) == tick_now_) {
    return false;
  }
  return true;
}

std::optional<Event> ShardedDelivery::plan_peer_events(std::size_t i,
                                                       std::uint64_t now) {
  PeerEntry& entry = peers_[i];
  if (entry.peer->has_content()) return std::nullopt;
  // A down peer is frozen until a fault boundary wakes it — every
  // boundary forces a full planner rebuild, never a per-link event.
  if (faults_.active() && faults_.down(i, now)) return std::nullopt;
  // The origin fountain streams one symbol per tick to an incomplete
  // subscriber: every tick is an event while one exists.
  if (entry.origin_fed) return Event{now, EventKind::kOriginFeed, i};
  const std::size_t hint = data_frame_bytes_hint(options_.block_size);
  plan_scratch_.clear();
  for (auto& [sender_id, download] : entry.downloads) {
    LinkTimes times;
    times.timed = download->local ? download->local->timed()
                                  : download->cross->timed();
    times.sender_down = faults_.active() && faults_.down(sender_id, now);
    if (times.timed) {
      times.next_arrival = download->local
                               ? download->local->next_event_time()
                               : download->cross->next_event_time();
      times.send_credit_at =
          download->local ? download->local->a_send_ready_at(hint)
                          : download->cross->a_send_ready_at(hint);
    }
    schedule_download_events(plan_scratch_, *download->sender,
                             *download->receiver, times, now, sender_id);
  }
  const auto first = plan_scratch_.peek();
  if (!first) return std::nullopt;
  // Re-keyed to the receiving peer: only the entry's time feeds the jump
  // target.
  return Event{first->at, first->kind, i};
}

void ShardedDelivery::replan_peer(std::size_t i, std::uint64_t now) {
  const char incomplete = peers_[i].peer->has_content() ? 0 : 1;
  if (plan_incomplete_[i] != incomplete) {
    plan_incomplete_[i] = incomplete;
    if (incomplete) {
      ++incomplete_peers_;
    } else {
      --incomplete_peers_;
    }
  }
  planner_.set(i, plan_peer_events(i, now));
}

std::optional<std::uint64_t> ShardedDelivery::next_event_time() {
  // Coordinator-only, between pool runs: the workers are parked, so every
  // shard's links and endpoints may be inspected (not mutated) here.
  // Incremental planning: one live entry per peer; full rebuilds only when
  // the download graph changed shape or a fault boundary fell in the
  // planning gap (blackout window edges are boundaries, so a window's
  // links replan at its edges like any other fault); otherwise only the
  // peers whose entries came due are replanned.
  const std::uint64_t now = ticks_;
  planner_.ensure_keys(peers_.size());
  if (plan_incomplete_.size() < peers_.size()) {
    plan_incomplete_.resize(peers_.size(), 0);
  }
  bool full = planner_dirty_ || planner_.pending_full();
  if (!full && faults_.active()) {
    const auto boundary = faults_.next_boundary_after(planned_through_);
    if (boundary && *boundary <= now) full = true;
  }
  if (full) {
    planner_.begin_rebuild();
    incomplete_peers_ = 0;
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      plan_incomplete_[i] = peers_[i].peer->has_content() ? 0 : 1;
      incomplete_peers_ += static_cast<std::size_t>(plan_incomplete_[i]);
      planner_.set(i, plan_peer_events(i, now));
    }
    planner_dirty_ = false;
  } else {
    plan_due_scratch_.clear();
    planner_.take_due(now, plan_due_scratch_);
    for (const std::uint64_t key : plan_due_scratch_) {
      replan_peer(key, now);
    }
  }
  planned_through_ = now;
  if (incomplete_peers_ == 0 && !faults_.pending_joins()) return std::nullopt;
  std::optional<std::uint64_t> at;
  if (const auto next = planner_.peek()) at = next->at;
  // Fault boundaries are planning barriers, including one at `now` itself:
  // tick `now` has not run yet, so its join, thaw or restart is still ahead.
  if (faults_.active() && now > 0) {
    if (const auto boundary = faults_.next_boundary_after(now - 1)) {
      at = at ? std::min(*at, *boundary) : *boundary;
    }
  }
  const std::size_t interval =
      std::max<std::size_t>(1, options_.refresh_interval);
  const std::uint64_t refresh = ((now + interval - 1) / interval) * interval;
  at = at ? std::min(*at, refresh) : refresh;
  return std::max(*at, now);
}

bool ShardedDelivery::run(std::size_t max_ticks) {
  return run_until(ticks_ + max_ticks);
}

bool ShardedDelivery::run_until(std::uint64_t deadline) {
  while (ticks_ < deadline) {
    tick();
    // "All done" is only final once no flash crowd is still scheduled to
    // arrive — a pending join re-opens the swarm.
    if (all_live_complete() && !faults_.pending_joins()) return true;
    if (!options_.jump_empty_ticks) continue;
    // All-untimed swarms can never open a span (untimed downloads are
    // due every tick), so skip the planning rebuild outright and keep
    // the historical heap-free hot path. A link_config may hand out
    // timed configs per edge, so its presence keeps planning on.
    if (!options_.link.timed() && !options_.link_config) continue;
    // Jump straight to the next tick at which anything can happen —
    // sharded ticks barrier only at event times; the span in between
    // would have been all-shard no-ops. A round that starts clean plans
    // every peer's entry incrementally, so the tick it picks may service
    // only the peers that are due (service_inline).
    const bool clean = !planner_dirty_;
    if (const auto next = next_event_time()) {
      const std::uint64_t target = std::min<std::uint64_t>(*next, deadline);
      loop_.skip_to(target);
      ticks_ = target;
      planned_tick_ = clean && target < deadline;
    }
  }
  return all_live_complete();
}

bool ShardedDelivery::all_live_complete() const {
  for (std::size_t id = 0; id < peers_.size(); ++id) {
    if (!peers_[id].peer->has_content() &&
        !faults_.crashed_for_good(id, ticks_)) {
      return false;
    }
  }
  return true;
}

std::uint64_t ShardedDelivery::events_processed() const {
  std::uint64_t total = 0;
  for (const ShardWork& work : shard_work_) {
    total += work.scheduler.events_processed();
  }
  return total;
}

std::vector<std::uint8_t> ShardedDelivery::peer_content(
    std::size_t id) const {
  return peers_.at(id).peer->content(content_.size());
}

void ShardedDelivery::accumulate_link(Download& download,
                                      LinkTotals& totals) {
  totals.add(download.sender_transport().stats())
      .add(download.receiver_transport().stats());
}

ShardedDelivery::LinkTotals ShardedDelivery::active_link_totals() const {
  LinkTotals totals;
  for (const PeerEntry& entry : peers_) {
    for (const auto& [sender_id, download] : entry.downloads) {
      accumulate_link(*download, totals);
    }
  }
  return totals;
}

ShardedDelivery::LinkTotals ShardedDelivery::link_totals() const {
  LinkTotals totals = retired_link_totals_;
  totals += active_link_totals();
  return totals;
}

std::vector<std::uint64_t> ShardedDelivery::shard_busy_ns() const {
  if (!pool_) return {};
  return pool_->busy_ns();
}

void ShardedDelivery::rebalance_shards() {
  // LPT over the deterministic work units (busy_ns is wall-machine noise;
  // the assignment must be identical across runs). Callers guarantee a
  // refresh boundary: every download is about to be torn down, so no live
  // link changes local/cross type under the new placement.
  std::vector<std::uint64_t> cost(peers_.size(), 0);
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    cost[i] = peers_[i].work_units;
  }
  shard_assignment_ = balance_by_cost(cost, shards_);
  for (ShardWork& work : shard_work_) work.peers.clear();
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    shard_work_[shard_assignment_[i]].peers.push_back(i);  // ascending
  }
  // Decay: half-life of one epoch, so placement tracks current load
  // instead of being pinned by ancient history.
  for (PeerEntry& entry : peers_) entry.work_units /= 2;
}

std::vector<std::uint64_t> ShardedDelivery::shard_cost_units() const {
  std::vector<std::uint64_t> cost(shards_, 0);
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    cost[shard_assignment_[i]] += peers_[i].work_units;
  }
  return cost;
}

MemoryAudit ShardedDelivery::memory_audit() const {
  MemoryAudit audit;
  audit.peers = peers_.size();
  // Shard frame pools are lent to many links and counted here, once each.
  for (const ShardWork& work : shard_work_) {
    audit.link_bytes += work.frame_pool->memory_bytes();
  }
  for (const PeerEntry& entry : peers_) {
    audit.decoder_bytes += entry.peer->memory_bytes();
    for (const auto& [sender_id, download] : entry.downloads) {
      audit.endpoint_bytes += download->sender->memory_bytes() +
                              download->receiver->memory_bytes();
      // Each link counts the pool(s) it owns exactly once; the transports
      // exclude them (see Transport::memory_bytes), and a local link's
      // borrowed shard pool is counted above.
      audit.link_bytes += download->local ? download->local->memory_bytes()
                                          : download->cross->memory_bytes();
    }
  }
  return audit;
}

}  // namespace icd::core
