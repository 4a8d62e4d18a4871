#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

/// The discrete-event core of simulated time.
///
/// Timed links give every edge a virtual clock; a delivery engine that
/// iterates tick by tick, asking a per-tick scheduler who is due, burns
/// thousands of empty iterations between frame arrivals on a high-RTT
/// rate-limited swarm. EventLoop is a true event queue instead: a global
/// virtual clock plus a deterministic (time, kind, key) min-queue holding
/// *all* time-driven work — frame arrivals, token-bucket send-credit
/// refills, handshake retry timers, flow-control re-issues, and the
/// coordinator's admission/refresh cadence. Drivers that know every pending event can jump the clock
/// straight to the next one (`skip_to`), executing only ticks where
/// something happens; ticks proven empty are counted, never run.
///
/// Determinism: events pop in strict (time, kind, key) order. Kinds are
/// ordered to match the execution order inside one tick (coordinator
/// refresh before origin feeds before link servicing), and equal
/// (time, kind) pairs tie-break by ascending key — for service events the
/// key is the serving peer id, which reproduces the historical lockstep
/// per-sender map iteration exactly. That tie-break is what keeps the
/// per-tick scheduler and the jumping loop on the one trajectory the
/// golden files (tests/golden/) pin. See DESIGN.md, "Time and scheduling
/// model".
namespace icd::core {

class SenderEndpoint;
class ReceiverEndpoint;

/// What a scheduled event means. The numeric order is the intra-tick
/// execution order, so equal-time events pop in the order a lockstep tick
/// would have performed them.
enum class EventKind : std::uint8_t {
  kRefresh = 0,         // admission/session refresh cadence (coordinator)
  kOriginFeed = 1,      // origin fountain streams one symbol per tick
  kHandshakeRetry = 2,  // receiver re-sends its handshake bundle
  kFrameArrival = 3,    // a queued frame's arrival time passes
  kSendCredit = 4,      // the token bucket grants one data frame
  kFlowUpdate = 5,      // RequestUpdate re-issue (rides arrival services)
  kService = 6,         // per-tick link service slot (engines' pop loop)
  // Appended after kService so historical intra-tick tie-breaks are
  // untouched; both kinds are cross-tick planning barriers, executed at
  // the top of the tick they land on.
  kPeerFault = 7,       // a FaultPlan boundary (crash/stall/restart/join/
                        // blackout edge) falls on this tick
  kLivenessProbe = 8,   // a receiver's sender-liveness timeout expires
};

struct Event {
  std::uint64_t at = 0;
  EventKind kind = EventKind::kService;
  std::uint64_t key = 0;
};

/// A deterministic min-queue of (time, kind, key) events plus the global
/// virtual clock and the jump accounting. Engines reuse one instance both
/// ways: rebuilt per scheduling round (clear + schedule + pop_due) for
/// intra-tick service ordering, and rebuilt after each tick to find the
/// next tick at which anything can happen.
class EventLoop {
 public:
  // --- Event queue ---------------------------------------------------------
  void clear() { heap_.clear(); }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Registers one event. Duplicate (time, kind, key) triples are allowed;
  /// callers that reschedule simply clear() and rebuild.
  void schedule(std::uint64_t at, EventKind kind, std::uint64_t key);

  /// The earliest event, if any.
  std::optional<Event> peek() const;

  /// Pops and returns the earliest event if its time is <= now; nullopt
  /// when the queue is empty or everything lies in the future. Counts the
  /// pop in events_processed().
  std::optional<Event> pop_due(std::uint64_t now);

  // --- Global virtual clock ------------------------------------------------
  std::uint64_t now() const { return now_; }

  /// Advances the clock (monotonic; a smaller t is ignored).
  void advance_to(std::uint64_t t) { now_ = std::max(now_, t); }

  /// Jumps the clock across a span of provably empty ticks: every tick in
  /// [now, t) is counted as skipped, never executed. Monotonic like
  /// advance_to.
  void skip_to(std::uint64_t t) {
    if (t > now_) {
      ticks_skipped_ += t - now_;
      now_ = t;
    }
  }

  // --- Accounting ----------------------------------------------------------
  /// Events popped due (service slots executed).
  std::uint64_t events_processed() const { return events_processed_; }
  /// Virtual ticks jumped over without executing.
  std::uint64_t ticks_skipped() const { return ticks_skipped_; }

  // --- Wall-clock mode -----------------------------------------------------
  // The real-network driver (examples/swarm_node): virtual ticks are bound
  // to real time, tick i falling at epoch + i * ns_per_tick with the epoch
  // recorded here. Instead of jumping the clock across empty spans, a
  // run loop built on poll_wait() *sleeps* across them — blocking in
  // ::poll on the watched sockets with a timeout derived from the next
  // scheduled virtual event (handshake retry, flow-update cadence, service
  // slot), so the same endpoint state machines run unmodified against real
  // sockets. See DESIGN.md, "Real-network backend".

  /// Enters wall-clock mode: tick 0 is now, ticks last `ns_per_tick`.
  void enable_wall_clock(std::uint64_t ns_per_tick);
  bool wall_clock() const { return wall_enabled_; }
  std::uint64_t ns_per_tick() const { return wall_ns_per_tick_; }

  /// The current wall time, expressed in virtual ticks since the epoch.
  std::uint64_t wall_now() const;

  /// Registers / removes a socket watched for readability by poll_wait().
  void watch_fd(int fd);
  void unwatch_fd(int fd);

  /// Blocks until a watched fd turns readable or the earliest scheduled
  /// event (capped at now + max_wait_ticks) comes due on the wall clock,
  /// then advances now() to the wall tick. Ticks slept across count as
  /// skipped — the wall-clock analogue of skip_to. Returns true when at
  /// least one watched fd is readable. Requires enable_wall_clock.
  bool poll_wait(std::uint64_t max_wait_ticks = 1000);

 private:
  /// std::push_heap/pop_heap min-heap ordered by (at, kind, key).
  std::vector<Event> heap_;
  std::uint64_t now_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t ticks_skipped_ = 0;
  /// Wall-clock mode state (enable_wall_clock / poll_wait).
  bool wall_enabled_ = false;
  std::uint64_t wall_ns_per_tick_ = 1'000'000;  // 1 ms
  std::chrono::steady_clock::time_point wall_epoch_{};
  std::vector<int> watched_fds_;
};

/// The always-on incremental cross-tick planner. The engines used to
/// rebuild the whole planning queue after every executed tick (clear +
/// re-schedule every incomplete peer's downloads) — quadratic-ish on huge
/// swarms, since one executed tick usually perturbs a handful of peers.
/// PlanningQueue keeps one live entry per *key* (the receiving peer id):
/// that peer's earliest upcoming event, re-keyed to the peer. Replacing a
/// key's entry does not search the heap; it bumps the key's stamp and
/// pushes a fresh entry, and stale entries (stamp mismatch) are skimmed
/// lazily at peek/pop time. A compaction bound (heap > 2*live + 64)
/// keeps the garbage linear in the live set.
///
/// Correctness contract (see DESIGN.md, "Scale model"): a stored entry
/// with at >= now is exactly what a full rebuild at `now` would plan for
/// that peer, because every per-download time source (frame arrival,
/// send credit, retry/liveness deadlines) is an absolute-time function of
/// state that only changes when the peer is serviced or flagged — and
/// take_due() hands every entry with at < now back for replanning before
/// the round's answer is folded.
class PlanningQueue {
 public:
  struct Stats {
    std::uint64_t pushes = 0;         // entries pushed (set with a value)
    std::uint64_t pops = 0;           // live entries handed back by take_due
    std::uint64_t stale_skipped = 0;  // lazily discarded invalidated entries
    std::uint64_t full_rebuilds = 0;  // begin_rebuild rounds
    std::uint64_t compactions = 0;    // garbage-bound heap rebuilds

    /// Total heap operations — the bench's queue-ops metric.
    std::uint64_t ops() const { return pushes + pops + stale_skipped; }
  };

  /// Grows the per-key tables (new keys start with no live entry).
  void ensure_keys(std::size_t count);

  /// Requests a full rebuild at the next planning round (engine-side
  /// invalidation: refresh, fault application, membership change).
  void invalidate_all() { pending_full_ = true; }
  bool pending_full() const { return pending_full_; }

  /// Starts a full rebuild: drops every entry. The caller re-sets every
  /// key it still cares about.
  void begin_rebuild();

  /// Replaces `key`'s entry. nullopt = the key has no upcoming event
  /// (complete, down, or drained+satisfied peers). The old entry, if any,
  /// is invalidated by stamp, not searched for.
  void set(std::uint64_t key, const std::optional<Event>& event);

  /// Pops every live entry with at < `now` — peers whose stored plan an
  /// executed tick may have perturbed — into `out` in (at, kind, key)
  /// order, marking them planless. Entries at exactly `now` stay: they
  /// are this round's answer, not history.
  void take_due(std::uint64_t now, std::vector<std::uint64_t>& out);

  /// The earliest live entry (lazily skimming stale ones).
  std::optional<Event> peek();

  /// `key`'s live entry time; nullopt when it has none. Read-only — the
  /// engine's due-only service asks which peers a planned tick concerns.
  std::optional<std::uint64_t> planned_at(std::uint64_t key) const {
    if (key >= live_.size() || !live_[key]) return std::nullopt;
    return live_event_[key].at;
  }

  std::size_t live() const { return live_count_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    Event event;
    std::uint64_t stamp = 0;
  };

  bool fresh(const Entry& entry) const {
    return live_[entry.event.key] != 0 &&
           entry.stamp == stamps_[entry.event.key];
  }
  void drop_stale_front();
  void compact();

  /// Min-heap by (at, kind, key); stale entries skimmed lazily.
  std::vector<Entry> heap_;
  std::vector<std::uint64_t> stamps_;  // per key: current stamp
  std::vector<char> live_;             // per key: a live entry exists
  std::vector<Event> live_event_;      // per key: that entry (compaction)
  std::size_t live_count_ = 0;
  bool pending_full_ = true;  // first round always builds from scratch
  Stats stats_;
};

/// Link-derived inputs to the service decision, gathered by the engine
/// from whichever link type carries the download (ChannelLink locally,
/// ShardLink across shards).
struct LinkTimes {
  /// False = legacy event-clock link: service every tick.
  bool timed = false;
  /// Earliest arrival of a queued frame in either direction.
  std::optional<std::uint64_t> next_arrival;
  /// Earliest departure credit for one data frame (token bucket).
  std::optional<std::uint64_t> send_credit_at;
  /// The serving peer is crashed or stalled (FaultPlan): the engine will
  /// not run the sender half, so send-credit events are meaningless; the
  /// receiver is serviced for arrivals, retries, and liveness expiry only.
  bool sender_down = false;
};

/// Estimated wire size of one data-plane frame, used for the send-credit
/// probe (the exact size depends on strategy and degree; pacing itself is
/// enforced by the channel's token bucket, so the hint only shapes attempt
/// cadence).
std::size_t data_frame_bytes_hint(std::size_t block_size);

/// When the download next needs service *within the current tick's
/// scheduling round*: now for untimed links and during the handshake
/// (retry clocks must keep counting), the earliest of frame arrival /
/// send credit during transfer, and nullopt — skip entirely — for a
/// drained link whose sender is satisfied. Cross-tick planning uses
/// schedule_download_events() instead, which replaces the handshake's "now"
/// with the receiver's retry deadline.
std::optional<std::uint64_t> next_service_time(const SenderEndpoint& sender,
                                               const ReceiverEndpoint& receiver,
                                               const LinkTimes& times,
                                               std::uint64_t now);

/// Cross-tick planning: schedules one download's future events (frame
/// arrival, handshake retry, send credit) into `loop`, keyed by `key`.
/// Mirrors next_service_time's decision tree exactly, except that a
/// handshaking download is due at its retry deadline rather than every
/// tick — empty handshake ticks are no-ops once the retry clock is
/// virtual-time-based, which is precisely what makes the span skippable.
/// Untimed links are due `now` (the event clock advances every tick).
void schedule_download_events(EventLoop& loop, const SenderEndpoint& sender,
                              const ReceiverEndpoint& receiver,
                              const LinkTimes& times, std::uint64_t now,
                              std::uint64_t key);

}  // namespace icd::core
