#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#if !defined(NDEBUG) && !defined(ICD_POOL_OWNER_CHECKS)
#define ICD_POOL_OWNER_CHECKS 1
#endif

#if defined(ICD_POOL_OWNER_CHECKS)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#endif

/// Reusable frame buffers for the zero-allocation symbol path.
///
/// Every frame a Transport puts on the wire is a std::vector<uint8_t>; in
/// steady state the same handful of buffers cycle sender -> queue ->
/// receiver -> pool -> sender, so after warmup no send allocates. See
/// DESIGN.md ("Buffer ownership and lifetimes") for who borrows what and
/// when spans into these buffers are invalidated.
///
/// A BufferPool is deliberately NOT thread-safe: the shard-local ownership
/// rule (DESIGN.md, "Threading model") says every pool belongs to exactly
/// one shard at a time, and cross-shard buffer traffic goes through
/// wire::ShardLink's SPSC recycling rings instead. Builds with owner checks
/// enabled (debug builds, or any build defining ICD_POOL_OWNER_CHECKS)
/// enforce the rule: the first acquire/release binds the pool to the
/// calling thread and any call from a different thread aborts loudly,
/// so a cross-shard buffer leak fails at the offending call site instead
/// of corrupting a freelist. Coordinators that legitimately hand a pool
/// between phases (session refresh runs single-threaded while workers are
/// parked) call debug_release_owner() so the next user rebinds.
namespace icd::wire {

class BufferPool {
 public:
  /// Buffers retained beyond this are freed on release() — bounds the
  /// memory a bursty phase (handshake fragment trains) can pin forever.
  static constexpr std::size_t kMaxPooled = 64;
  /// A pool lent to links (the delivery engine keeps one per shard)
  /// retains this many buffers per live borrowing link instead: the bound
  /// follows the live link count, down to zero when none is left.
  static constexpr std::size_t kPooledPerLink = 1;

  struct Stats {
    std::size_t acquires = 0;  // total acquire() calls
    std::size_t hits = 0;      // acquires served from the freelist
    std::size_t releases = 0;  // buffers returned (kept or freed)

    double hit_rate() const {
      return acquires == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(acquires);
    }
  };

  /// An empty buffer, recycled (capacity retained) when one is available.
  std::vector<std::uint8_t> acquire() {
    check_owner("acquire");
    ++stats_.acquires;
    if (free_.empty()) return {};
    ++stats_.hits;
    std::vector<std::uint8_t> buffer = std::move(free_.back());
    free_.pop_back();
    return buffer;
  }

  /// Returns a buffer to the freelist. Contents are cleared here so a
  /// recycled buffer can never leak a previous frame's bytes.
  void release(std::vector<std::uint8_t> buffer) {
    check_owner("release");
    ++stats_.releases;
    if (free_.size() >= retain_limit()) return;  // freed by destruction
    buffer.clear();
    free_.push_back(std::move(buffer));
  }

  /// Unbinds the pool from its owning thread (owner-checking builds only;
  /// a no-op otherwise). The next acquire/release rebinds to its caller.
  /// Call this only at a synchronization point that orders the old owner's
  /// accesses before the new owner's — e.g. the coordinator between tick
  /// phases, while all workers are parked at a barrier.
  void debug_release_owner() {
#if defined(ICD_POOL_OWNER_CHECKS)
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
#endif
  }

  /// Borrowing-link registry (wire::ChannelLink's pool-taking
  /// constructor): the first borrower switches the retain bound from
  /// kMaxPooled to kPooledPerLink per live borrower. Called where links
  /// are built and torn down (the engine's coordinator).
  void add_borrower() {
    lent_ = true;
    ++borrowers_;
  }
  void remove_borrower() { --borrowers_; }
  std::size_t retain_limit() const {
    return lent_ ? kPooledPerLink * borrowers_ : kMaxPooled;
  }
  /// Frees retained buffers beyond retain_limit() — for a lent pool after
  /// its links were retired (no bytes outlive the sessions they served).
  void trim() {
    if (free_.size() > retain_limit()) {
      free_.resize(retain_limit());
      if (free_.empty()) free_.shrink_to_fit();
    }
  }

  std::size_t pooled() const { return free_.size(); }
  const Stats& stats() const { return stats_; }

  /// Heap bytes the freelist pins (scale audit; counted once per pool).
  std::size_t memory_bytes() const {
    std::size_t bytes = free_.capacity() * sizeof(std::vector<std::uint8_t>);
    for (const auto& buffer : free_) bytes += buffer.capacity();
    return bytes;
  }

 private:
  void check_owner(const char* op) {
#if defined(ICD_POOL_OWNER_CHECKS)
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
      return;  // first use (or first after debug_release_owner) binds
    }
    if (expected != self) {
      std::fprintf(stderr,
                   "BufferPool::%s from a non-owner thread: pools are "
                   "shard-local (see DESIGN.md, Threading model)\n",
                   op);
      std::abort();
    }
#else
    (void)op;
#endif
  }

  std::vector<std::vector<std::uint8_t>> free_;
  Stats stats_;
  std::size_t borrowers_ = 0;
  bool lent_ = false;
#if defined(ICD_POOL_OWNER_CHECKS)
  std::atomic<std::thread::id> owner_{};
#endif
};

}  // namespace icd::wire
