#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "util/ring.hpp"
#include "wire/buffer_pool.hpp"
#include "wire/channel.hpp"
#include "wire/message.hpp"

/// Message transports: the seam between protocol endpoints and the network.
///
/// A Transport carries typed wire::Message frames in one direction pair of a
/// point-to-point link. It owns the two substrate concerns the endpoints
/// must not care about:
///
///   * Packetization — frames larger than the link MTU (Bloom/ART control
///     summaries, big sketches) are split into Fragment messages and
///     reassembled on the far side; a lost fragment loses the whole message,
///     which the endpoints' retry path absorbs.
///   * Accounting — every frame that hits the wire is classified as control
///     or data and counted in bytes and frames, so sessions can report
///     *exact* (not estimated) control-plane costs.
///
/// Frames are plain byte vectors recycled through a BufferPool shared by the
/// two ends of a link, and symbol frames are encoded from / decoded into
/// non-owning views, so the steady-state symbol path allocates nothing (see
/// DESIGN.md, "Buffer ownership and lifetimes").
///
/// Two implementations: an in-process perfect Pipe (lossless, in-order) and
/// an adapter over the simulated LossyChannel (loss, reordering, MTU). See
/// DESIGN.md for the layering.
namespace icd::wire {

/// Data plane = symbols; everything else (hello, sketch, summaries,
/// requests) is the control plane. Fragments inherit the class of the frame
/// they slice.
constexpr bool is_data_type(MessageType type) {
  return type == MessageType::kEncodedSymbol ||
         type == MessageType::kRecodedSymbol;
}

struct TransportStats {
  /// Frames / bytes actually handed to the link (including ones the network
  /// later drops), split by plane. Fragments count toward the plane of the
  /// message they carry.
  std::size_t frames_sent = 0;
  std::size_t control_frames_sent = 0;
  std::size_t data_frames_sent = 0;
  std::size_t bytes_sent = 0;
  std::size_t control_bytes_sent = 0;
  std::size_t data_bytes_sent = 0;
  /// Whole messages accepted for sending / delivered after reassembly.
  std::size_t messages_sent = 0;
  std::size_t messages_received = 0;
  /// Frames / bytes that arrived from the link.
  std::size_t frames_received = 0;
  std::size_t bytes_received = 0;
  /// Received frames that failed to decode (corruption) — dropped.
  std::size_t malformed_frames = 0;
  /// Fragments evicted before their message completed (a sibling was lost).
  std::size_t stale_fragments = 0;
  /// Frames the backend refused to carry (MTU too small to fit even one
  /// fragment) — never transmitted, never byte-counted. Nonzero while a
  /// session makes no progress is the tiny-MTU diagnostic.
  std::size_t frames_refused = 0;
};

/// Worst-case frame + Fragment header bytes; fragments carry
/// mtu - kFragmentOverhead payload bytes each.
inline constexpr std::size_t kFragmentOverhead = 24;

/// Incomplete reassemblies kept per transport before the oldest is evicted.
inline constexpr std::size_t kMaxPartialReassemblies = 8;

class Transport {
 public:
  /// Observes every frame at the moment it is handed to the link; lets
  /// tests and benchmarks independently audit the byte accounting.
  using FrameObserver =
      std::function<void(const std::vector<std::uint8_t>& frame,
                         bool is_control)>;

  /// One received item: an owning control Message, or a symbol decoded in
  /// place. The views' spans borrow transport-owned storage (the receive
  /// buffer and the constituent scratch) and are invalidated by the next
  /// receive()/receive_frame() call on this transport.
  using ReceivedFrame = std::variant<Message, codec::EncodedSymbolView,
                                     codec::RecodedSymbolView>;

  virtual ~Transport() = default;

  /// Sends one message, fragmenting if its frame exceeds the MTU. Returns
  /// false when the message was not fully handed to the link: an MTU too
  /// small to carry even one fragment payload byte, or a backend refusing
  /// a datagram. A refusal mid-fragment-train leaves the earlier fragments
  /// transmitted and byte-counted — to the peer that is indistinguishable
  /// from fragment loss (the partial reassembly is evicted, the message
  /// retried by the protocol); messages_sent counts only complete sends.
  bool send(const Message& message);

  /// Zero-allocation sends for the symbol fast path: the frame is encoded
  /// straight from the view into a pooled buffer. Wire bytes are identical
  /// to send(EncodedSymbolMessage{...}) / send(RecodedSymbolMessage{...}).
  bool send(const codec::EncodedSymbolView& symbol);
  bool send(const codec::RecodedSymbolView& symbol);

  /// Delivers the next fully reassembled message, if any, decoding symbol
  /// frames in place (payload spans borrow the transport's receive buffer
  /// until the next receive call — the single-copy receive rule). Malformed
  /// frames are counted and skipped, never thrown.
  std::optional<ReceivedFrame> receive_frame();

  /// Owning variant of receive_frame(): symbol views are materialized into
  /// EncodedSymbolMessage/RecodedSymbolMessage. Control paths and tests.
  std::optional<Message> receive();

  /// Per-tick control-frame batching. With a nonzero budget, control
  /// frames no longer depart one datagram each: they accumulate in a
  /// pooled train buffer (self-describing frames concatenated back to
  /// back, exactly the encode_stream layout) that is handed to the link as
  /// one datagram when appending the next frame would exceed
  /// min(budget, mtu), when a data or oversized frame must depart (frame
  /// order is preserved), or at flush_batch() — the per-tick boundary the
  /// driving engine calls. Wire *bytes* are unchanged (each frame keeps
  /// its header); what drops is the per-datagram cost: a handshake bundle
  /// that took 4 frames travels as 1, and control_frames_sent counts
  /// datagrams, so the control-packet accounting reflects the saving. A
  /// train lost by the channel loses all its frames, which the endpoints'
  /// retry path absorbs — same failure mode as a lost fragment. Budget 0
  /// (the default) disables batching and reproduces the historical
  /// one-frame-per-datagram behavior bit for bit.
  void set_batch_budget(std::size_t bytes) { batch_budget_ = bytes; }
  std::size_t batch_budget() const { return batch_budget_; }
  /// Sends the pending control train, if any. Returns false only when the
  /// backend refused the train datagram (counted in frames_refused).
  bool flush_batch();

  std::size_t mtu() const { return mtu_; }
  const TransportStats& stats() const { return stats_; }
  const BufferPool& pool() const { return *pool_; }
  /// Heap bytes this transport pins: reassembly partials, the live
  /// receive frame, the control train, and decode scratch. The shared
  /// BufferPool is deliberately EXCLUDED — both ends of a link share one
  /// pool, so the owning link counts it exactly once (see
  /// ChannelLink::memory_bytes / MemoryAudit).
  std::size_t memory_bytes() const {
    std::size_t bytes = rx_frame_.capacity() + train_.capacity() +
                        rx_constituents_.capacity() * sizeof(std::uint64_t);
    for (const auto& [sequence, partial] : partials_) {
      bytes += sizeof(Partial) + 4 * sizeof(void*);
      for (const auto& part : partial.parts) bytes += part.capacity();
      bytes += partial.parts.capacity() * sizeof(std::vector<std::uint8_t>);
    }
    return bytes;
  }
  /// Mutable pool access for engines that re-home a pool across tick
  /// phases (BufferPool::debug_release_owner).
  BufferPool& pool_mutable() { return *pool_; }
  void set_frame_observer(FrameObserver observer) {
    observer_ = std::move(observer);
  }

 protected:
  /// Transports at the two ends of one link share `pool` so buffers cycle
  /// sender -> link -> receiver -> pool -> sender; a null pool gets a
  /// private one.
  Transport(std::size_t mtu, std::shared_ptr<BufferPool> pool)
      : mtu_(mtu),
        pool_(pool ? std::move(pool) : std::make_shared<BufferPool>()) {}

  /// One datagram to / from the underlying link.
  virtual bool send_datagram(std::vector<std::uint8_t> frame) = 0;
  virtual std::optional<std::vector<std::uint8_t>> next_datagram() = 0;

  /// Buffer recycling seam. The defaults go through the link-shared pool;
  /// cross-shard transports (wire::ShardLink) override them to route spent
  /// receive buffers back to the sending shard through an SPSC ring, since
  /// a BufferPool itself is shard-local (see buffer_pool.hpp).
  virtual std::vector<std::uint8_t> acquire_buffer() {
    return pool_->acquire();
  }
  virtual void release_buffer(std::vector<std::uint8_t> buffer) {
    pool_->release(std::move(buffer));
  }

 private:
  bool send_frame(std::vector<std::uint8_t> frame, bool control);
  bool send_oversized(std::vector<std::uint8_t> frame, bool control);
  void append_to_train(std::vector<std::uint8_t> frame);
  bool take_datagram();
  std::optional<Message> absorb_fragment(Fragment fragment);

  struct Partial {
    std::vector<std::vector<std::uint8_t>> parts;
    std::size_t received = 0;
  };

  std::size_t mtu_;
  std::shared_ptr<BufferPool> pool_;
  TransportStats stats_;
  FrameObserver observer_;
  std::uint32_t next_sequence_ = 1;
  std::map<std::uint32_t, Partial> partials_;
  /// The last datagram taken from the link: views handed out by
  /// receive_frame() borrow it; released to the pool on the next take.
  /// A batched train datagram carries several frames; rx_offset_ tracks
  /// how far it has been sliced.
  std::vector<std::uint8_t> rx_frame_;
  bool rx_frame_live_ = false;
  std::size_t rx_offset_ = 0;
  /// Control-frame batching state (see set_batch_budget).
  std::size_t batch_budget_ = 0;
  std::vector<std::uint8_t> train_;
  bool train_live_ = false;
  /// Decoded recoded-symbol ids; RecodedSymbolView borrows this.
  std::vector<std::uint64_t> rx_constituents_;
};

/// A perfect in-process link: lossless, in-order, but still MTU-bounded so
/// byte accounting (and fragmentation of oversized summaries) matches what
/// a real datagram network would carry.
class Pipe {
 public:
  explicit Pipe(std::size_t mtu = 1500);

  /// The ends hold references into this object: copying or moving would
  /// silently alias (then dangle) the source's queues.
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  /// The two endpoint views. `a()` sends toward `b()` and vice versa.
  Transport& a() { return a_; }
  Transport& b() { return b_; }

 private:
  using Queue = util::RingBuffer<std::vector<std::uint8_t>>;

  class End : public Transport {
   public:
    End(std::size_t mtu, std::shared_ptr<BufferPool> pool, Queue& tx,
        Queue& rx)
        : Transport(mtu, std::move(pool)), tx_(tx), rx_(rx) {}

   protected:
    bool send_datagram(std::vector<std::uint8_t> frame) override;
    std::optional<std::vector<std::uint8_t>> next_datagram() override;

   private:
    Queue& tx_;
    Queue& rx_;
  };

  Queue a_to_b_;
  Queue b_to_a_;
  /// Shared by both ends so a buffer sent by `a` returns to the pool when
  /// `b` consumes it, ready for `a`'s next send. Declared before the ends.
  std::shared_ptr<BufferPool> pool_;
  End a_;
  End b_;
};

/// Transport view over one direction pair of LossyChannels. The channels
/// must outlive the transport.
class ChannelTransport : public Transport {
 public:
  /// MTU is taken from the outbound channel's config.
  ChannelTransport(LossyChannel& tx, LossyChannel& rx,
                   std::shared_ptr<BufferPool> pool = nullptr);

 protected:
  bool send_datagram(std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> next_datagram() override;

 private:
  LossyChannel& tx_;
  LossyChannel& rx_;
};

/// A bidirectional lossy link: two LossyChannels plus the two endpoint
/// transports over them, bundled so callers can stand up a per-edge link
/// from a pair of ChannelConfigs in one line.
class ChannelLink {
 public:
  /// Same shaping in both directions; the reverse channel gets a
  /// decorrelated seed.
  explicit ChannelLink(ChannelConfig both_ways);
  ChannelLink(ChannelConfig a_to_b, ChannelConfig b_to_a);
  /// As above, but the link borrows `pool` (shared with other links on the
  /// same thread — the engine lends each shard's pool to its local links)
  /// instead of owning a private one: a new link starts with warm buffers.
  /// A borrowed pool is not charged to memory_bytes(); its lender counts
  /// it once.
  ChannelLink(ChannelConfig both_ways, std::shared_ptr<BufferPool> pool);
  ~ChannelLink();

  /// The transports hold references into this object's channels: copying
  /// or moving would silently alias (then dangle) them.
  ChannelLink(const ChannelLink&) = delete;
  ChannelLink& operator=(const ChannelLink&) = delete;

  Transport& a() { return a_; }
  Transport& b() { return b_; }
  const LossyChannel& a_to_b() const { return a_to_b_; }
  const LossyChannel& b_to_a() const { return b_to_a_; }

  /// Makes both directions' in-flight frames deliverable immediately
  /// (teardown: nothing further will be sent, so neither the one-hop clock
  /// nor the virtual clock would ever release them).
  void flush() {
    a_to_b_.flush();
    b_to_a_.flush();
  }

  // --- Virtual clock (timed configs; no-ops otherwise) --------------------

  /// Either direction carries simulated-time shaping.
  bool timed() const { return a_to_b_.timed() || b_to_a_.timed(); }

  /// Advances both directions' virtual clocks (monotonic).
  void advance_to(std::uint64_t t) {
    a_to_b_.advance_to(t);
    b_to_a_.advance_to(t);
  }

  /// Earliest queued frame arrival in either direction — the link's next
  /// deliverable-frame event for the scheduler.
  std::optional<std::uint64_t> next_arrival_at() const {
    const auto forward = a_to_b_.next_arrival_at();
    const auto reverse = b_to_a_.next_arrival_at();
    if (!forward) return reverse;
    if (!reverse) return forward;
    return std::min(*forward, *reverse);
  }

  /// Send-credit probe for the serving (a -> b) direction.
  std::uint64_t a_send_ready_at(std::size_t bytes) const {
    return a_to_b_.send_ready_at(bytes);
  }

  /// The earliest virtual time at which either direction can deliver
  /// anything — the event-loop planning surface (see
  /// LossyChannel::next_event_time). nullopt = both directions provably
  /// drained.
  std::optional<std::uint64_t> next_event_time() const {
    const auto forward = a_to_b_.next_event_time();
    const auto reverse = b_to_a_.next_event_time();
    if (!forward) return reverse;
    if (!reverse) return forward;
    return std::min(*forward, *reverse);
  }

  /// Link blackout (fault injection): while set, both directions eat every
  /// send before any RNG draw — a full partition of this edge. Frames
  /// already in flight still arrive.
  void set_blackout(bool active) {
    a_to_b_.set_blackout(active);
    b_to_a_.set_blackout(active);
  }

  /// Heap bytes the whole edge pins: both channels' queued frames, both
  /// transports' reassembly/scratch state, and an owned BufferPool
  /// charged exactly once (the transports exclude it; see
  /// Transport::memory_bytes). A borrowed pool is its lender's to count.
  std::size_t memory_bytes() const {
    return a_to_b_.memory_bytes() + b_to_a_.memory_bytes() +
           (pool_borrowed_ ? 0 : pool_->memory_bytes()) + a_.memory_bytes() +
           b_.memory_bytes();
  }

 private:
  ChannelLink(ChannelConfig a_to_b, ChannelConfig b_to_a,
              std::shared_ptr<BufferPool> pool, bool borrowed);

  LossyChannel a_to_b_;
  LossyChannel b_to_a_;
  /// Shared by both ends, as in Pipe; frames the channels drop are simply
  /// freed.
  std::shared_ptr<BufferPool> pool_;
  bool pool_borrowed_;
  ChannelTransport a_;
  ChannelTransport b_;
};

}  // namespace icd::wire
