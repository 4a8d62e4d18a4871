#include "wire/shard_link.hpp"

#include "util/hash.hpp"

namespace icd::wire {

namespace {

ChannelConfig decorrelated(ChannelConfig config) {
  config.seed = util::mix64(config.seed.value_or(kDefaultChannelSeed) ^
                            0x9e3779b97f4a7c15ULL);
  return config;
}

}  // namespace

ShardLink::ShardLink(ChannelConfig both_ways)
    : ShardLink(both_ways, decorrelated(both_ways)) {}

ShardLink::ShardLink(ChannelConfig a_to_b, ChannelConfig b_to_a)
    : a_to_b_(kRingFrames), b_to_a_(kRingFrames),
      a_(a_to_b, a_to_b_, b_to_a_), b_(b_to_a, b_to_a_, a_to_b_) {}

void ShardLink::flush() {
  a_.flush_held();
  b_.flush_held();
}

ShardLink::End::End(ChannelConfig config, Direction& out, Direction& in)
    : Transport(config.mtu, /*pool=*/nullptr), out_(out), in_(in),
      config_(config),
      rng_(config.seed.value_or(kDefaultChannelSeed)), shaper_(config) {
  if (config_.gilbert_elliott()) ge_.emplace(config_);
}

void ShardLink::End::enqueue(std::vector<std::uint8_t> frame) {
  if (!out_.frames_ring.try_push(frame)) {
    ++overflow_drops_;
    release_buffer(std::move(frame));
  }
}

bool ShardLink::End::send_datagram(std::vector<std::uint8_t> frame) {
  if (frame.size() > config_.mtu) return false;
  // Blackout (fault injection) eats the frame before any RNG draw,
  // exactly as LossyChannel does, so local and cross-shard links drop the
  // same frames.
  if (blackout_) {
    release_buffer(std::move(frame));
    return true;
  }
  if (config_.timed()) {
    // Timed shaping mirrors LossyChannel's virtual clock — including its
    // RNG draw pattern (an unconditional loss draw per frame), so a
    // download shaped by either link type consumes identical draw
    // sequences: pace the departure (lost frames consumed link capacity
    // too), schedule the arrival (reorder draws swap adjacent arrivals),
    // and hold the frame in the sender-local delay line until its tick —
    // advance_to()/commit_through() is what commits it to the ring.
    const std::size_t size = frame.size();
    const std::uint64_t depart = shaper_.pace_departure(size);
    if (ge_ ? ge_->drop(rng_) : rng_.next_bool(config_.loss_rate)) {
      release_buffer(std::move(frame));
      return true;
    }
    const bool reorder = config_.reorder_rate > 0.0 &&
                         rng_.next_bool(config_.reorder_rate);
    delayed_.insert(
        TimedFrame{shaper_.schedule_arrival(depart, size, rng_), next_seq_++,
                   std::move(frame)},
        reorder);
    release_arrived();
    return true;
  }
  // Loss and reordering are drawn sender-side (single-threaded per
  // direction); a dropped frame still counted as sent by the base class,
  // matching LossyChannel's "handed to the link" semantics.
  if (ge_ ? ge_->drop(rng_) : rng_.next_bool(config_.loss_rate)) {
    release_buffer(std::move(frame));
    return true;
  }
  // One-hop residency, mirroring LossyChannel's event clock: the new
  // frame pushes its predecessor out of flight and onto the ring (the two
  // may swap — adjacent reordering); the frame itself stays in flight
  // until displaced or until the owner's next advance completes the hop.
  if (held_) {
    std::vector<std::uint8_t> predecessor = std::move(*held_);
    held_ = std::move(frame);
    if (config_.reorder_rate > 0.0 && rng_.next_bool(config_.reorder_rate)) {
      std::swap(predecessor, *held_);
    }
    enqueue(std::move(predecessor));
  } else {
    held_ = std::move(frame);
  }
  held_tick_ = shaper_.now();
  return true;
}

void ShardLink::End::flush_held() {
  if (held_) {
    std::vector<std::uint8_t> delayed = std::move(*held_);
    held_.reset();
    enqueue(std::move(delayed));
  }
  // Teardown: the delay line empties regardless of arrival ticks (nothing
  // will advance the clock again).
  while (auto frame = delayed_.pop_any()) {
    enqueue(std::move(*frame));
  }
}

void ShardLink::End::release_arrived() {
  while (auto frame = delayed_.pop_due(shaper_.now())) {
    enqueue(std::move(*frame));
  }
}

void ShardLink::End::advance_to(std::uint64_t t) {
  shaper_.advance_to(t);
  if (held_ && t > held_tick_) {
    // The hop completes: LossyChannel's "an empty receive advances the
    // event clock", decided producer-side from the tick alone (the
    // consuming phase drains to empty every tick it runs).
    std::vector<std::uint8_t> frame = std::move(*held_);
    held_.reset();
    enqueue(std::move(frame));
  }
  release_arrived();
}

void ShardLink::End::commit_through(std::uint64_t t) {
  // Push-only look-ahead (the clock stays put): frames whose arrival is
  // due by t cross the ring now so the peer end can drain them in its
  // next phase — see ShardLink::commit_b_through.
  while (auto frame = delayed_.pop_due(t)) {
    enqueue(std::move(*frame));
  }
}

std::optional<std::vector<std::uint8_t>> ShardLink::End::next_datagram() {
  return in_.frames_ring.try_pop();
}

std::vector<std::uint8_t> ShardLink::End::acquire_buffer() {
  // Prefer a buffer the peer shard recycled from our earlier frames; the
  // shard-local pool is the cold-start (and overflow) fallback.
  if (auto buffer = out_.recycle.try_pop()) {
    buffer->clear();
    return std::move(*buffer);
  }
  return Transport::acquire_buffer();
}

void ShardLink::End::release_buffer(std::vector<std::uint8_t> buffer) {
  // Spent buffers travel back toward the shard that allocated the frames
  // we consume; a full recycle ring falls back to the local pool.
  if (in_.recycle.try_push(buffer)) return;
  Transport::release_buffer(std::move(buffer));
}

}  // namespace icd::wire
