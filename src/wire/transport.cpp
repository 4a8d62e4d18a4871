#include "wire/transport.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/hash.hpp"

namespace icd::wire {

bool Transport::send(const Message& message) {
  // Symbol messages take the view fast path (byte-identical frames, same
  // accounting).
  if (const auto* encoded = std::get_if<EncodedSymbolMessage>(&message)) {
    return send(codec::EncodedSymbolView(encoded->symbol));
  }
  if (const auto* recoded = std::get_if<RecodedSymbolMessage>(&message)) {
    return send(codec::RecodedSymbolView(recoded->symbol));
  }
  util::ByteWriter writer(acquire_buffer());
  encode_frame_into(writer, message);
  auto frame = writer.take();
  const bool control = !is_data_type(message_type(message));
  if (frame.size() > mtu_) return send_oversized(std::move(frame), control);
  if (control && batch_budget_ > 0 &&
      frame.size() <= std::min(batch_budget_, mtu_)) {
    append_to_train(std::move(frame));
    ++stats_.messages_sent;
    return true;
  }
  // Unbatched frames overtake nothing: ship the pending train first.
  flush_batch();
  if (!send_frame(std::move(frame), control)) return false;
  ++stats_.messages_sent;
  return true;
}

bool Transport::send(const codec::EncodedSymbolView& symbol) {
  flush_batch();
  util::ByteWriter writer(acquire_buffer());
  encode_frame_into(writer, symbol);
  auto frame = writer.take();
  if (frame.size() > mtu_) return send_oversized(std::move(frame), false);
  if (!send_frame(std::move(frame), false)) return false;
  ++stats_.messages_sent;
  return true;
}

bool Transport::send(const codec::RecodedSymbolView& symbol) {
  flush_batch();
  util::ByteWriter writer(acquire_buffer());
  encode_frame_into(writer, symbol);
  auto frame = writer.take();
  if (frame.size() > mtu_) return send_oversized(std::move(frame), false);
  if (!send_frame(std::move(frame), false)) return false;
  ++stats_.messages_sent;
  return true;
}

void Transport::append_to_train(std::vector<std::uint8_t> frame) {
  const std::size_t limit = std::min(batch_budget_, mtu_);
  if (train_live_ && train_.size() + frame.size() > limit) flush_batch();
  if (!train_live_) {
    train_ = acquire_buffer();
    train_.clear();
    train_live_ = true;
  }
  train_.insert(train_.end(), frame.begin(), frame.end());
  release_buffer(std::move(frame));
}

bool Transport::flush_batch() {
  if (!train_live_) return true;
  train_live_ = false;
  std::vector<std::uint8_t> train = std::move(train_);
  train_ = {};
  return send_frame(std::move(train), /*control=*/true);
}

bool Transport::send_oversized(std::vector<std::uint8_t> frame, bool control) {
  // Fragments are MTU-sized already, so they travel unbatched — but the
  // pending train must depart first to preserve frame order.
  flush_batch();
  // Packetize: slice the oversized frame into Fragment messages, each of
  // which fits the MTU with room for its own header.
  if (mtu_ <= kFragmentOverhead) {
    ++stats_.frames_refused;
    release_buffer(std::move(frame));
    return false;
  }
  const std::size_t chunk = mtu_ - kFragmentOverhead;
  const std::size_t count = (frame.size() + chunk - 1) / chunk;
  if (count > std::numeric_limits<std::uint16_t>::max()) {
    ++stats_.frames_refused;
    release_buffer(std::move(frame));
    return false;
  }
  const std::uint32_t sequence = next_sequence_++;
  const std::span<const std::uint8_t> whole(frame);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t begin = i * chunk;
    const std::size_t end = std::min(frame.size(), begin + chunk);
    util::ByteWriter writer(acquire_buffer());
    encode_frame_into(writer,
                      FragmentView{sequence, static_cast<std::uint16_t>(i),
                                   static_cast<std::uint16_t>(count),
                                   whole.subspan(begin, end - begin)});
    if (!send_frame(writer.take(), control)) {
      release_buffer(std::move(frame));
      return false;
    }
  }
  release_buffer(std::move(frame));
  ++stats_.messages_sent;
  return true;
}

bool Transport::send_frame(std::vector<std::uint8_t> frame, bool control) {
  const std::size_t size = frame.size();
  if (observer_) observer_(frame, control);
  if (!send_datagram(std::move(frame))) {
    ++stats_.frames_refused;
    return false;
  }
  ++stats_.frames_sent;
  stats_.bytes_sent += size;
  if (control) {
    ++stats_.control_frames_sent;
    stats_.control_bytes_sent += size;
  } else {
    ++stats_.data_frames_sent;
    stats_.data_bytes_sent += size;
  }
  return true;
}

bool Transport::take_datagram() {
  // Views handed out by the previous receive die here: the frame they
  // borrow goes back to the pool for the sender to recycle.
  if (rx_frame_live_) {
    release_buffer(std::move(rx_frame_));
    rx_frame_ = {};
    rx_frame_live_ = false;
  }
  auto datagram = next_datagram();
  if (!datagram) return false;
  rx_frame_ = std::move(*datagram);
  rx_frame_live_ = true;
  rx_offset_ = 0;
  ++stats_.frames_received;
  stats_.bytes_received += rx_frame_.size();
  return true;
}

std::optional<Transport::ReceivedFrame> Transport::receive_frame() {
  while (true) {
    // A datagram may be a batched train of several frames: slice the next
    // frame off it, taking a fresh datagram once this one is consumed.
    if (!rx_frame_live_ || rx_offset_ >= rx_frame_.size()) {
      if (!take_datagram()) return std::nullopt;
    }
    const std::span<const std::uint8_t> rest(
        rx_frame_.data() + rx_offset_, rx_frame_.size() - rx_offset_);
    std::span<const std::uint8_t> frame;
    try {
      frame = rest.first(frame_size(rest));
    } catch (const std::invalid_argument&) {
      // Can't even delimit the next frame: drop the rest of the datagram.
      ++stats_.malformed_frames;
      rx_offset_ = rx_frame_.size();
      continue;
    }
    rx_offset_ += frame.size();
    // Symbol frames (the overwhelming majority in transfer) decode in
    // place; only control frames take the owning decode_frame path.
    try {
      if (auto symbol = decode_symbol_frame(frame, rx_constituents_)) {
        ++stats_.messages_received;
        if (symbol->encoded) return ReceivedFrame{*symbol->encoded};
        return ReceivedFrame{*symbol->recoded};
      }
    } catch (const std::invalid_argument&) {
      ++stats_.malformed_frames;
      continue;
    }
    Message message;
    try {
      message = decode_frame(frame);
    } catch (const std::invalid_argument&) {
      ++stats_.malformed_frames;
      continue;
    }
    if (auto* fragment = std::get_if<Fragment>(&message)) {
      if (auto whole = absorb_fragment(std::move(*fragment))) {
        ++stats_.messages_received;
        return ReceivedFrame{std::move(*whole)};
      }
      continue;
    }
    ++stats_.messages_received;
    return ReceivedFrame{std::move(message)};
  }
}

std::optional<Message> Transport::receive() {
  auto frame = receive_frame();
  if (!frame) return std::nullopt;
  if (auto* message = std::get_if<Message>(&*frame)) {
    return std::move(*message);
  }
  if (auto* encoded = std::get_if<codec::EncodedSymbolView>(&*frame)) {
    return EncodedSymbolMessage{codec::EncodedSymbol{
        encoded->id,
        {encoded->payload.begin(), encoded->payload.end()}}};
  }
  const auto& recoded = std::get<codec::RecodedSymbolView>(*frame);
  return RecodedSymbolMessage{codec::RecodedSymbol{
      {recoded.constituents.begin(), recoded.constituents.end()},
      {recoded.payload.begin(), recoded.payload.end()}}};
}

std::optional<Message> Transport::absorb_fragment(Fragment fragment) {
  if (fragment.total == 0 || fragment.index >= fragment.total) {
    ++stats_.malformed_frames;
    return std::nullopt;
  }
  // Bound reassembly memory before inserting a new sequence: evict the
  // oldest partial (its siblings were lost or hopelessly delayed; the
  // endpoints' retry path re-sends). Evicting first guarantees the entry
  // we are about to use is never the one destroyed.
  if (partials_.size() >= kMaxPartialReassemblies &&
      !partials_.contains(fragment.sequence)) {
    auto oldest = partials_.begin();
    stats_.stale_fragments += oldest->second.received;
    partials_.erase(oldest);
  }
  auto [it, inserted] = partials_.try_emplace(fragment.sequence);
  Partial& partial = it->second;
  if (inserted) {
    partial.parts.resize(fragment.total);
  } else if (partial.parts.size() != fragment.total) {
    ++stats_.malformed_frames;
    return std::nullopt;
  }
  auto& slot = partial.parts[fragment.index];
  if (!slot.empty()) return std::nullopt;  // duplicate
  slot = std::move(fragment.data);
  if (slot.empty()) {
    // An empty slice can never complete; treat as malformed.
    ++stats_.malformed_frames;
    partials_.erase(it);
    return std::nullopt;
  }
  if (++partial.received < partial.parts.size()) return std::nullopt;

  std::size_t size = 0;
  for (const auto& part : partial.parts) size += part.size();
  std::vector<std::uint8_t> whole;
  whole.reserve(size);
  for (const auto& part : partial.parts) {
    whole.insert(whole.end(), part.begin(), part.end());
  }
  partials_.erase(it);
  try {
    return decode_frame(whole);
  } catch (const std::invalid_argument&) {
    ++stats_.malformed_frames;
    return std::nullopt;
  }
}

Pipe::Pipe(std::size_t mtu)
    : pool_(std::make_shared<BufferPool>()),
      a_(mtu, pool_, a_to_b_, b_to_a_), b_(mtu, pool_, b_to_a_, a_to_b_) {}

bool Pipe::End::send_datagram(std::vector<std::uint8_t> frame) {
  tx_.push_back(std::move(frame));
  return true;
}

std::optional<std::vector<std::uint8_t>> Pipe::End::next_datagram() {
  if (rx_.empty()) return std::nullopt;
  return rx_.pop_front();
}

ChannelTransport::ChannelTransport(LossyChannel& tx, LossyChannel& rx,
                                   std::shared_ptr<BufferPool> pool)
    : Transport(tx.config().mtu, std::move(pool)), tx_(tx), rx_(rx) {}

bool ChannelTransport::send_datagram(std::vector<std::uint8_t> frame) {
  return tx_.send(std::move(frame));
}

std::optional<std::vector<std::uint8_t>> ChannelTransport::next_datagram() {
  // An empty receive is the channel's clock: the frame in flight becomes
  // deliverable on the *next* drain (one-hop minimum queue residency).
  auto frame = rx_.receive();
  if (frame.empty()) return std::nullopt;
  return frame;
}

namespace {

ChannelConfig decorrelated(ChannelConfig config) {
  config.seed = util::mix64(config.seed.value_or(kDefaultChannelSeed) ^
                            0x9e3779b97f4a7c15ULL);
  return config;
}

}  // namespace

ChannelLink::ChannelLink(ChannelConfig both_ways)
    : ChannelLink(both_ways, decorrelated(both_ways)) {}

ChannelLink::ChannelLink(ChannelConfig a_to_b, ChannelConfig b_to_a)
    : ChannelLink(a_to_b, b_to_a, std::make_shared<BufferPool>(),
                  /*borrowed=*/false) {}

ChannelLink::ChannelLink(ChannelConfig both_ways,
                         std::shared_ptr<BufferPool> pool)
    : ChannelLink(both_ways, decorrelated(both_ways), std::move(pool),
                  /*borrowed=*/true) {}

ChannelLink::ChannelLink(ChannelConfig a_to_b, ChannelConfig b_to_a,
                         std::shared_ptr<BufferPool> pool, bool borrowed)
    : a_to_b_(a_to_b), b_to_a_(b_to_a), pool_(std::move(pool)),
      pool_borrowed_(borrowed), a_(a_to_b_, b_to_a_, pool_),
      b_(b_to_a_, a_to_b_, pool_) {
  if (pool_borrowed_) pool_->add_borrower();
}

ChannelLink::~ChannelLink() {
  if (pool_borrowed_) pool_->remove_borrower();
}

}  // namespace icd::wire
