#include "core/endpoint.hpp"

#include <algorithm>
#include <stdexcept>

#include "reconcile/set_difference.hpp"

namespace icd::core {

namespace {

codec::DegreeDistribution make_recode_distribution(std::size_t domain_size,
                                                   std::size_t cap) {
  return codec::DegreeDistribution::robust_soliton(
             std::max<std::size_t>(domain_size, 2))
      .truncated(cap);
}

}  // namespace

// --- ReceiverEndpoint ------------------------------------------------------

ReceiverEndpoint::ReceiverEndpoint(Peer& peer, SessionOptions options,
                                   wire::Transport& transport)
    : peer_(peer), options_(options), transport_(transport) {}

void ReceiverEndpoint::start() {
  started_ = true;
  phase_ = EndpointPhase::kEstimate;
  send_bundle();
}

namespace {

/// (Re)fills a cached SketchMessage with the peer's current sketch —
/// copy-assignment into the cached minima vector reuses its capacity, so
/// only the very first bundle of a session allocates for the sketch.
const wire::Message& refresh_sketch_scratch(
    std::optional<wire::Message>& scratch, const Peer& peer) {
  if (!scratch) {
    scratch.emplace(wire::SketchMessage{peer.sketch()});
  } else {
    std::get<wire::SketchMessage>(*scratch).sketch = peer.sketch();
  }
  return *scratch;
}

}  // namespace

void ReceiverEndpoint::send_bundle() {
  const auto& params = peer_.parameters();
  transport_.send(wire::Hello{params.block_count, params.session_seed,
                              peer_.symbol_count()});
  transport_.send(refresh_sketch_scratch(sketch_scratch_, peer_));
  if (strategy_uses_bloom(options_.strategy)) {
    if (!summary_cache_) {
      if (options_.summary == SummaryKind::kBloomFilter) {
        summary_cache_ = wire::BloomSummaryMessage{
            peer_.bloom_summary(options_.bloom_bits_per_element)};
      } else {
        summary_cache_ = wire::ArtSummaryMessage{
            peer_.art_summary(options_.art_leaf_bits_per_element,
                              options_.art_internal_bits_per_element)};
      }
    }
    transport_.send(*summary_cache_);
  }
  // The Request closes the bundle: the sender replies only once it has
  // everything, so a re-sent Request re-triggers the reply.
  transport_.send(wire::Request{options_.requested_symbols});
}

std::size_t ReceiverEndpoint::tick() {
  if (!started_) {
    throw std::logic_error("ReceiverEndpoint::tick before start");
  }
  // Elapsed quiet credit for this service: one call on the call-counting
  // clock, the virtual span since the last service once advance_to() has
  // armed the virtual clock — identical under a lockstep driver, credited
  // in one step by a jumping driver whose skipped ticks were provably
  // quiet. Computed up front so both the handshake retry clock and the
  // transfer liveness clock share one definition of "elapsed".
  std::size_t elapsed = 1;
  if (clock_) {
    if (serviced_at_ && *clock_ > *serviced_at_) {
      elapsed = static_cast<std::size_t>(*clock_ - *serviced_at_);
    }
    serviced_at_ = *clock_;
  }
  std::size_t gained = 0;
  std::size_t frames_seen = 0;
  // Zero-copy drain: symbol frames arrive as views into the transport's
  // receive buffer and are copied exactly once, into the peer's decoder;
  // only control frames materialize owning Messages.
  while (auto frame = transport_.receive_frame()) {
    ++frames_seen;
    std::size_t got = 0;
    bool was_symbol = true;
    if (auto* encoded = std::get_if<codec::EncodedSymbolView>(&*frame)) {
      got = peer_.receive_encoded(*encoded);
    } else if (auto* recoded =
                   std::get_if<codec::RecodedSymbolView>(&*frame)) {
      got = peer_.receive_recoded(*recoded);
    } else {
      was_symbol = false;
      auto& message = std::get<wire::Message>(*frame);
      if (auto* hello = std::get_if<wire::Hello>(&message)) {
        if (hello->block_count != peer_.parameters().block_count ||
            hello->session_seed != peer_.parameters().session_seed) {
          throw std::invalid_argument(
              "ReceiverEndpoint: sender uses a different code");
        }
        sender_hello_ = *hello;
      } else if (auto* sketch = std::get_if<wire::SketchMessage>(&message)) {
        // Buffered: a reordered link can deliver the sketch before the
        // Hello that carries the working-set size the estimate needs.
        sender_sketch_ = std::move(sketch->sketch);
      } else if (auto* encoded_msg =
                     std::get_if<wire::EncodedSymbolMessage>(&message)) {
        // Symbols larger than the link MTU arrive fragment-reassembled as
        // owning messages instead of views.
        was_symbol = true;
        got = peer_.receive_encoded(encoded_msg->symbol);
      } else if (auto* recoded_msg =
                     std::get_if<wire::RecodedSymbolMessage>(&message)) {
        was_symbol = true;
        got = peer_.receive_recoded(recoded_msg->symbol);
      }
      // Anything else (stray Request/summary echoes) is ignored.
    }
    if (was_symbol) {
      ++symbols_received_;
      if (got > 0) ++symbols_useful_;
      new_encoded_symbols_ += got;
      gained += got;
    }
  }

  if (sender_hello_ && sender_sketch_) {
    if (!containment_estimated_) {
      const double resemblance = sketch::MinwiseSketch::resemblance(
          peer_.sketch(), *sender_sketch_);
      estimated_containment_ = sketch::containment_from_resemblance(
          resemblance, peer_.symbol_count(), sender_hello_->working_set_size);
      containment_estimated_ = true;
    }
    phase_ = EndpointPhase::kTransfer;
    // Transfer reached: the buffered sender sketch and the cached
    // handshake bundle (summary + sketch scratch) are never sent or read
    // again — retries only run pre-transfer. Freeing them here is what
    // keeps per-receiver memory flat at 10k+ peers; a duplicate sender
    // reply merely re-buffers the sketch until the next service.
    sender_sketch_.reset();
    summary_cache_.reset();
    sketch_scratch_.reset();
  }

  // Request/retry path: until the sender's reply lands, re-send the whole
  // bundle periodically — any piece of it may have been lost. The clock
  // deliberately ignores arriving traffic: symbols can already be
  // streaming while the (lost) reply is what keeps us out of kTransfer.
  // A service with a stale clock (teardown ticks) counts as one quiet
  // tick, as it always has. Each retry stretches the cadence by the
  // backoff factor (capped); an exhausted retry budget fails the session
  // instead of retrying forever against a permanently dead sender.
  if (phase_ != EndpointPhase::kTransfer && !failed_) {
    quiet_ticks_ += elapsed;
    if (quiet_ticks_ >= retry_interval()) {
      if (options_.max_handshake_retries > 0 &&
          handshake_retries_ >= options_.max_handshake_retries) {
        failed_ = true;
      } else {
        quiet_ticks_ = 0;
        ++handshake_retries_;
        send_bundle();
      }
    }
  }
  // Sender-liveness: in transfer, silence past the timeout flags the
  // sender suspect. Any arriving frame — data or control — is evidence of
  // life; a satisfied receiver expects silence and never suspects.
  if (options_.liveness_timeout_ticks > 0 &&
      phase_ == EndpointPhase::kTransfer && !satisfied()) {
    if (frames_seen > 0) {
      quiet_transfer_ticks_ = 0;
    } else {
      quiet_transfer_ticks_ += elapsed;
      if (quiet_transfer_ticks_ >= options_.liveness_timeout_ticks) {
        sender_suspect_ = true;
      }
    }
  }
  if (options_.flow_control && phase_ == EndpointPhase::kTransfer) {
    maybe_send_flow_update();
  }
  return gained;
}

void ReceiverEndpoint::maybe_send_flow_update() {
  // The closing update (zero remaining) stops the sender. It can be lost;
  // the retry signal is the data plane itself — while symbols keep
  // arriving the sender evidently has not heard, so the stop is re-issued
  // every flow_update_symbols further arrivals. Symbols already in flight
  // over the link's RTT cost at most a handful of redundant updates.
  if (satisfied()) {
    if (!satisfied_sent_ ||
        symbols_received_ - received_at_stop_ >= options_.flow_update_symbols) {
      transport_.send(wire::RequestUpdate{0});
      satisfied_sent_ = true;
      received_at_stop_ = symbols_received_;
      ++flow_updates_sent_;
    }
    return;
  }
  // Decrement-count re-issues only make sense against a bounded request.
  if (options_.requested_symbols == 0) return;
  if (new_encoded_symbols_ - acked_symbols_ < options_.flow_update_symbols) {
    return;
  }
  acked_symbols_ = new_encoded_symbols_;
  transport_.send(wire::RequestUpdate{options_.requested_symbols -
                                      new_encoded_symbols_});
  ++flow_updates_sent_;
}

// --- SenderEndpoint --------------------------------------------------------

SenderEndpoint::SenderEndpoint(Peer& peer, SessionOptions options,
                               wire::Transport& transport)
    : peer_(peer), options_(options), transport_(transport),
      rng_(options.seed) {}

bool SenderEndpoint::bundle_complete() const {
  if (!receiver_hello_ || !receiver_sketch_ || !request_seen_) return false;
  if (strategy_uses_bloom(options_.strategy) && !receiver_bloom_ &&
      !receiver_art_) {
    return false;
  }
  return true;
}

void SenderEndpoint::tick() {
  while (auto frame = transport_.receive_frame()) {
    auto* message = std::get_if<wire::Message>(&*frame);
    if (!message) continue;  // stray symbol frames carry nothing for us
    if (auto* hello = std::get_if<wire::Hello>(&*message)) {
      if (hello->block_count != peer_.parameters().block_count ||
          hello->session_seed != peer_.parameters().session_seed) {
        throw std::invalid_argument(
            "SenderEndpoint: receiver uses a different code");
      }
      receiver_hello_ = *hello;
    } else if (auto* sketch = std::get_if<wire::SketchMessage>(&*message)) {
      // The decoded message is ours: move, don't copy, the summaries.
      receiver_sketch_ = std::move(sketch->sketch);
    } else if (auto* bloom =
                   std::get_if<wire::BloomSummaryMessage>(&*message)) {
      receiver_bloom_ = std::move(bloom->filter);
    } else if (auto* art = std::get_if<wire::ArtSummaryMessage>(&*message)) {
      receiver_art_ = std::move(art->summary);
    } else if (auto* request = std::get_if<wire::Request>(&*message)) {
      symbols_desired_ = request->symbols_desired;
      request_seen_ = true;
      reply_due_ = true;  // each (re)sent bundle earns a reply
    } else if (auto* update = std::get_if<wire::RequestUpdate>(&*message)) {
      receiver_remaining_ = update->symbols_remaining;
      if (update->symbols_remaining == 0) satisfied_ = true;
    }
  }

  // Transfer first: once the handshake is digested the buffered summaries
  // are released (finish_handshake), so bundle_complete() no longer holds
  // — but in transfer the only work left is answering re-sent bundles.
  // Pre-release this ordering is equivalent to checking bundle_complete()
  // first, because the buffered pieces were sticky once transfer began.
  if (phase_ == EndpointPhase::kTransfer) {
    if (reply_due_) send_reply();
    reply_due_ = false;
    release_handshake_summaries();  // drop any re-buffered duplicates
    return;
  }
  if (!bundle_complete()) {
    if (receiver_hello_ || receiver_sketch_) {
      phase_ = strategy_uses_bloom(options_.strategy)
                   ? EndpointPhase::kSummarize
                   : EndpointPhase::kEstimate;
    }
    return;
  }
  finish_handshake();
  reply_due_ = false;
}

void SenderEndpoint::finish_handshake() {
  using overlay::Strategy;

  // Estimate: containment of the receiver's working set in ours.
  const double resemblance = sketch::MinwiseSketch::resemblance(
      *receiver_sketch_, peer_.sketch());
  estimated_containment_ = sketch::containment_from_resemblance(
      resemblance, receiver_hello_->working_set_size, peer_.symbol_count());

  // Summarize: digest the Bloom/ART summary into the filtered domain.
  if (strategy_uses_bloom(options_.strategy)) {
    if (receiver_bloom_) {
      domain_ =
          reconcile::bloom_set_difference(peer_.symbol_ids(), *receiver_bloom_);
    } else {
      domain_ = art::find_local_differences(peer_.reconciliation_tree(),
                                            *receiver_art_,
                                            options_.art_correction);
    }
    // Recode/BF: restrict the recoding domain to the receiver's request
    // ("we restrict the recoding domain to an appropriate small size").
    if (options_.strategy == Strategy::kRecodeBloom && symbols_desired_ > 0 &&
        domain_.size() > symbols_desired_) {
      util::shuffle(domain_, rng_);
      domain_.resize(symbols_desired_);
      std::sort(domain_.begin(), domain_.end());
    }
    // Every domain id is held (a subset of symbol_ids()), and the held set
    // only grows: resolve the payloads once for the whole session.
    peer_.resolve_payloads(domain_, domain_payloads_);
    recode_distribution_ = make_recode_distribution(
        std::max<std::size_t>(domain_.size(), 2), options_.recode_degree_limit);
  } else {
    recode_distribution_ = make_recode_distribution(
        peer_.symbol_count(), options_.recode_degree_limit);
  }

  phase_ = EndpointPhase::kTransfer;
  send_reply();
  // The sketch and summary are fully digested into estimated_containment_
  // and domain_; free the per-session copies (the dominant sender-side
  // cost at scale). sketch_scratch_ stays — send_reply reuses it for
  // every re-sent bundle's reply.
  release_handshake_summaries();
}

void SenderEndpoint::send_reply() {
  const auto& params = peer_.parameters();
  transport_.send(wire::Hello{params.block_count, params.session_seed,
                              peer_.symbol_count()});
  transport_.send(refresh_sketch_scratch(sketch_scratch_, peer_));
}

bool SenderEndpoint::send_symbol() {
  using overlay::Strategy;
  if (phase_ != EndpointPhase::kTransfer) return false;
  // Flow control: a satisfied receiver has said stop; serve nothing more.
  if (satisfied_) return false;
  // An empty working set has nothing to serve — every strategy below
  // would otherwise throw from sampling/recoding over zero held symbols.
  if (peer_.symbol_count() == 0) return false;

  // A false from the transport means the frame could not be put on the
  // wire at all (e.g. the MTU cannot fit even one fragment) — distinct
  // from channel loss, which the transport reports as sent.
  //
  // Every branch serializes straight from borrowed storage (the peer's
  // decoder for encoded symbols, recode_scratch_ for recoded ones) into a
  // pooled transport buffer: the steady-state send allocates nothing.
  //
  // The filtered strategies fall back to the whole working set when the
  // summary left no domain; either way ids and payloads are parallel and
  // already resolved, so no branch probes a hash per symbol.
  bool sent = false;
  const bool whole_set = domain_.empty();
  const auto& ids = whole_set ? peer_.symbol_ids() : domain_;
  const auto& payloads = whole_set ? peer_.held_payloads() : domain_payloads_;
  switch (options_.strategy) {
    case Strategy::kRandom:
    case Strategy::kRandomBloom: {
      const std::size_t pick = rng_.next_below(ids.size());
      sent = transport_.send(
          codec::EncodedSymbolView{ids[pick], *payloads[pick]});
      break;
    }
    case Strategy::kRecode:
    case Strategy::kRecodeMinwise: {
      std::size_t degree = recode_distribution_->sample(rng_);
      if (options_.strategy == Strategy::kRecodeMinwise) {
        degree = codec::minwise_recode_degree(degree, estimated_containment_,
                                              options_.recode_degree_limit);
      }
      peer_.recode_into(recode_scratch_, degree, rng_);
      sent = transport_.send(codec::RecodedSymbolView(recode_scratch_));
      break;
    }
    case Strategy::kRecodeBloom: {
      const std::size_t degree = recode_distribution_->sample(rng_);
      peer_.recode_resolved_into(recode_scratch_, ids, payloads, degree, rng_);
      sent = transport_.send(codec::RecodedSymbolView(recode_scratch_));
      break;
    }
  }
  if (!sent) return false;
  ++symbols_sent_;
  return true;
}

}  // namespace icd::core
