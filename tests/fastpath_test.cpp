// Tests for the zero-allocation symbol fast path: the word-wise XOR kernel
// against its scalar reference, BufferPool recycling and hygiene, pooled
// transport buffers (aliasing / reuse-after-release), a lent pool's
// link-proportional bound, exact-size control frames, the channel's
// one-hop queue residency, and the steady-state allocation guarantee of
// the endpoint send path.
//
// This binary replaces global operator new/delete with counting versions;
// keep it free of death tests and threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "codec/block_source.hpp"
#include "codec/inactivation.hpp"
#include "codec/symbol.hpp"
#include "core/endpoint.hpp"
#include "core/origin.hpp"
#include "core/peer.hpp"
#include "core/session.hpp"
#include "filter/bloom.hpp"
#include "sketch/minwise.hpp"
#include "util/buffer.hpp"
#include "util/random.hpp"
#include "wire/buffer_pool.hpp"
#include "wire/channel.hpp"
#include "wire/message.hpp"
#include "wire/transport.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
// Payload-copy accounting: allocations at least g_large_threshold bytes
// count separately, so tests can budget "one payload-sized copy per
// symbol" without noise from small container nodes.
std::atomic<std::size_t> g_large_allocations{0};
std::atomic<std::size_t> g_large_threshold{SIZE_MAX};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size >= g_large_threshold.load(std::memory_order_relaxed)) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size >= g_large_threshold.load(std::memory_order_relaxed)) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = ((size ? size : 1) + alignment - 1) /
                              alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace icd {
namespace {

// --- Word-wise XOR kernel ---------------------------------------------------

/// Byte-at-a-time ground truth for xor_bytes.
void xor_bytes_scalar(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

TEST(XorKernel, MatchesScalarReferenceIncludingOddTails) {
  util::Xoshiro256 rng(0xfa57);
  // Every length from 0 through a few words + every tail remainder, plus a
  // large buffer; word-wise and scalar must agree bit-for-bit.
  for (std::size_t n = 0; n <= 40; ++n) {
    std::vector<std::uint8_t> a(n), b(n);
    for (auto& v : a) v = static_cast<std::uint8_t>(rng());
    for (auto& v : b) v = static_cast<std::uint8_t>(rng());
    auto expected = a;
    xor_bytes_scalar(expected.data(), b.data(), n);
    codec::xor_bytes(a.data(), b.data(), n);
    EXPECT_EQ(a, expected) << "length " << n;
  }
  // The widened kernel consumes 32-byte blocks before the word and byte
  // tails: hit every boundary (block edge, block+word, block+word+bytes)
  // and odd tails at scale.
  for (const std::size_t n :
       {31u, 32u, 33u, 39u, 40u, 41u, 63u, 64u, 65u, 95u, 96u, 97u, 127u,
        128u, 129u, 255u, 256u, 257u, 1400u, 4097u}) {
    std::vector<std::uint8_t> a(n), b(n);
    for (auto& v : a) v = static_cast<std::uint8_t>(rng());
    for (auto& v : b) v = static_cast<std::uint8_t>(rng());
    auto expected = a;
    xor_bytes_scalar(expected.data(), b.data(), n);
    codec::xor_bytes(a.data(), b.data(), n);
    EXPECT_EQ(a, expected) << "length " << n;
  }
}

TEST(XorKernel, XorIntoEmptyOperandSemantics) {
  // Empty source: no-op. Empty destination: copy. Mismatch: throws.
  std::vector<std::uint8_t> dst{1, 2, 3};
  codec::xor_into(dst, std::span<const std::uint8_t>{});
  EXPECT_EQ(dst, (std::vector<std::uint8_t>{1, 2, 3}));

  std::vector<std::uint8_t> empty;
  const std::vector<std::uint8_t> src{7, 8, 9};
  codec::xor_into(empty, std::span<const std::uint8_t>(src));
  EXPECT_EQ(empty, src);

  std::vector<std::uint8_t> mismatched{1};
  EXPECT_THROW(
      codec::xor_into(mismatched, std::span<const std::uint8_t>(src)),
      std::invalid_argument);
}

TEST(XorKernel, SelfCancellation) {
  std::vector<std::uint8_t> a(129);
  util::Xoshiro256 rng(2);
  for (auto& v : a) v = static_cast<std::uint8_t>(rng());
  auto b = a;
  codec::xor_into(a, b);
  EXPECT_TRUE(std::all_of(a.begin(), a.end(),
                          [](std::uint8_t v) { return v == 0; }));
}

// --- BufferPool -------------------------------------------------------------

TEST(BufferPool, RecyclesWithFullHitRateAfterWarmup) {
  wire::BufferPool pool;
  // Warmup: one buffer enters circulation.
  auto buffer = pool.acquire();
  buffer.resize(512);
  pool.release(std::move(buffer));

  const std::size_t acquires_before = pool.stats().acquires;
  const std::size_t hits_before = pool.stats().hits;
  for (int i = 0; i < 100; ++i) {
    auto b = pool.acquire();
    EXPECT_TRUE(b.empty());
    EXPECT_GE(b.capacity(), 512u);  // the recycled storage
    b.resize(256);
    pool.release(std::move(b));
  }
  EXPECT_EQ(pool.stats().acquires - acquires_before, 100u);
  EXPECT_EQ(pool.stats().hits - hits_before, 100u);  // 100% hit rate
}

TEST(BufferPool, ReleasedBuffersComeBackCleared) {
  wire::BufferPool pool;
  auto buffer = pool.acquire();
  buffer.assign(64, 0xee);
  pool.release(std::move(buffer));
  const auto recycled = pool.acquire();
  // Reuse-after-release hygiene: no stale bytes from the previous frame.
  EXPECT_TRUE(recycled.empty());
}

TEST(BufferPool, DistinctOutstandingBuffersNeverAlias) {
  wire::BufferPool pool;
  auto a = pool.acquire();
  auto b = pool.acquire();
  a.assign(32, 0x11);
  b.assign(32, 0x22);
  EXPECT_NE(a.data(), b.data());
  EXPECT_TRUE(std::all_of(a.begin(), a.end(),
                          [](std::uint8_t v) { return v == 0x11; }));
  pool.release(std::move(a));
  pool.release(std::move(b));
  EXPECT_EQ(pool.pooled(), 2u);
}

TEST(BufferPool, BoundsRetainedBuffers) {
  wire::BufferPool pool;
  std::vector<std::vector<std::uint8_t>> outstanding;
  for (std::size_t i = 0; i < wire::BufferPool::kMaxPooled + 10; ++i) {
    outstanding.push_back(pool.acquire());
  }
  for (auto& b : outstanding) pool.release(std::move(b));
  EXPECT_EQ(pool.pooled(), wire::BufferPool::kMaxPooled);
}

TEST(BufferPool, LentPoolBoundFollowsLiveLinks) {
  auto pool = std::make_shared<wire::BufferPool>();
  const wire::ChannelConfig config;
  auto first = std::make_unique<wire::ChannelLink>(config, pool);
  auto second = std::make_unique<wire::ChannelLink>(config, pool);
  EXPECT_EQ(pool->retain_limit(), 2 * wire::BufferPool::kPooledPerLink);

  std::vector<std::vector<std::uint8_t>> outstanding;
  for (std::size_t i = 0; i < wire::BufferPool::kMaxPooled; ++i) {
    outstanding.push_back(pool->acquire());
    outstanding.back().resize(64);
  }
  for (auto& b : outstanding) pool->release(std::move(b));
  EXPECT_EQ(pool->pooled(), pool->retain_limit());
  // A borrowing link does not charge the pool to itself; its lender does.
  EXPECT_EQ(first->memory_bytes(), wire::ChannelLink(config).memory_bytes());

  second.reset();
  pool->trim();
  EXPECT_EQ(pool->pooled(), wire::BufferPool::kPooledPerLink);
  first.reset();
  pool->trim();
  EXPECT_EQ(pool->pooled(), 0u);
  EXPECT_EQ(pool->memory_bytes(), 0u);
}

// --- Control frames: written once, at their exact size ----------------------

TEST(ControlFrames, EncodeInOneAllocationAndNoneWhenRecycled) {
  sketch::MinwiseSketch sketch(1 << 20, 128);
  auto bloom = filter::BloomFilter::with_bits_per_element(500, 8.0);
  for (std::uint64_t i = 0; i < 500; ++i) {
    sketch.update(i * 3);
    bloom.insert(i * 3);
  }
  const std::vector<wire::Message> messages = {
      wire::Hello{64, 0x5eed, 500}, wire::SketchMessage{sketch},
      wire::BloomSummaryMessage{bloom}, wire::Request{300}};
  for (const wire::Message& message : messages) {
    const auto expected = wire::encode_frame(message);
    std::size_t before = g_allocations.load(std::memory_order_relaxed);
    util::ByteWriter fresh;
    wire::encode_frame_into(fresh, message);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 1u);
    EXPECT_EQ(fresh.bytes(), expected);
    EXPECT_EQ(fresh.bytes().capacity(), expected.size());

    auto recycled = fresh.take();
    recycled.clear();
    before = g_allocations.load(std::memory_order_relaxed);
    util::ByteWriter reused(std::move(recycled));
    wire::encode_frame_into(reused, message);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
    EXPECT_EQ(reused.bytes(), expected);
  }
}

// --- Pooled transport buffers: reuse across frames --------------------------

TEST(Transport, PooledBufferReuseNeverLeaksAcrossFrames) {
  // Shrinking payloads across recycled buffers: any stale-byte leak from a
  // longer previous frame would corrupt the shorter next frame.
  wire::Pipe pipe(2048);
  util::Xoshiro256 rng(77);
  for (std::size_t round = 0; round < 50; ++round) {
    const std::size_t size = 1 + (997 * (50 - round)) % 1024;
    std::vector<std::uint8_t> payload(size);
    for (auto& v : payload) v = static_cast<std::uint8_t>(rng());
    ASSERT_TRUE(pipe.a().send(codec::EncodedSymbolView{round, payload}));
    auto received = pipe.b().receive_frame();
    ASSERT_TRUE(received.has_value());
    const auto* view = std::get_if<codec::EncodedSymbolView>(&*received);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->id, round);
    ASSERT_EQ(view->payload.size(), payload.size());
    EXPECT_TRUE(std::equal(view->payload.begin(), view->payload.end(),
                           payload.begin()));
  }
  // Steady state: every buffer came from the pool after the first cycle.
  EXPECT_GT(pipe.a().pool().stats().hits, 40u);
}

TEST(Transport, ViewsAreInvalidatedOnlyByTheNextReceive) {
  wire::Pipe pipe(2048);
  const std::vector<std::uint8_t> p1(100, 0xaa);
  const std::vector<std::uint8_t> p2(100, 0xbb);
  ASSERT_TRUE(pipe.a().send(codec::EncodedSymbolView{1, p1}));
  ASSERT_TRUE(pipe.a().send(codec::EncodedSymbolView{2, p2}));

  auto first = pipe.b().receive_frame();
  ASSERT_TRUE(first.has_value());
  const auto view1 = std::get<codec::EncodedSymbolView>(*first);
  // Borrowed data is intact until the next receive call...
  EXPECT_EQ(view1.payload[0], 0xaa);

  auto second = pipe.b().receive_frame();
  ASSERT_TRUE(second.has_value());
  const auto view2 = std::get<codec::EncodedSymbolView>(*second);
  EXPECT_EQ(view2.id, 2u);
  EXPECT_EQ(view2.payload[0], 0xbb);
  // ...and the single-copy rule means consumers must have copied view1 by
  // now (its storage has been recycled; view1 must not be dereferenced).
}

TEST(Transport, RecodedViewRoundTripsThroughPool) {
  wire::Pipe pipe(2048);
  const std::vector<std::uint64_t> constituents{5, 9, 123456789};
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        pipe.a().send(codec::RecodedSymbolView{constituents, payload}));
    auto received = pipe.b().receive_frame();
    ASSERT_TRUE(received.has_value());
    const auto* view = std::get_if<codec::RecodedSymbolView>(&*received);
    ASSERT_NE(view, nullptr);
    ASSERT_EQ(view->degree(), constituents.size());
    EXPECT_TRUE(std::equal(view->constituents.begin(),
                           view->constituents.end(), constituents.begin()));
    EXPECT_TRUE(std::equal(view->payload.begin(), view->payload.end(),
                           payload.begin()));
  }
}

TEST(Transport, ViewSendMatchesMessageSendByteForByte) {
  // The fast-path encoders must be wire-identical to the Message path.
  wire::Pipe view_pipe(2048);
  wire::Pipe message_pipe(2048);
  std::vector<std::uint8_t> view_frame, message_frame;
  view_pipe.a().set_frame_observer(
      [&](const std::vector<std::uint8_t>& f, bool) { view_frame = f; });
  message_pipe.a().set_frame_observer(
      [&](const std::vector<std::uint8_t>& f, bool) { message_frame = f; });

  const codec::EncodedSymbol encoded{42, {9, 8, 7}};
  view_pipe.a().send(codec::EncodedSymbolView(encoded));
  message_pipe.a().send(wire::EncodedSymbolMessage{encoded});
  EXPECT_EQ(view_frame, message_frame);

  const codec::RecodedSymbol recoded{{1, 2, 3}, {6, 6, 6, 6}};
  view_pipe.a().send(codec::RecodedSymbolView(recoded));
  message_pipe.a().send(wire::RecodedSymbolMessage{recoded});
  EXPECT_EQ(view_frame, message_frame);
}

TEST(Transport, FragmentedSymbolsStillReachTheReceiver) {
  // Symbols larger than the link MTU arrive fragment-reassembled as owning
  // messages, not views; the receiver must feed them to the decoder too.
  constexpr std::size_t kBlocks = 40;
  constexpr std::size_t kBlockSize = 256;  // frame > MTU below
  util::Xoshiro256 content_rng(11);
  std::vector<std::uint8_t> content(kBlocks * kBlockSize);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(content_rng());
  const auto dist = codec::DegreeDistribution::robust_soliton(kBlocks);
  core::OriginServer origin(content, kBlockSize, dist, 31);
  core::Peer sender_peer("sender", origin.parameters(), dist);
  core::Peer receiver_peer("receiver", origin.parameters(), dist);
  for (int i = 0; i < 120; ++i) sender_peer.receive_encoded(origin.next());

  wire::Pipe pipe(/*mtu=*/128);
  core::SessionOptions options;
  options.strategy = overlay::Strategy::kRecode;
  core::SenderEndpoint sender(sender_peer, options, pipe.a());
  core::ReceiverEndpoint receiver(receiver_peer, options, pipe.b());
  receiver.start();
  for (int i = 0; i < 64 && !receiver.transfer_started(); ++i) {
    sender.tick();
    receiver.tick();
  }
  ASSERT_TRUE(sender.transfer_active());

  for (int i = 0; i < 400 && !receiver.complete(); ++i) {
    sender.send_symbol();
    receiver.tick();
  }
  EXPECT_GT(receiver.symbols_received(), 0u);
  EXPECT_TRUE(receiver.complete());
  EXPECT_EQ(receiver_peer.content(content.size()), content);
}

// --- One-hop queue residency ------------------------------------------------

TEST(LossyChannel, OneHopMinimumResidency) {
  wire::LossyChannel channel(wire::ChannelConfig{});
  ASSERT_TRUE(channel.send_message(wire::Request{1}));
  EXPECT_TRUE(channel.pending());
  // First drain: the frame is still in flight; the empty receive advances
  // the clock.
  EXPECT_TRUE(channel.receive().empty());
  // Second drain: delivered.
  EXPECT_FALSE(channel.receive().empty());
  EXPECT_FALSE(channel.pending());
}

TEST(LossyChannel, FlushReleasesInFlightFrame) {
  wire::LossyChannel channel(wire::ChannelConfig{});
  ASSERT_TRUE(channel.send_message(wire::Request{7}));
  channel.flush();
  const auto frame = channel.receive();
  ASSERT_FALSE(frame.empty());
  EXPECT_EQ(std::get<wire::Request>(wire::decode_frame(frame)).symbols_desired,
            7u);
}

TEST(LossyChannel, ReorderBitesForDrainEveryTickDrivers) {
  // The workaround this replaces: drivers had to skip alternate drains for
  // reorder_rate to matter. With one-hop residency, a driver that fully
  // drains after every single send still observes reordering.
  wire::ChannelConfig config;
  config.reorder_rate = 0.5;
  config.seed = 1234;
  wire::LossyChannel channel(config);

  std::vector<std::uint64_t> delivered;
  constexpr std::uint64_t kFrames = 400;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(channel.send_message(wire::Request{i}));
    while (true) {  // drain everything deliverable, every tick
      const auto frame = channel.receive();
      if (frame.empty()) break;
      delivered.push_back(
          std::get<wire::Request>(wire::decode_frame(frame)).symbols_desired);
    }
  }
  channel.flush();
  while (channel.pending()) {
    const auto frame = channel.receive();
    if (frame.empty()) continue;
    delivered.push_back(
        std::get<wire::Request>(wire::decode_frame(frame)).symbols_desired);
  }

  ASSERT_EQ(delivered.size(), kFrames);  // reordered, never lost
  std::size_t out_of_order = 0;
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    if (delivered[i] < delivered[i - 1]) ++out_of_order;
  }
  EXPECT_GT(out_of_order, kFrames / 10);
}

// --- Steady-state allocation guarantee --------------------------------------

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

class SendPathAllocations
    : public ::testing::TestWithParam<overlay::Strategy> {};

TEST_P(SendPathAllocations, SteadyStateSendsAreAllocationFree) {
  constexpr std::size_t kBlocks = 200;
  constexpr std::size_t kBlockSize = 64;
  const auto content = random_content(kBlocks * kBlockSize, 5);
  const auto dist = codec::DegreeDistribution::robust_soliton(kBlocks);
  core::OriginServer origin(content, kBlockSize, dist, 777);
  core::Peer sender_peer("sender", origin.parameters(), dist);
  core::Peer receiver_peer("receiver", origin.parameters(), dist);
  for (int i = 0; i < 260; ++i) sender_peer.receive_encoded(origin.next());
  for (int i = 0; i < 80; ++i) receiver_peer.receive_encoded(origin.next());

  wire::Pipe pipe(core::kSessionPipeMtu);
  core::SessionOptions options;
  options.strategy = GetParam();
  core::SenderEndpoint sender(sender_peer, options, pipe.a());
  core::ReceiverEndpoint receiver(receiver_peer, options, pipe.b());
  receiver.start();
  for (int i = 0; i < 16 && !receiver.transfer_started(); ++i) {
    sender.tick();
    receiver.tick();
  }
  ASSERT_TRUE(sender.transfer_active());

  // Warmup: let every scratch vector, pool buffer and queue slot reach its
  // steady-state capacity.
  for (int i = 0; i < 300; ++i) {
    sender.send_symbol();
    receiver.tick();
  }

  // Measured phase: the send path must not allocate at all, and every
  // transport buffer must come from the pool (hit rate == 100%).
  const auto& pool_stats = pipe.a().pool().stats();
  const std::size_t acquires_before = pool_stats.acquires;
  const std::size_t hits_before = pool_stats.hits;
  std::size_t send_allocations = 0;
  constexpr int kMeasured = 300;
  for (int i = 0; i < kMeasured; ++i) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    ASSERT_TRUE(sender.send_symbol());
    send_allocations +=
        g_allocations.load(std::memory_order_relaxed) - before;
    receiver.tick();  // receive side owns the budgeted single copy
  }
  EXPECT_EQ(send_allocations, 0u) << overlay::strategy_name(GetParam());
  EXPECT_EQ(pool_stats.acquires - acquires_before,
            static_cast<std::size_t>(kMeasured));
  EXPECT_EQ(pool_stats.hits - hits_before, pool_stats.acquires - acquires_before)
      << "pool hit rate below 100% after warmup";
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SendPathAllocations,
                         ::testing::ValuesIn(overlay::kAllStrategies));

// --- Inactivation decoder payload copies ------------------------------------

TEST(DecoderAllocations, InactivationAddSymbolCopiesPayloadOnce) {
  // The residual elimination state reads the peeler's own equation plane,
  // so add_symbol must copy the payload exactly once (into the peeler's
  // pooled storage) — not a second time into solver-private equation
  // copies. Budget: at most one payload-sized allocation per symbol, plus
  // tiny slack for geometric container growth crossing the threshold; the
  // old duplicate-storage path needed two per symbol.
  const std::uint32_t kBlocks = 32;
  const std::size_t kBlockSize = 4096;
  util::Xoshiro256 rng(0x51);
  std::vector<std::uint8_t> content(kBlocks * kBlockSize);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  const codec::BlockSource source(content, kBlockSize);
  const auto dist = codec::DegreeDistribution::robust_soliton(kBlocks);
  codec::Encoder encoder(source, dist, 0x52);
  codec::InactivationDecoder decoder(encoder.parameters(), dist);

  // Warm the decoder and pre-generate the measured symbols so encoder
  // allocations don't pollute the budget.
  for (std::uint32_t i = 0; i < kBlocks / 2; ++i) {
    decoder.add_symbol(encoder.next());
  }
  constexpr std::size_t kMeasured = 24;
  std::vector<codec::EncodedSymbol> symbols;
  symbols.reserve(kMeasured);
  for (std::size_t i = 0; i < kMeasured; ++i) symbols.push_back(encoder.next());

  g_large_allocations.store(0, std::memory_order_relaxed);
  g_large_threshold.store(kBlockSize, std::memory_order_relaxed);
  for (const auto& symbol : symbols) decoder.add_symbol(symbol);
  g_large_threshold.store(SIZE_MAX, std::memory_order_relaxed);

  EXPECT_LE(g_large_allocations.load(std::memory_order_relaxed),
            kMeasured + 2)
      << "payload copied more than once per add_symbol";
}

}  // namespace
}  // namespace icd
