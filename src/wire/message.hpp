#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "art/art_summary.hpp"
#include "codec/symbol.hpp"
#include "filter/bloom.hpp"
#include "sketch/minwise.hpp"
#include "util/buffer.hpp"

/// Wire protocol for the control and data planes.
///
/// Every message that flows between collaborating peers — the calling-card
/// sketch, the fine-grained summaries, the symbols-desired request and the
/// symbols themselves — has a typed, versioned, length-prefixed wire form
/// here, so that implementations can interoperate and the simulator can
/// charge exact byte counts.
///
/// Frame layout:  magic(2) version(1) type(1) length(varint) payload.
namespace icd::wire {

inline constexpr std::uint16_t kMagic = 0x1CD0;
inline constexpr std::uint8_t kVersion = 1;

enum class MessageType : std::uint8_t {
  kHello = 1,          // session setup: code parameters + working set size
  kSketch = 2,         // min-wise sketch (Section 4)
  kBloomSummary = 3,   // Bloom filter of the working set (Section 5.2)
  kArtSummary = 4,     // approximate reconciliation tree summary (Section 5.3)
  kRequest = 5,        // symbols desired from this sender (Section 6.1)
  kEncodedSymbol = 6,  // one regular encoded symbol
  kRecodedSymbol = 7,  // one recoded symbol (Section 5.4.2)
  kFragment = 8,       // one MTU-sized slice of a larger frame
  kRequestUpdate = 9,  // flow control: symbols still wanted (0 = satisfied)
};

/// Session hello: advertises the code and the sender's working-set size
/// (the optional extra datum Section 4 mentions peers may exchange).
struct Hello {
  std::uint32_t block_count = 0;
  std::uint64_t session_seed = 0;
  std::uint64_t working_set_size = 0;

  bool operator==(const Hello&) const = default;
};

/// Symbols-desired request: "the receiver may specify the number of symbols
/// desired from each sender with appropriate allowances for decoding
/// overhead".
struct Request {
  std::uint64_t symbols_desired = 0;

  bool operator==(const Request&) const = default;
};

/// Flow-control update: the receiver re-issues its request as symbols
/// land, carrying the decremented count still wanted from this sender.
/// Zero means satisfied — the sender stops serving. Kept distinct from
/// Request because there a zero count means "the sender's full domain".
struct RequestUpdate {
  std::uint64_t symbols_remaining = 0;

  bool operator==(const RequestUpdate&) const = default;
};

struct SketchMessage {
  sketch::MinwiseSketch sketch;
};

struct BloomSummaryMessage {
  filter::BloomFilter filter;
};

struct ArtSummaryMessage {
  art::ArtSummary summary;
};

struct EncodedSymbolMessage {
  codec::EncodedSymbol symbol;

  bool operator==(const EncodedSymbolMessage&) const = default;
};

struct RecodedSymbolMessage {
  codec::RecodedSymbol symbol;

  bool operator==(const RecodedSymbolMessage&) const = default;
};

/// One slice of a frame too large for the link MTU (control summaries can
/// exceed it). `sequence` identifies the fragmented frame, `index`/`total`
/// place the slice; the transport layer reassembles and re-decodes.
struct Fragment {
  std::uint32_t sequence = 0;
  std::uint16_t index = 0;
  std::uint16_t total = 0;
  std::vector<std::uint8_t> data;

  bool operator==(const Fragment&) const = default;
};

using Message =
    std::variant<Hello, SketchMessage, BloomSummaryMessage, ArtSummaryMessage,
                 Request, EncodedSymbolMessage, RecodedSymbolMessage,
                 Fragment, RequestUpdate>;

/// The wire type tag of a message.
MessageType message_type(const Message& message);

/// Appends one self-describing frame for `message` to `out`. This is the
/// in-place API behind encode_frame: hand it a writer over a recycled
/// buffer (wire::BufferPool) and nothing on the frame path allocates. Every
/// payload size is computable up front (the summaries' serialized_size()
/// is exact), so the frame's exact size is reserved before the header and
/// each byte is written once, straight into `out`.
void encode_frame_into(util::ByteWriter& out, const Message& message);

/// Symbol fast path: serializes a frame straight from non-owning views, so
/// a sender can put a held payload on the wire without materializing an
/// EncodedSymbolMessage/RecodedSymbolMessage first. Byte-identical to the
/// Message overload for the equivalent owning symbol.
void encode_frame_into(util::ByteWriter& out,
                       const codec::EncodedSymbolView& symbol);
void encode_frame_into(util::ByteWriter& out,
                       const codec::RecodedSymbolView& symbol);

/// Non-owning Fragment: a slice of the frame being split, encoded without
/// copying the slice first. Byte-identical to the Fragment overload.
struct FragmentView {
  std::uint32_t sequence = 0;
  std::uint16_t index = 0;
  std::uint16_t total = 0;
  std::span<const std::uint8_t> data;
};
void encode_frame_into(util::ByteWriter& out, const FragmentView& fragment);

/// Serializes a message into one self-describing frame.
std::vector<std::uint8_t> encode_frame(const Message& message);

/// Parses one frame. Throws std::invalid_argument on malformed input
/// (bad magic, unknown version/type, truncation, trailing bytes).
Message decode_frame(std::span<const std::uint8_t> frame);

/// Size in bytes of the first frame in `bytes` (header + declared payload
/// length), without decoding the payload. Lets a receiver slice a batched
/// train — several frames concatenated in one datagram — into individual
/// frames for decode_frame/decode_symbol_frame. Throws std::invalid_argument
/// on bad magic/version or when the declared frame extends past `bytes`.
std::size_t frame_size(std::span<const std::uint8_t> bytes);

/// In-place decode of a symbol frame. Exactly one of the views is engaged;
/// its payload span borrows `frame` (valid only while the frame bytes
/// live), and recoded constituent ids are decoded into
/// `constituent_scratch`, which the view then borrows. Returns nullopt for
/// well-formed non-symbol frames (callers fall back to decode_frame);
/// throws std::invalid_argument on malformed input like decode_frame.
struct SymbolFrameView {
  std::optional<codec::EncodedSymbolView> encoded;
  std::optional<codec::RecodedSymbolView> recoded;
};
std::optional<SymbolFrameView> decode_symbol_frame(
    std::span<const std::uint8_t> frame,
    std::vector<std::uint64_t>& constituent_scratch);

/// Encodes a sequence of messages back-to-back into one byte stream, and
/// splits a byte stream back into frames. Enables batching several control
/// messages into one packet. encode_stream_into appends to a (possibly
/// recycled) buffer via the writer.
void encode_stream_into(util::ByteWriter& out,
                        const std::vector<Message>& messages);
std::vector<std::uint8_t> encode_stream(const std::vector<Message>& messages);
std::vector<Message> decode_stream(std::span<const std::uint8_t> bytes);

}  // namespace icd::wire
