#include "wire/message.hpp"

#include <stdexcept>

#include "util/buffer.hpp"

namespace icd::wire {

namespace {

constexpr std::size_t blob_size(std::size_t n) {
  return util::varint_size(n) + n;
}

std::size_t payload_size(const Hello& hello) {
  return 4 + 8 + util::varint_size(hello.working_set_size);
}

void write_payload(util::ByteWriter& writer, const Hello& hello) {
  writer.u32(hello.block_count);
  writer.u64(hello.session_seed);
  writer.varint(hello.working_set_size);
}

Hello read_hello(util::ByteReader& reader) {
  Hello hello;
  hello.block_count = reader.u32();
  hello.session_seed = reader.u64();
  hello.working_set_size = reader.varint();
  return hello;
}

std::size_t payload_size(const Request& request) {
  return util::varint_size(request.symbols_desired);
}

void write_payload(util::ByteWriter& writer, const Request& request) {
  writer.varint(request.symbols_desired);
}

Request read_request(util::ByteReader& reader) {
  return Request{reader.varint()};
}

std::size_t payload_size(const RequestUpdate& update) {
  return util::varint_size(update.symbols_remaining);
}

void write_payload(util::ByteWriter& writer, const RequestUpdate& update) {
  writer.varint(update.symbols_remaining);
}

RequestUpdate read_request_update(util::ByteReader& reader) {
  return RequestUpdate{reader.varint()};
}

// The summaries travel as size-prefixed blobs; serialized_size() is exact,
// so they serialize straight into the frame.
std::size_t payload_size(const SketchMessage& m) {
  return blob_size(m.sketch.serialized_size());
}

void write_payload(util::ByteWriter& writer, const SketchMessage& m) {
  writer.varint(m.sketch.serialized_size());
  m.sketch.serialize_into(writer);
}

std::size_t payload_size(const BloomSummaryMessage& m) {
  return blob_size(m.filter.serialized_size());
}

void write_payload(util::ByteWriter& writer, const BloomSummaryMessage& m) {
  writer.varint(m.filter.serialized_size());
  m.filter.serialize_into(writer);
}

std::size_t payload_size(const ArtSummaryMessage& m) {
  return blob_size(m.summary.serialized_size());
}

void write_payload(util::ByteWriter& writer, const ArtSummaryMessage& m) {
  writer.varint(m.summary.serialized_size());
  m.summary.serialize_into(writer);
}

std::size_t payload_size(const codec::EncodedSymbolView& symbol) {
  return 8 + blob_size(symbol.payload.size());
}

void write_payload(util::ByteWriter& writer,
                   const codec::EncodedSymbolView& symbol) {
  writer.u64(symbol.id);
  writer.varint(symbol.payload.size());
  writer.raw(symbol.payload);
}

EncodedSymbolMessage read_encoded(util::ByteReader& reader) {
  EncodedSymbolMessage message;
  message.symbol.id = reader.u64();
  message.symbol.payload = reader.raw(reader.varint());
  return message;
}

std::size_t payload_size(const codec::RecodedSymbolView& symbol) {
  return util::varint_size(symbol.constituents.size()) +
         8 * symbol.constituents.size() + blob_size(symbol.payload.size());
}

void write_payload(util::ByteWriter& writer,
                   const codec::RecodedSymbolView& symbol) {
  writer.varint(symbol.constituents.size());
  writer.u64s(symbol.constituents);
  writer.varint(symbol.payload.size());
  writer.raw(symbol.payload);
}

/// Decodes a recoded symbol's constituent ids into `out`.
void read_constituents(util::ByteReader& reader,
                       std::vector<std::uint64_t>& out) {
  const std::size_t degree = reader.varint();
  // Bound the resize by what the payload can actually hold (8 bytes per
  // constituent): a corrupt degree must fail like any truncation, not
  // attempt a giant allocation first.
  if (degree > reader.remaining() / 8) {
    throw std::out_of_range("wire: recoded degree exceeds payload");
  }
  out.resize(degree);
  reader.u64s(out);
}

RecodedSymbolMessage read_recoded(util::ByteReader& reader) {
  RecodedSymbolMessage message;
  read_constituents(reader, message.symbol.constituents);
  message.symbol.payload = reader.raw(reader.varint());
  return message;
}

std::size_t payload_size(const FragmentView& fragment) {
  return 4 + 2 + 2 + blob_size(fragment.data.size());
}

void write_payload(util::ByteWriter& writer, const FragmentView& fragment) {
  writer.u32(fragment.sequence);
  writer.u16(fragment.index);
  writer.u16(fragment.total);
  writer.varint(fragment.data.size());
  writer.raw(fragment.data);
}

Fragment read_fragment(util::ByteReader& reader) {
  Fragment fragment;
  fragment.sequence = reader.u32();
  fragment.index = reader.u16();
  fragment.total = reader.u16();
  fragment.data = reader.raw(reader.varint());
  return fragment;
}

std::span<const std::uint8_t> read_blob(util::ByteReader& reader) {
  return reader.view(reader.varint());
}

}  // namespace

MessageType message_type(const Message& message) {
  struct Visitor {
    MessageType operator()(const Hello&) { return MessageType::kHello; }
    MessageType operator()(const SketchMessage&) {
      return MessageType::kSketch;
    }
    MessageType operator()(const BloomSummaryMessage&) {
      return MessageType::kBloomSummary;
    }
    MessageType operator()(const ArtSummaryMessage&) {
      return MessageType::kArtSummary;
    }
    MessageType operator()(const Request&) { return MessageType::kRequest; }
    MessageType operator()(const EncodedSymbolMessage&) {
      return MessageType::kEncodedSymbol;
    }
    MessageType operator()(const RecodedSymbolMessage&) {
      return MessageType::kRecodedSymbol;
    }
    MessageType operator()(const Fragment&) { return MessageType::kFragment; }
    MessageType operator()(const RequestUpdate&) {
      return MessageType::kRequestUpdate;
    }
  };
  return std::visit(Visitor{}, message);
}

namespace {

/// Writes one whole frame: the capacity for header + payload is reserved
/// first, so a frame costs at most one allocation (none on a recycled
/// buffer that already holds it) and every byte is written exactly once.
template <typename Payload>
void write_frame(util::ByteWriter& out, MessageType type,
                 const Payload& payload) {
  const std::size_t size = payload_size(payload);
  out.reserve_more(4 + util::varint_size(size) + size);
  out.u16(kMagic);
  out.u8(kVersion);
  out.u8(static_cast<std::uint8_t>(type));
  out.varint(size);
  write_payload(out, payload);
}

template <typename Payload>
void write_message(util::ByteWriter& out, MessageType type,
                   const Payload& payload) {
  write_frame(out, type, payload);
}

// The owning symbol and fragment messages encode through their views.
void write_message(util::ByteWriter& out, MessageType,
                   const EncodedSymbolMessage& m) {
  encode_frame_into(out, codec::EncodedSymbolView(m.symbol));
}

void write_message(util::ByteWriter& out, MessageType,
                   const RecodedSymbolMessage& m) {
  encode_frame_into(out, codec::RecodedSymbolView(m.symbol));
}

void write_message(util::ByteWriter& out, MessageType, const Fragment& m) {
  encode_frame_into(out, FragmentView{m.sequence, m.index, m.total, m.data});
}

}  // namespace

void encode_frame_into(util::ByteWriter& out, const Message& message) {
  const MessageType type = message_type(message);
  std::visit([&](const auto& m) { write_message(out, type, m); }, message);
}

void encode_frame_into(util::ByteWriter& out,
                       const codec::EncodedSymbolView& symbol) {
  write_frame(out, MessageType::kEncodedSymbol, symbol);
}

void encode_frame_into(util::ByteWriter& out,
                       const codec::RecodedSymbolView& symbol) {
  write_frame(out, MessageType::kRecodedSymbol, symbol);
}

void encode_frame_into(util::ByteWriter& out, const FragmentView& fragment) {
  write_frame(out, MessageType::kFragment, fragment);
}

std::vector<std::uint8_t> encode_frame(const Message& message) {
  util::ByteWriter frame;
  encode_frame_into(frame, message);
  return frame.take();
}

namespace {

Message decode_from_reader(util::ByteReader& reader) {
  if (reader.u16() != kMagic) {
    throw std::invalid_argument("wire: bad magic");
  }
  if (reader.u8() != kVersion) {
    throw std::invalid_argument("wire: unsupported version");
  }
  const auto type = static_cast<MessageType>(reader.u8());
  const std::size_t length = reader.varint();
  util::ByteReader payload(reader.view(length));

  Message message = [&]() -> Message {
    switch (type) {
      case MessageType::kHello:
        return read_hello(payload);
      case MessageType::kSketch:
        return SketchMessage{
            sketch::MinwiseSketch::deserialize(read_blob(payload))};
      case MessageType::kBloomSummary:
        return BloomSummaryMessage{
            filter::BloomFilter::deserialize(read_blob(payload))};
      case MessageType::kArtSummary:
        return ArtSummaryMessage{
            art::ArtSummary::deserialize(read_blob(payload))};
      case MessageType::kRequest:
        return read_request(payload);
      case MessageType::kEncodedSymbol:
        return read_encoded(payload);
      case MessageType::kRecodedSymbol:
        return read_recoded(payload);
      case MessageType::kFragment:
        return read_fragment(payload);
      case MessageType::kRequestUpdate:
        return read_request_update(payload);
    }
    throw std::invalid_argument("wire: unknown message type");
  }();
  if (!payload.done()) {
    throw std::invalid_argument("wire: trailing bytes in payload");
  }
  return message;
}

}  // namespace

std::size_t frame_size(std::span<const std::uint8_t> bytes) {
  try {
    util::ByteReader reader(bytes);
    if (reader.u16() != kMagic) {
      throw std::invalid_argument("wire: bad magic");
    }
    if (reader.u8() != kVersion) {
      throw std::invalid_argument("wire: unsupported version");
    }
    reader.u8();  // type; validated when the frame is decoded
    const std::uint64_t length = reader.varint();
    if (length > reader.remaining()) {
      throw std::invalid_argument("wire: truncated frame");
    }
    return bytes.size() - reader.remaining() + static_cast<std::size_t>(length);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("wire: truncated frame");
  }
}

Message decode_frame(std::span<const std::uint8_t> frame) {
  try {
    util::ByteReader reader(frame);
    Message message = decode_from_reader(reader);
    if (!reader.done()) {
      throw std::invalid_argument("wire: trailing bytes after frame");
    }
    return message;
  } catch (const std::out_of_range&) {
    // Buffer underruns from any nested deserializer mean one thing at this
    // layer: a truncated or corrupt frame.
    throw std::invalid_argument("wire: truncated frame");
  }
}

std::optional<SymbolFrameView> decode_symbol_frame(
    std::span<const std::uint8_t> frame,
    std::vector<std::uint64_t>& constituent_scratch) {
  try {
    util::ByteReader reader(frame);
    if (reader.u16() != kMagic) {
      throw std::invalid_argument("wire: bad magic");
    }
    if (reader.u8() != kVersion) {
      throw std::invalid_argument("wire: unsupported version");
    }
    const auto type = static_cast<MessageType>(reader.u8());
    if (type != MessageType::kEncodedSymbol &&
        type != MessageType::kRecodedSymbol) {
      return std::nullopt;  // control frame: caller uses decode_frame
    }
    const std::size_t length = reader.varint();
    util::ByteReader payload(reader.view(length));
    if (!reader.done()) {
      throw std::invalid_argument("wire: trailing bytes after frame");
    }

    SymbolFrameView view;
    if (type == MessageType::kEncodedSymbol) {
      const std::uint64_t id = payload.u64();
      view.encoded.emplace(id, payload.view(payload.varint()));
    } else {
      read_constituents(payload, constituent_scratch);
      view.recoded.emplace(constituent_scratch,
                           payload.view(payload.varint()));
    }
    if (!payload.done()) {
      throw std::invalid_argument("wire: trailing bytes in payload");
    }
    return view;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("wire: truncated frame");
  }
}

void encode_stream_into(util::ByteWriter& out,
                        const std::vector<Message>& messages) {
  for (const Message& message : messages) encode_frame_into(out, message);
}

std::vector<std::uint8_t> encode_stream(const std::vector<Message>& messages) {
  util::ByteWriter bytes;
  encode_stream_into(bytes, messages);
  return bytes.take();
}

std::vector<Message> decode_stream(std::span<const std::uint8_t> bytes) {
  try {
    std::vector<Message> messages;
    util::ByteReader reader(bytes);
    while (!reader.done()) {
      messages.push_back(decode_from_reader(reader));
    }
    return messages;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("wire: truncated stream");
  }
}

}  // namespace icd::wire
