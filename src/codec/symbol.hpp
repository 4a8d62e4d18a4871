#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

/// Symbol types exchanged by peers.
///
/// An *encoded symbol* is the XOR of a subset of source blocks; the subset is
/// derived deterministically from the symbol id, so only the id travels in
/// the packet header. A *recoded symbol* (Section 5.4.2) is the XOR of a set
/// of encoded symbols held by a partial sender; it "must enumerate the
/// encoded symbols from which it was produced", so its header carries the
/// constituent id list.
namespace icd::codec {

struct EncodedSymbol {
  /// Identifies the symbol within a session; the encoder derives the degree
  /// and neighbor set from (id, session seed). 64 bits, matching the
  /// paper's "degree sequence representations of these symbols were 64
  /// bits".
  std::uint64_t id = 0;
  /// XOR of the neighbor source blocks. May be empty in count-only
  /// simulations where payloads are irrelevant.
  std::vector<std::uint8_t> payload;

  bool operator==(const EncodedSymbol&) const = default;
};

struct RecodedSymbol {
  /// Ids of the encoded symbols blended into this symbol.
  std::vector<std::uint64_t> constituents;
  /// XOR of the constituent payloads; may be empty in count-only
  /// simulations.
  std::vector<std::uint8_t> payload;

  std::size_t degree() const { return constituents.size(); }

  bool operator==(const RecodedSymbol&) const = default;
};

/// Non-owning views of the symbol types, for the zero-copy fast path: the
/// sender serializes straight out of its decoder's storage, and the
/// receiver's transport decodes frames in place and hands out views whose
/// spans borrow the frame buffer (valid only until the next receive).
struct EncodedSymbolView {
  std::uint64_t id = 0;
  std::span<const std::uint8_t> payload;

  EncodedSymbolView() = default;
  EncodedSymbolView(std::uint64_t id, std::span<const std::uint8_t> payload)
      : id(id), payload(payload) {}
  explicit EncodedSymbolView(const EncodedSymbol& symbol)
      : id(symbol.id), payload(symbol.payload) {}
};

struct RecodedSymbolView {
  std::span<const std::uint64_t> constituents;
  std::span<const std::uint8_t> payload;

  RecodedSymbolView() = default;
  RecodedSymbolView(std::span<const std::uint64_t> constituents,
                    std::span<const std::uint8_t> payload)
      : constituents(constituents), payload(payload) {}
  explicit RecodedSymbolView(const RecodedSymbol& symbol)
      : constituents(symbol.constituents), payload(symbol.payload) {}

  std::size_t degree() const { return constituents.size(); }
};

/// Wide XOR kernel: dst[i] ^= src[i] for `n` bytes. This is the one XOR
/// inner loop shared by the encoder, recoder, peeling decoders and
/// inactivation solver, so it is explicitly widened rather than left to
/// auto-vectorization: 32 bytes per iteration via AVX2 when the build
/// enables it, otherwise an unrolled 4x-uint64 block (memcpy keeps both
/// alignment- and aliasing-safe), then a word tail and a byte tail.
inline void xor_bytes(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n) {
  std::size_t i = 0;
#if defined(__AVX2__)
  for (; i + 32 <= n; i += 32) {
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a, b));
  }
#else
  for (; i + 32 <= n; i += 32) {
    std::uint64_t a0, a1, a2, a3, b0, b1, b2, b3;
    std::memcpy(&a0, dst + i, 8);
    std::memcpy(&a1, dst + i + 8, 8);
    std::memcpy(&a2, dst + i + 16, 8);
    std::memcpy(&a3, dst + i + 24, 8);
    std::memcpy(&b0, src + i, 8);
    std::memcpy(&b1, src + i + 8, 8);
    std::memcpy(&b2, src + i + 16, 8);
    std::memcpy(&b3, src + i + 24, 8);
    a0 ^= b0;
    a1 ^= b1;
    a2 ^= b2;
    a3 ^= b3;
    std::memcpy(dst + i, &a0, 8);
    std::memcpy(dst + i + 8, &a1, 8);
    std::memcpy(dst + i + 16, &a2, 8);
    std::memcpy(dst + i + 24, &a3, 8);
  }
#endif
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

/// XORs `src` into `dst`. Empty operands are treated as all-zero: XOR into
/// an empty destination copies, XOR of an empty source is a no-op. Sizes
/// must otherwise match.
void xor_into(std::vector<std::uint8_t>& dst,
              std::span<const std::uint8_t> src);
inline void xor_into(std::vector<std::uint8_t>& dst,
                     const std::vector<std::uint8_t>& src) {
  xor_into(dst, std::span<const std::uint8_t>(src));
}

}  // namespace icd::codec
