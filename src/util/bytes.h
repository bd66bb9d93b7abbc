// Little-endian byte codec: the one copy of the field code under every
// byte framing in the repo — VBS2 files (vbs/vbs_file.h), vbs.artifact.v1
// containers (flow/artifact_io.h), VJL1 journal records
// (rtc/service/journal.h) and vbs.rpc.v1 frames (rtc/server/wire.h).
//
//   integers      put_u8/u32/u64/i32/i64 append fixed-width little-endian
//                 fields; signed values travel as their two's-complement
//                 bit patterns
//   strings       put_str: u32 byte count, then the bytes
//   bit payloads  put_bits: u64 bit count, then pack_bits of the bits
//                 (MSB-first within each byte, zero-padded); a container
//                 that checks its payload stores content_hash of it
//
// ByteReader walks a byte range and throws VbsError with the code its owner
// passes in (kNetFrame on the wire, kBadJournal in the journal) on any read
// past the end. A declared length is checked against the bytes left before
// anything is allocated, so a hostile length can never demand more memory
// than the input already holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/bitvector.h"
#include "util/error.h"

namespace vbs {

/// Stores `v` at `out`, least significant byte first (sizeof(T) bytes).
template <class T>
inline void store_le(char* out, T v) {
  static_assert(std::is_unsigned_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Loads sizeof(T) bytes at `p`, least significant byte first.
template <class T>
inline T load_le(const char* p) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

template <class T>
inline void put_le(std::string& out, T v) {
  char b[sizeof(T)] = {};
  store_le(b, v);
  out.append(b, sizeof b);
}

inline void put_u8(std::string& out, std::uint8_t v) { put_le(out, v); }
inline void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }
inline void put_i32(std::string& out, std::int32_t v) {
  put_le(out, static_cast<std::uint32_t>(v));
}
inline void put_i64(std::string& out, std::int64_t v) {
  put_le(out, static_cast<std::uint64_t>(v));
}
void put_str(std::string& out, std::string_view s);
void put_bits(std::string& out, const BitVector& bits);

/// Byte-packs a bit vector (MSB-first per byte, zero padding in the last).
std::string pack_bits(const BitVector& bits);
/// Inverse of pack_bits given the exact bit count; throws
/// VbsError{kTruncated} when `bytes` is too short.
BitVector unpack_bits(std::string_view bytes, std::size_t bit_count);
/// Bytes pack_bits produces for `bit_count` bits.
inline std::uint64_t packed_size(std::uint64_t bit_count) {
  return bit_count / 8 + (bit_count % 8 != 0 ? 1 : 0);
}
/// The payload check of the VBS2 and vbs.artifact.v1 containers: FNV-1a
/// over the packed bytes, then the bit count folded in.
std::uint64_t content_hash(std::string_view packed, std::uint64_t bit_count);

/// Marks `n` more bytes at the front of `buf` consumed, where `consumed` is
/// the offset of the first byte still live, and drops the consumed prefix
/// once it passes half the buffer. Each drop moves fewer bytes than it
/// frees, so draining N bytes a frame at a time moves O(N) bytes in all,
/// not O(N) per frame as an erase per frame does.
inline void consume_front(std::string& buf, std::size_t& consumed,
                          std::size_t n) {
  consumed += n;
  if (2 * consumed > buf.size()) {
    buf.erase(0, consumed);
    consumed = 0;
  }
}

/// Bounds-checked little-endian reader over a byte range it does not own.
class ByteReader {
 public:
  /// `code` types every rejection; `context` prefixes its message.
  ByteReader(std::string_view bytes, VbsErrc code, const char* context)
      : bytes_(bytes), code_(code), context_(context) {}

  std::uint8_t u8() { return load<std::uint8_t>(); }
  std::uint32_t u32() { return load<std::uint32_t>(); }
  std::uint64_t u64() { return load<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  /// The next `n` raw bytes.
  std::string_view take(std::uint64_t n) {
    if (n > remaining()) short_read(n);
    const std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }
  /// A put_str field.
  std::string str();
  /// A put_bits field.
  BitVector bits();

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }
  /// Rejects bytes left after the last field of a `what` payload.
  void expect_end(const char* what) const;

 private:
  template <class T>
  T load() {
    return load_le<T>(take(sizeof(T)).data());
  }
  [[noreturn]] void short_read(std::uint64_t n) const;
  [[noreturn]] void fail(const std::string& what) const;

  std::string_view bytes_;
  std::size_t pos_ = 0;
  VbsErrc code_;
  const char* context_;
};

}  // namespace vbs
