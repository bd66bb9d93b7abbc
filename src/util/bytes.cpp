#include "util/bytes.h"

#include "util/hash.h"

namespace vbs {

void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_bits(std::string& out, const BitVector& bits) {
  put_u64(out, bits.size());
  out.append(pack_bits(bits));
}

std::string pack_bits(const BitVector& bits) {
  std::string out((bits.size() + 7) / 8, '\0');
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits.get(i)) {
      out[i / 8] = static_cast<char>(
          static_cast<unsigned char>(out[i / 8]) | (0x80u >> (i % 8)));
    }
  }
  return out;
}

BitVector unpack_bits(std::string_view bytes, std::size_t bit_count) {
  if (bytes.size() < packed_size(bit_count)) {
    throw VbsError(VbsErrc::kTruncated, "unpack_bits: byte buffer too short");
  }
  BitVector bits(bit_count);
  for (std::size_t i = 0; i < bit_count; ++i) {
    const auto byte = static_cast<unsigned char>(bytes[i / 8]);
    bits.set(i, (byte >> (7 - i % 8)) & 1u);
  }
  return bits;
}

std::uint64_t content_hash(std::string_view packed, std::uint64_t bit_count) {
  return hash_u64(fnv1a64(packed.data(), packed.size()), bit_count);
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  return std::string(take(n));
}

BitVector ByteReader::bits() {
  const std::uint64_t nbits = u64();
  return unpack_bits(take(packed_size(nbits)),
                     static_cast<std::size_t>(nbits));
}

void ByteReader::expect_end(const char* what) const {
  if (!at_end()) fail(std::string(what) + ": trailing bytes");
}

void ByteReader::short_read(std::uint64_t n) const {
  fail("payload truncated: " + std::to_string(n) + " bytes wanted at offset " +
       std::to_string(pos_) + ", " + std::to_string(remaining()) + " left");
}

void ByteReader::fail(const std::string& what) const {
  throw VbsError(code_, std::string(context_) + ": " + what);
}

}  // namespace vbs
