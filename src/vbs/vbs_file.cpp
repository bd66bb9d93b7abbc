#include "vbs/vbs_file.h"

#include <cstdint>
#include <fstream>
#include <stdexcept>

#include "util/error.h"
#include "util/hash.h"

namespace vbs {

namespace {
constexpr char kMagic[4] = {'V', 'B', 'S', '2'};
constexpr char kLegacyMagic[4] = {'V', 'B', 'S', '1'};
// magic(4) + bit count(8) + checksum(8)
constexpr std::size_t kHeaderBytes = 20;

// FNV-1a of the payload bytes, then the bit count: the artifact
// container's content hash.
std::uint64_t payload_checksum(const std::string& bytes,
                               std::uint64_t bit_count) {
  return hash_u64(fnv1a64(bytes.data(), bytes.size()), bit_count);
}
}  // namespace

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

BitVector unpack_bits(const std::string& bytes, std::size_t bit_count) {
  if (bytes.size() < (bit_count + 7) / 8) {
    throw VbsError(VbsErrc::kTruncated, "unpack_bits: byte buffer too short");
  }
  BitVector bits(bit_count);
  for (std::size_t i = 0; i < bit_count; ++i) {
    const auto byte = static_cast<unsigned char>(bytes[i / 8]);
    bits.set(i, (byte >> (7 - i % 8)) & 1u);
  }
  return bits;
}

void write_vbs_file(const std::string& path, const BitVector& stream) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  os.write(kMagic, sizeof kMagic);
  const std::uint64_t n = stream.size();
  const std::string payload = pack_bits(stream);
  const std::uint64_t sum = payload_checksum(payload, n);
  char head[16];
  for (int i = 0; i < 8; ++i) {
    head[i] = static_cast<char>((n >> (8 * i)) & 0xff);
    head[8 + i] = static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  os.write(head, sizeof head);
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!os) throw std::runtime_error("write failed: " + path);
}

BitVector read_vbs_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  // The declared bit count is attacker-controlled; size the payload from
  // the actual file, never from the header, so a hostile length field can
  // demand at most what is really on disk.
  is.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0, std::ios::beg);
  char magic[4];
  char head[16];
  if (!is.read(magic, sizeof magic) || !is.read(head, sizeof head)) {
    throw VbsError(VbsErrc::kTruncated, "truncated VBS file: " + path);
  }
  bool legacy = true;
  for (int i = 0; i < 4; ++i) {
    if (magic[i] != kLegacyMagic[i]) legacy = false;
  }
  if (legacy) {
    throw VbsError(VbsErrc::kBadVersion,
                   "legacy VBS1 container (no checksum), re-generate: " + path);
  }
  for (int i = 0; i < 4; ++i) {
    if (magic[i] != kMagic[i]) {
      throw VbsError(VbsErrc::kBadContainer, "not a VBS file: " + path);
    }
  }
  std::uint64_t n = 0, sum = 0;
  for (int i = 0; i < 8; ++i) {
    n |= static_cast<std::uint64_t>(static_cast<unsigned char>(head[i]))
         << (8 * i);
    sum |= static_cast<std::uint64_t>(static_cast<unsigned char>(head[8 + i]))
           << (8 * i);
  }
  const std::uint64_t nbytes = n / 8 + (n % 8 != 0 ? 1 : 0);
  if (nbytes != file_size - kHeaderBytes) {
    throw VbsError(VbsErrc::kBadContainer,
                   "VBS container size mismatch: " + path);
  }
  std::string payload(static_cast<std::size_t>(nbytes), '\0');
  if (!is.read(payload.data(), static_cast<std::streamsize>(payload.size()))) {
    throw VbsError(VbsErrc::kTruncated, "truncated VBS payload: " + path);
  }
  // Padding bits of the last byte must be zero — a flipped padding bit is
  // corruption even though unpack_bits would ignore it.
  if (n % 8 != 0) {
    const auto last = static_cast<unsigned char>(payload.back());
    if ((last & ((1u << (8 - n % 8)) - 1u)) != 0) {
      throw VbsError(VbsErrc::kBadContainer,
                     "VBS container has nonzero padding bits: " + path);
    }
  }
  if (payload_checksum(payload, n) != sum) {
    throw VbsError(VbsErrc::kBadContainer,
                   "VBS container checksum mismatch (corrupted): " + path);
  }
  return unpack_bits(payload, static_cast<std::size_t>(n));
}

}  // namespace vbs
