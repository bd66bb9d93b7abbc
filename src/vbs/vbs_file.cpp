#include "vbs/vbs_file.h"

#include <cstdint>

#include "util/error.h"
#include "util/io.h"

namespace vbs {

namespace {
constexpr std::string_view kMagic = "VBS2";
constexpr std::string_view kLegacyMagic = "VBS1";
// magic(4) + bit count(8) + checksum(8)
constexpr std::size_t kHeaderBytes = 20;
}  // namespace

void write_vbs_file(const std::string& path, const BitVector& stream) {
  const std::string payload = pack_bits(stream);
  std::string file(kMagic);
  file.reserve(kHeaderBytes + payload.size());
  put_u64(file, stream.size());
  put_u64(file, content_hash(payload, stream.size()));
  file.append(payload);
  AtomicFile out(path);
  out.write(file);
  out.commit();
}

BitVector read_vbs_file(const std::string& path) {
  const std::string file = read_file(path);
  if (file.size() < kHeaderBytes) {
    throw VbsError(VbsErrc::kTruncated, "truncated VBS file: " + path);
  }
  ByteReader r(file, VbsErrc::kTruncated, "VBS file");
  const std::string_view magic = r.take(kMagic.size());
  if (magic == kLegacyMagic) {
    throw VbsError(VbsErrc::kBadVersion,
                   "legacy VBS1 container (no checksum), re-generate: " + path);
  }
  if (magic != kMagic) {
    throw VbsError(VbsErrc::kBadContainer, "not a VBS file: " + path);
  }
  const std::uint64_t n = r.u64();
  const std::uint64_t sum = r.u64();
  // The declared bit count is attacker-controlled: it must match the bytes
  // actually on disk before anything is sized from it.
  if (packed_size(n) != r.remaining()) {
    throw VbsError(VbsErrc::kBadContainer,
                   "VBS container size mismatch: " + path);
  }
  const std::string_view payload = r.take(r.remaining());
  // Padding bits of the last byte must be zero — a flipped padding bit is
  // corruption even though unpack_bits would ignore it.
  if (n % 8 != 0) {
    const auto last = static_cast<unsigned char>(payload.back());
    if ((last & ((1u << (8 - n % 8)) - 1u)) != 0) {
      throw VbsError(VbsErrc::kBadContainer,
                     "VBS container has nonzero padding bits: " + path);
    }
  }
  if (content_hash(payload, n) != sum) {
    throw VbsError(VbsErrc::kBadContainer,
                   "VBS container checksum mismatch (corrupted): " + path);
  }
  return unpack_bits(payload, static_cast<std::size_t>(n));
}

}  // namespace vbs
