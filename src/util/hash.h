// The project's two non-cryptographic hash primitives, one copy each.
//
//   * FNV-1a-64 (fnv1a64, hash_u64, hash_double): the content checksum of
//     the VBS2 and vbs.artifact.v1 containers, VJL1 journal records and
//     vbs.rpc.v1 frames, plus the stage and service-state fingerprints.
//   * splitmix64: the seeded mixer behind fault-plan rolls, per-connection
//     fault keys, tenant secrets, auth proofs and server nonces.
//
// Every value they produce is persisted or exchanged somewhere, so both
// are frozen: the pinned-bytes tests fail on any change.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/bytes.h"

namespace vbs {

inline constexpr std::uint64_t kFnvOffset64 = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime64 = 0x100000001b3ull;

/// FNV-1a over a byte range, continuing from `h`.
inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t h = kFnvOffset64) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime64;
  }
  return h;
}

/// Folds one 64-bit value into a running FNV-1a hash (its 8 bytes in the
/// codec's little-endian order).
inline std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) {
  char le[8] = {};
  store_le(le, v);
  return fnv1a64(le, sizeof le, h);
}

inline std::uint64_t hash_double(std::uint64_t h, double v) {
  return hash_u64(h, std::bit_cast<std::uint64_t>(v));
}

/// One splitmix64 step (Vigna's reference mixer) from state `x`.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace vbs
