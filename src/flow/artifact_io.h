// Serializable flow-stage artifacts and their on-disk container
// (`vbs.artifact.v1`): the persistence layer under FlowPipeline's
// checkpoints.
//
// Every flow stage produces a typed artifact — PackedDesign, Placement
// (+ deterministic PlaceStats), RoutingResult, or the encoded VBS stream —
// serialized to a bit payload via util/bitio and wrapped in a small
// byte-oriented container whose fields the shared byte codec
// (util/bytes.h) codes:
//
//   bytes 0-3    magic "VAR1"  (artifact format v1)
//   byte  4      stage tag (ArtifactStage)
//   bytes 5-12   fingerprint, u64: hash of everything the artifact is a
//                deterministic function of — the netlist text, the grid,
//                and every result-relevant option of this stage and its
//                upstream stages
//   bytes 13-20  content_hash of the payload, u64
//   bytes 21-28  payload bit count, u64
//   bytes 29-    payload: pack_bits of the payload bits
//
// Readers verify magic, version, stage tag, fingerprint and content hash
// and throw VbsError (kBadContainer, or kTruncated for a cut header) on
// any mismatch, so a stale, truncated or foreign checkpoint can never be
// silently resumed (FlowPipeline::resume_from reads the fingerprint
// instead of matching it, and reruns a stale stage). Wall times are NOT
// part of any payload, so two runs of the same flow save identical bytes.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "pack/pack.h"
#include "place/annealer.h"
#include "place/placement.h"
#include "route/router.h"
#include "util/bitio.h"
#include "util/bitvector.h"

namespace vbs {

/// Throws VbsError{kBadContainer}: a malformed, corrupted,
/// version-mismatched or fingerprint-mismatched artifact.
[[noreturn]] void bad_artifact(const std::string& what);

/// Stage tag stored in the container header. kMeta is the checkpoint's
/// flow-description artifact (grid + options), not a pipeline stage.
enum class ArtifactStage : std::uint8_t {
  kPack = 0,
  kPlace = 1,
  kRoute = 2,
  kEncode = 3,
  kMeta = 4,
  kServiceSnapshot = 5,  ///< ReconfigService journal snapshot (journal.h)
};

// --- payload field primitives ------------------------------------------------

// The artifact format's canonical fixed-width field codings: signed values
// travel as their two's-complement bit patterns (kNoNet/kNoBlock = -1
// round-trips), doubles as their IEEE-754 bit patterns. Every artifact
// payload — including flow.meta — is built from exactly these.
namespace artio {

inline void put_i32(BitWriter& w, std::int32_t v) {
  w.write(static_cast<std::uint32_t>(v), 32);
}
inline std::int32_t get_i32(BitReader& r) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(r.read(32)));
}
inline void put_i64(BitWriter& w, std::int64_t v) {
  w.write(static_cast<std::uint64_t>(v), 64);
}
inline std::int64_t get_i64(BitReader& r) {
  return static_cast<std::int64_t>(r.read(64));
}
inline void put_f64(BitWriter& w, double v) {
  w.write(std::bit_cast<std::uint64_t>(v), 64);
}
inline double get_f64(BitReader& r) {
  return std::bit_cast<double>(r.read(64));
}

}  // namespace artio

// --- stage payload serializers ----------------------------------------------

// Each pair round-trips exactly: deserialize(serialize(x)) == x field for
// field, and serialize(deserialize(bits)) == bits byte for byte.

BitVector serialize_packed(const PackedDesign& pd);
PackedDesign deserialize_packed(const BitVector& bits);

/// Placement plus every PlaceStats field (costs, moves, accepted,
/// temperatures, cost_drift).
BitVector serialize_placement(const Placement& pl, const PlaceStats& stats);
void deserialize_placement(const BitVector& bits, Placement* pl,
                           PlaceStats* stats);

/// RoutingResult minus the per-iteration wall-time log: success,
/// iterations, trees, wire/overuse totals, heap_pops and bbox_retries are
/// stored.
BitVector serialize_routing(const RoutingResult& rr);
RoutingResult deserialize_routing(const BitVector& bits);

// The encode stage's payload is the serialized VBS stream itself
// (self-describing via deserialize_vbs) followed by the deterministic
// EncodeStats counts; FlowPipeline assembles it inline. The size breakdown
// is not stored: a resume recounts it from the parsed stream.

// --- container codec ---------------------------------------------------------

/// Serializes `payload` into the vbs.artifact.v1 container layout above,
/// in memory. This is the byte string write_artifact_file persists — and
/// the payload coding the vbs.rpc.v1 wire protocol (rtc/server/wire.h)
/// reuses for bit-stream frames, so a stream travels the wire with the
/// same magic, content hash and length checks a checkpoint file gets.
std::string artifact_container_bytes(ArtifactStage stage,
                                     std::uint64_t fingerprint,
                                     const BitVector& payload);

/// Parses bytes produced by artifact_container_bytes, verifying magic,
/// stage tag, declared size and content hash (and the fingerprint when
/// `expected_fingerprint` is non-null). Throws VbsError (kBadContainer,
/// kTruncated for a cut header) on any mismatch; `context` names the
/// source in error messages.
BitVector parse_artifact_container(std::string_view bytes,
                                   ArtifactStage stage,
                                   const std::uint64_t* expected_fingerprint,
                                   std::uint64_t* fingerprint_out = nullptr,
                                   const std::string& context = "container");

// --- container I/O -----------------------------------------------------------

/// Writes `payload` wrapped in the vbs.artifact.v1 container, atomically:
/// the bytes land in `path + ".tmp"` and are renamed over `path` only
/// after an fsync, so a crash mid-save never tears an existing artifact
/// (util/io.h AtomicFile; injection via the thread-local injector).
/// Throws std::runtime_error on I/O failure.
void write_artifact_file(const std::string& path, ArtifactStage stage,
                         std::uint64_t fingerprint, const BitVector& payload);

/// Reads an artifact written by write_artifact_file: the whole file
/// (util/io.h read_file), parsed by parse_artifact_container with the path
/// as context. Throws VbsError on any mismatch or truncation,
/// std::runtime_error on I/O failure.
BitVector read_artifact_file(const std::string& path, ArtifactStage stage,
                             const std::uint64_t* expected_fingerprint,
                             std::uint64_t* fingerprint_out = nullptr);

}  // namespace vbs
