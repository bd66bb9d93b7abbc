// The Virtual Bit-Stream binary format (paper Table I).
//
// Layout (all fields MSB-first, widths in bits):
//
//   preamble   version(4) W(8) K(4) sb_pattern(2) compact(1) cluster(6) D(6)
//   header     task_w(D) task_h(D) entry_count(E)
//   entry*     flag(1) pos_x(D) pos_y(D) <logic> <routing>
//
// where D = ceil(log2(max(task_w, task_h)+1)) dimension-field width,
// E = ceil(log2(cw*ch+1)) with cw x ch the cluster grid. Per entry:
//
//   logic    c = 1:  NLB bits (LUT mask LSB-first + FF bit; Table I)
//            c > 1:  c^2 occupancy bitmap, then NLB bits per used LB
//   routing  flag=1: raw fallback, c^2 * (Nraw - NLB) switch bits
//            flag=0: Table I coding, route_count(RC) then per connection
//            version 2:     in(M) out(M)
//            version 3, 4:  same_in(1) [in(M) if same_in = 0] out(M)
//
// Version 3 (the paper's Fig. 5, recoding the list) sets same_in exactly
// when a connection's in port equals the previous connection's in port in
// the same entry; the encoder lists a fan-out's pairs next to each other,
// so a repeated in costs one bit instead of M. The coding is canonical:
// the reader rejects same_in = 1 on an entry's first connection and an in
// field that repeats the previous in, so every accepted stream
// re-serializes to its own bits.
//
// The decoder contract. The encoder proves decodability by running the
// de-virtualizer (paper Section III-B), whose A* estimates est = cost +
// h, h the per-architecture lookahead bound (arch/lookahead.h); a stream
// decodes to the switches the encoder validated only under the same
// heuristic and the same pop order among queue entries of equal est (the
// tie rule). The version names both:
//
//   version  list coding  tie rule among equal est
//   2        full-pair    lower node id first
//   3        same-in      lower node id first
//   4        same-in      smaller h first (nearer the target), then lower
//                         node id
//
// Version 4 lists connections exactly as version 3 does; only the tie
// rule differs, and it cuts the decoder's pops (vbs/devirtualizer.h). The
// encoder writes version 4 and validates under its rule. Streams of
// versions 2 and 3 (journals and files written before) still parse and
// decode under their own rule, and an image keeps the version it was read
// with. Any other version nibble is rejected, and so is a set compact(1)
// bit, reserved so that the layout does not move.
//
// RC = ceil(log2(2W)) at c=1 (Table I) and the endpoint width M for
// clusters, whose list can hold one connection per out-port;
// M = ceil(log2(4cW + c^2 L + 1)) as in the paper. Table I leaves the
// preamble (self-description), the flag bit (the paper's raw fallback)
// and the occupancy bitmap (which LBs carry logic) implicit. One walk in
// vbs_format.cpp lists these fields, and vbs_field_widths their widths.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/arch_spec.h"
#include "bitstream/bitstream.h"
#include "util/bitvector.h"

namespace vbs {

struct VbsConnection {
  std::uint16_t in;
  std::uint16_t out;
  friend bool operator==(const VbsConnection&, const VbsConnection&) = default;
};

/// One macro (c=1) or cluster (c>1) record.
struct VbsEntry {
  std::uint16_t cx = 0;  ///< cluster-grid position within the task
  std::uint16_t cy = 0;
  bool raw = false;
  /// c^2 logic configurations, region row-major ((0,0),(1,0),...).
  std::vector<LogicConfig> logic;
  /// Connection list (flag=0): the de-virtualizer routes these in order.
  std::vector<VbsConnection> conns;
  /// Raw routing payload (flag=1): c^2 * (Nraw-NLB) bits, region row-major.
  BitVector raw_routing;
};

/// The preamble version the encoder writes: the same_in list coding and
/// the toward-target tie rule (see the layout comment).
inline constexpr unsigned kVbsVersion = 4;
/// The oldest version deserialize_vbs parses: every in port written out.
inline constexpr unsigned kVbsVersionFullPairs = 2;
/// The first version with the same_in list coding.
inline constexpr unsigned kVbsVersionSameIn = 3;

/// Whether serialize_vbs and deserialize_vbs take `version`.
constexpr bool vbs_version_supported(unsigned version) {
  return version >= kVbsVersionFullPairs && version <= kVbsVersion;
}
/// Whether a supported version codes repeated in ports with same_in.
constexpr bool vbs_codes_same_in(unsigned version) {
  return version >= kVbsVersionSameIn;
}
/// Whether a supported version's decoder pops equal estimates nearest the
/// target first (version 4), not by node id alone.
constexpr bool vbs_ties_toward_target(unsigned version) {
  return version >= 4;
}

struct VbsImage {
  /// A supported version: serialize_vbs writes its coding, the decoder
  /// follows its tie rule, and deserialize_vbs records the one it read.
  unsigned version = kVbsVersion;
  ArchSpec spec;
  int task_w = 0;  ///< task footprint in macros
  int task_h = 0;
  int cluster = 1;
  std::vector<VbsEntry> entries;

  int cluster_grid_w() const { return (task_w + cluster - 1) / cluster; }
  int cluster_grid_h() const { return (task_h + cluster - 1) / cluster; }
};

/// Decode-time resource guards: deserialize_vbs rejects headers whose
/// task area or per-entry region footprint exceeds these with a typed
/// kResourceLimit error, so a hostile 31-bit preamble cannot demand
/// gigabytes of region-model or payload memory. Both are far above any
/// fabric the paper (W=20, c<=8) or this repo's encoder produces. A
/// header is also rejected when its architecture's lookahead table would
/// exceed kMaxLookaheadBytes (arch/lookahead.h).
inline constexpr std::uint64_t kMaxTaskMacros = std::uint64_t{1} << 20;
inline constexpr std::uint64_t kMaxEntryConfigBits = std::uint64_t{1} << 22;

/// Field widths of one task's stream, from its header values.
struct VbsFieldWidths {
  unsigned dim;        ///< D: task size and entry positions
  unsigned entry;      ///< E: entry count
  unsigned count;      ///< RC: route count
  unsigned port;       ///< M: one connection endpoint
  std::uint64_t ports; ///< endpoint values: 4cW + c^2 L region ports
  std::size_t raw;     ///< one entry's raw payload: c^2 (Nraw - NLB)
  /// The longest list the route-count field carries.
  std::uint64_t max_conns() const { return (std::uint64_t{1} << count) - 1; }
};

VbsFieldWidths vbs_field_widths(const ArchSpec& spec, int cluster, int task_w,
                                int task_h);

/// Bits of a stream by part; total() == serialize_vbs(img).size().
struct VbsSizeBreakdown {
  std::size_t header = 0;     ///< preamble, task size, entry count
  std::size_t position = 0;   ///< per-entry flag bit and position
  std::size_t occupancy = 0;  ///< per-entry LB occupancy bitmaps (c > 1)
  std::size_t logic = 0;      ///< NLB per coded logic block
  std::size_t count = 0;      ///< route-count fields
  /// Connection lists: M per out port, and per in port M (version 2) or
  /// 1 + M, or 1 when it repeats the previous pair's (versions 3 and 4).
  std::size_t list = 0;
  std::size_t raw = 0;        ///< raw-fallback routing payloads

  std::size_t total() const {
    return header + position + occupancy + logic + count + list + raw;
  }
};

/// Serializes to the on-wire bit format in img.version's coding; the
/// paper's compressed sizes are measured as serialize(img).size(). Throws
/// std::invalid_argument on an image the format cannot carry.
BitVector serialize_vbs(const VbsImage& img);

/// Parses a serialized stream back; throws VbsError carrying a specific
/// VbsErrc on malformed input — truncation, a version other than 2, 3 or
/// 4 (kBadVersion), a set compact bit or another bad header (kBadHeader),
/// duplicate or out-of-range entries, invalid or non-canonical connection
/// lists, trailing bits, or a resource-limit violation. The image records
/// the version it read, so it round-trips exactly with serialize_vbs.
/// Never crashes or reads out of bounds on arbitrary input
/// (tools/vbsfuzz.cpp holds this as a hard invariant).
VbsImage deserialize_vbs(const BitVector& bits);

/// serialize_vbs's bits by part, without serializing.
VbsSizeBreakdown vbs_size(const VbsImage& img);

/// One entry's bits within its image's stream (header excluded).
VbsSizeBreakdown vbs_entry_size(const VbsImage& img, const VbsEntry& e);

/// Raw (uncompressed) size of the same task: w*h*Nraw bits.
std::size_t raw_size_bits(const ArchSpec& spec, int task_w, int task_h);

}  // namespace vbs
