// vbsgen: the Virtual Bit-Stream generation backend (paper Section III-B).
//
// Consumes the placed-and-routed design and produces a VbsImage:
//   1. every net's route tree is cut at decode-region boundaries; within a
//      region, each connected piece becomes one signal described by
//      (in, out*) port pairs — `in` being the terminal nearest the driver;
//   2. the online de-virtualization algorithm is run offline as a feedback
//      loop; if the decode fails for the emitted order, the connection list
//      is re-ordered: sorted by (in, out), then that order reversed, then
//      kReorderAttempts shuffles from an RNG seeded with kReorderSeed.
//      The loop runs in three phases. Extraction, assembly and the raw
//      fallbacks below are serial and mark the entries that need the loop.
//      A thread pool then tries the three fixed orders of those entries,
//      largest entry first; they use no RNG, and a decode is pure per entry,
//      so no verdict depends on the thread that reached it. Last, one serial
//      pass in entry order runs the shuffles of the entries still failing,
//      so the one RNG is drawn from in the same order as by a loop that
//      takes one entry at a time. The stream is therefore the same at any
//      thread count; the count is min(hardware threads, 4), not an option.
//      Each thread decodes on its own decoders, built on the calling thread,
//      over region models that all threads share read-only;
//   3. if no feasible order is found — or the Table I pair list is no
//      smaller than the region's raw switch bits — the region falls back
//      to raw coding, which keeps the stream always decodable and never
//      larger than necessary.
#pragma once

#include <cstdint>

#include "fabric/fabric.h"
#include "netlist/netlist.h"
#include "pack/pack.h"
#include "place/placement.h"
#include "route/router.h"
#include "vbs/vbs_format.h"

namespace vbs {

/// Seeded shuffles the feedback loop tries after the two deterministic
/// orders fail, and the seed of their RNG. flow.meta and the encode stage's
/// fingerprint (flow/pipeline.cpp) record both, so changing one moves
/// every encode checkpoint.
inline constexpr int kReorderAttempts = 24;
inline constexpr std::uint64_t kReorderSeed = 0x5eed;

struct EncodeOptions {
  int cluster = 1;
  /// Negotiation budget of the decode feedback loop; 1 = pure greedy
  /// decoding (the decoder must then use the same budget online).
  int decode_iterations = 24;
  /// Ablation switches (the feedback-loop ablation of tools/vbspaper):
  bool force_raw = false;   ///< code every region raw (no virtualization)
  bool no_reorder = false;  ///< first-order-only feedback, raw on failure
};

struct EncodeStats {
  int entries = 0;
  int raw_entries = 0;            ///< total raw-coded regions
  int conflict_fallbacks = 0;     ///< raw because no order decoded
  int size_fallbacks = 0;         ///< raw because the list was bigger
  int overflow_fallbacks = 0;     ///< raw because of route-count overflow
  int reordered_entries = 0;      ///< decoded only after re-ordering
  long long connections = 0;
  VbsSizeBreakdown size;          ///< the stream's bits by Table I part
  std::size_t vbs_bits = 0;       ///< size.total(): the serialized stream
  std::size_t raw_bits = 0;       ///< size of the equivalent raw bit-stream

  double compression_ratio() const {
    return raw_bits == 0 ? 0.0
                         : static_cast<double>(vbs_bits) /
                               static_cast<double>(raw_bits);
  }
};

/// Encodes a routed design whose task footprint is the whole `fabric`.
/// The returned image is validated by the feedback loop with the decoder
/// that reads it (vbs_format.h) and decodes (devirtualize_image) at any
/// origin of any compatible fabric. Throws std::logic_error on malformed route trees.
/// `stats`, when given, is overwritten with this call's counts. With
/// telemetry on, each call also adds vbs.encode.entries, .raw_entries,
/// .reordered_entries and .conflict_fallbacks (the EncodeStats fields).
VbsImage encode_vbs(const Fabric& fabric, const Netlist& nl,
                    const PackedDesign& pd, const Placement& pl,
                    const std::vector<NetRoute>& routes,
                    const EncodeOptions& opts = {},
                    EncodeStats* stats = nullptr);

}  // namespace vbs
