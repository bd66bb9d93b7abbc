// Map lookahead for A*: a table of unit-cost lower bounds on the distance
// from any routing node to any macro port, after the map lookahead of VPR 8
// (Murray et al., "VTR 8", ACM TRETS 2020). It aims both the global router
// (route/router.h) and the de-virtualizer (vbs/devirtualizer.h).
//
// Construction. One breadth-first search per macro port type (4W + L of
// them) over a full 5 x 5 virtual region, with the target at the centre
// macro. T[port][local][dy][dx] holds the hop count from macro-local node
// `local` of the macro (dx, dy) tiles from the target to the target, for
// dx, dy in -2..2. For a node farther away the bound adds the cheapest
// possible crossing of every extra tile:
//
//   h = T[port][local][clamp(dy)][clamp(dx)]
//       + (|dx| - 2)+ * (pins_on_x + 1) + (|dy| - 2)+ * (pins_on_y + 1)
//
// Admissibility. Every node a search enters costs at least 1, and port
// reservations, region and fabric edges, masked tracks and reserved pins
// only remove edges from the graph, so h stays a lower bound in every
// negotiation round (test_devirt checks h <= the region's BFS distance for
// every node and target, test_route the same over a fabric). A 3 x 3
// window is not enough: shortest paths within two tiles of the target can
// leave it, and its bounds overshoot.
//
// Sharing. The table depends on the architecture only. Lookahead::of
// builds it once per ArchSpec per process and shares it immutably across
// threads, routers and decoders, so a flow that routes and then encodes
// builds it once; for the paper's W = 20, K = 6 it is about 0.8 MB.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "arch/arch_spec.h"

namespace vbs {

/// Largest table Lookahead builds. The table grows with W^2 (0.8 MB at
/// the paper's W = 20); this bound is reached at W ~ 96. deserialize_vbs
/// also rejects streams whose table would exceed it.
inline constexpr std::uint64_t kMaxLookaheadBytes = std::uint64_t{1} << 24;

class Lookahead {
 public:
  /// Builds the table of `spec`; throws std::invalid_argument for an
  /// invalid spec and VbsError kResourceLimit for one whose table exceeds
  /// kMaxLookaheadBytes.
  explicit Lookahead(const ArchSpec& spec);

  /// The process-wide table of `spec`, built on first use. Thread-safe;
  /// the few most recently used architectures stay cached, so a stream of
  /// hostile headers cannot grow the cache without bound.
  static std::shared_ptr<const Lookahead> of(const ArchSpec& spec);

  /// Bytes the table of `spec` takes (without building it).
  static std::size_t table_bytes(const ArchSpec& spec);

  const ArchSpec& spec() const { return spec_; }

  /// Lower bound on the unit-cost hop count to the macro port `port` from
  /// the node with macro-local id `local` in the macro (dx, dy) tiles away
  /// from the port's macro.
  int bound(int port, int local, int dx, int dy) const {
    const int adx = std::abs(dx);
    const int ady = std::abs(dy);
    const int cdx = adx > kRadius ? (dx < 0 ? -kRadius : kRadius) : dx;
    const int cdy = ady > kRadius ? (dy < 0 ? -kRadius : kRadius) : dy;
    const std::size_t at =
        ((static_cast<std::size_t>(port) * num_local_ +
          static_cast<std::size_t>(local)) *
             kSpan +
         static_cast<std::size_t>(cdy + kRadius)) *
            kSpan +
        static_cast<std::size_t>(cdx + kRadius);
    return table_[at] + (adx > kRadius ? (adx - kRadius) * cross_x_ : 0) +
           (ady > kRadius ? (ady - kRadius) * cross_y_ : 0);
  }

 private:
  static constexpr int kRadius = 2;
  static constexpr int kSpan = 2 * kRadius + 1;

  ArchSpec spec_;
  int num_local_;
  int cross_x_;  ///< nodes on a ChanX track across one macro: pins_on_x + 1
  int cross_y_;  ///< nodes on a ChanY track across one macro: pins_on_y + 1
  std::vector<std::uint8_t> table_;
};

}  // namespace vbs
