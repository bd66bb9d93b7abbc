// Parameters of the island-style FPGA architecture modelled after the paper:
// a grid of *macros*, each containing one logic block (K-input LUT plus
// flip-flop), the horizontal (ChanX) and vertical (ChanY) connection boxes
// adjacent to it, and one switch box interconnecting both channels
// (paper Fig. 1a).
//
// The programmable-switch budget follows the paper's Eq. (1):
//
//   Nraw = NLB + 6*(NS + NC+) + 3*NCT
//
// with NLB = 2^K + 1 (LUT mask + FF select), NS = W switch-box points,
// NC+ = L*(W-1) four-way pin/track crossings and NCT = L three-way stub
// terminations, L = K+1 logic-block pins. For the paper's W = 5, K = 6
// example this yields Nraw = 284, and 1004 bits per macro at the
// normalized W = 20 used in the evaluation.
#pragma once

#include <cstdint>

namespace vbs {

/// Which track indices meet at each switch-box point. The paper's formula
/// only fixes the *count* (W four-way points); the topology is pluggable.
enum class SbPattern : std::uint8_t {
  kDisjoint,  ///< point t joins ChanX track t with ChanY track t (planar)
  kWilton,    ///< point t joins ChanX track t with rotated ChanY indices
};

struct ArchSpec {
  int chan_width = 20;                      ///< W: tracks per routing channel
  int lut_k = 6;                            ///< K: LUT input count (<= 6)
  SbPattern sb_pattern = SbPattern::kDisjoint;

  /// L: logic-block pins (K inputs + 1 output).
  int lb_pins() const { return lut_k + 1; }
  /// NLB: configuration bits of one logic block (LUT mask + FF select).
  int nlb_bits() const { return (1 << lut_k) + 1; }

  /// Pins whose connection-box stub crosses ChanX (inputs 0..px-1).
  int pins_on_x() const { return (lb_pins() + 1) / 2; }
  /// Pins whose stub crosses ChanY (remaining inputs + the LUT output).
  int pins_on_y() const { return lb_pins() - pins_on_x(); }

  /// NS of Eq. (1): four-way switch-box points.
  int sb_points() const { return chan_width; }
  /// NC+ of Eq. (1): four-way pin/track crossings per macro.
  int cross_points() const { return lb_pins() * (chan_width - 1); }
  /// NCT of Eq. (1): three-way stub terminations per macro.
  int tee_points() const { return lb_pins(); }

  /// Nraw of Eq. (1): raw configuration bits of one macro.
  int nraw_bits() const {
    return nlb_bits() + 6 * (sb_points() + cross_points()) + 3 * tee_points();
  }
  /// Routing-only configuration bits (Nraw minus the logic-block data).
  int nroute_bits() const { return nraw_bits() - nlb_bits(); }

  /// Black-box I/O count of a single macro: W track ports on each of the
  /// four sides plus the L logic-block pins.
  int ports_per_macro() const { return 4 * chan_width + lb_pins(); }

  /// Sanity checks (positive W, K in [1,6], ...); throws std::invalid_argument.
  void validate() const;

  friend bool operator==(const ArchSpec&, const ArchSpec&) = default;
};

}  // namespace vbs
