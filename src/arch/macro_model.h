// Detailed routing-resource model of a single macro (paper Fig. 1).
//
// Geometry (Eq. 1 fixes only the switch counts, so these are free choices
// of this model): the logic block (LB) sits in the north-east region of
// the tile, ChanX runs along the south edge, ChanY along the west edge,
// and the switch box (SB) sits at the south-west corner where they meet. Track wires are single-length: they end at the
// tile boundary where they abut the neighbouring tile's collinear wire.
//
// Electrical segments ("nodes"):
//   XW(t)     ChanX track t from the SB to the west boundary.
//   X(t,s)    ChanX track t east of the SB, cut into px+1 segments by the
//             px pin-stub crossings; X(t,px) touches the east boundary.
//   YS(t)     ChanY track t from the SB to the south boundary.
//   Y(t,s)    ChanY track t north of the SB, py+1 segments; Y(t,py) touches
//             the north boundary.
//   STUB(p,s) Connection-box stub of LB pin p, cut into W segments by its
//             W crossings with the channel tracks; STUB(p,0) is the pin
//             itself. Pins 0..px-1 cross ChanX, pins px..L-1 cross ChanY
//             (the LUT output is pin L-1). Stub p's crossing number s meets
//             track W-1-s; the final crossing (track 0) is a 3-way T where
//             the stub terminates.
//
// Programmable switch points (each one pass-transistor per arm pair):
//   SB point t      4 arms {XW, X(t,0), YS, Y(.,0)}          -> 6 switches
//   crossing (p,s)  4 arms {stub up, stub down, trk W, trk E} -> 6 switches
//   tee (p)         3 arms {stub, trk W, trk E}               -> 3 switches
//
// The canonical configuration-bit order defined here *is* the raw bit-stream
// format: NLB logic bits first, then SB points 0..W-1, then per pin p the
// crossings s = 0..W-2 followed by the T, each switch point contributing its
// pairwise switches in lexicographic arm order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/arch_spec.h"

namespace vbs {

/// Sides of a macro for boundary-port numbering. Port id layout:
/// [0,W) west, [W,2W) east, [2W,3W) north, [3W,4W) south, [4W,4W+L) pins.
enum class Side : std::uint8_t { kWest = 0, kEast = 1, kNorth = 2, kSouth = 3 };

struct SwitchPoint {
  enum class Kind : std::uint8_t { kSwitchBox, kCross, kTee };
  Kind kind;
  /// First configuration bit of this point within the macro's routing
  /// region (i.e. offset NLB + bit_offset in the raw macro frame).
  int bit_offset;
  int n_arms;  ///< 4 (6 switches) or 3 (3 switches)
  std::array<int, 4> arms;  ///< local node ids; arms[3] == -1 for a T

  int n_switches() const { return n_arms == 4 ? 6 : 3; }

  /// Index of the (a,b) arm-pair switch within this point, a < b in
  /// lexicographic enumeration order ((0,1),(0,2),(0,3),(1,2),(1,3),(2,3)).
  int pair_index(int a, int b) const;
  /// Inverse of pair_index.
  std::pair<int, int> pair_arms(int pair) const;
};

class MacroModel {
 public:
  explicit MacroModel(const ArchSpec& spec);

  /// The process-wide model of `spec` (arch/arch_registry.h), built on
  /// first use and shared immutably; every RegionModel of an architecture
  /// references this one instead of building a copy.
  static std::shared_ptr<const MacroModel> of(const ArchSpec& spec);

  const ArchSpec& spec() const { return spec_; }

  int num_nodes() const { return num_nodes_; }
  int num_ports() const { return spec_.ports_per_macro(); }
  /// Heap bytes of the switch-point, adjacency and port tables.
  std::size_t bytes() const;
  /// Routing configuration bits (Nraw - NLB).
  int num_route_bits() const { return spec_.nroute_bits(); }

  const std::vector<SwitchPoint>& switch_points() const { return points_; }

  // --- local node id helpers -------------------------------------------
  int xw(int t) const;
  int x(int t, int s) const;
  int ys(int t) const;
  int y(int t, int s) const;
  int stub(int p, int s) const;
  /// The electrical node of LB pin p (== stub(p, 0)).
  int pin_node(int p) const { return stub(p, 0); }

  // --- boundary ports ----------------------------------------------------
  int port_of_side(Side side, int track) const {
    return static_cast<int>(side) * spec_.chan_width + track;
  }
  int port_of_pin(int p) const { return 4 * spec_.chan_width + p; }
  /// Local node carrying a given port (boundary wire or pin stub).
  int port_node(int port) const;
  /// Port id of a node, or -1 if the node is interior.
  int node_port(int node) const { return node_port_[node]; }
  bool is_boundary_port(int port) const { return port < 4 * spec_.chan_width; }

  // --- intra-macro adjacency (for the de-virtualizer's router) -----------
  struct Adj {
    int to;     ///< neighbouring local node
    int point;  ///< index into switch_points()
    int pair;   ///< pair index within the point
  };
  const std::vector<Adj>& adjacency(int node) const { return adj_[node]; }

  /// Human-readable node name for diagnostics, e.g. "X(t3,s1)".
  std::string node_name(int node) const;

 private:
  void build_nodes();
  void build_points();
  void add_point(SwitchPoint::Kind kind, std::array<int, 4> arms, int n_arms);

  ArchSpec spec_;
  int num_nodes_ = 0;
  // id range bases
  int base_xw_ = 0, base_x_ = 0, base_ys_ = 0, base_y_ = 0, base_stub_ = 0;
  std::vector<SwitchPoint> points_;
  std::vector<std::vector<Adj>> adj_;
  std::vector<int> node_port_;
  int next_bit_ = 0;
};

}  // namespace vbs
