// Simulated-annealing placer, following VPR's adaptive schedule
// (Betz & Rose, FPL'97): range-limited swap moves, temperature updates
// driven by the acceptance rate, and exit when the temperature falls below
// a small fraction of the per-net cost.
//
// The inner loop runs in batches of adaptive length. Every proposal of a
// batch draws its move from the LUT positions frozen at batch start, then
// is evaluated and accepted or rejected against the live state in slot
// order. The RNG stream, and so the whole schedule, is a pure function of
// the seed.
#pragma once

#include <cstdint>

#include "arch/arch_spec.h"
#include "netlist/netlist.h"
#include "pack/pack.h"
#include "place/placement.h"

namespace vbs {

struct PlaceOptions {
  /// 0 is the "unset" sentinel: run_flow fills it with FlowOptions::seed,
  /// and place_design itself treats it as seed 1 — so an explicitly
  /// requested placer seed of 1 is never silently replaced.
  std::uint64_t seed = 0;
  /// Scales moves-per-temperature (VPR's inner_num); 1.0 is "fast" quality.
  double effort = 1.0;
  /// Max I/Os per (side, tile) boundary; -1 means chan_width / 2.
  int io_per_tile = -1;
  /// Maintain net bounding boxes incrementally across moves (O(1) amortized
  /// per affected net) instead of rescanning every terminal of every
  /// affected net per proposal. Produces bit-identical cost deltas — and so
  /// an identical placement for a given seed — to the full-recompute path;
  /// off exists only as the cross-check / benchmark baseline.
  bool incremental_bbox = true;
};

struct PlaceStats {
  double initial_cost = 0.0;
  /// Cost of the returned placement, measured after the final I/O
  /// refinement pass; equals placement_hpwl(nl, pd, result) exactly.
  double final_cost = 0.0;
  /// Proposals actually evaluated: degenerate `to == from` slots — at
  /// generation time, or made degenerate by an earlier commit of their
  /// batch moving the drawn LUT onto the target — are skipped without
  /// costing a proposal, and are excluded here AND from the acceptance
  /// fraction that drives the temperature / range-limit schedule (they
  /// used to be counted, deflating it).
  long long moves = 0;
  long long accepted = 0;
  int temperatures = 0;
  /// |accumulated incremental cost - full recomputation| at annealing exit;
  /// bounds the floating-point drift of the incremental bookkeeping.
  double cost_drift = 0.0;
};

/// Places `pd` on a grid_w x grid_h fabric. Throws std::invalid_argument if
/// the design does not fit (LUTs > tiles, or I/Os > perimeter capacity).
Placement place_design(const Netlist& nl, const PackedDesign& pd,
                       const ArchSpec& spec, int grid_w, int grid_h,
                       const PlaceOptions& opts = {},
                       PlaceStats* stats = nullptr);

/// Bounding-box kernel cross-check: computes every net's from-scratch box
/// cost through the annealer's SoA scan kernel and through the retained
/// pre-SoA AoS reference (branchy fold-in over a struct per net), and
/// compares the per-net costs for exact double equality.
/// Place.SoaKernelMatchesAosReference holds the check.
struct PlaceKernelCheck {
  int nets = 0;
  double total_cost = 0.0;    ///< summed per-net cost (either side; they match)
  bool identical = false;     ///< per-net exact equality across every net
};
PlaceKernelCheck check_place_kernels(const Netlist& nl, const PackedDesign& pd,
                                     const Placement& pl);

}  // namespace vbs
