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
//
// A proposal is priced incrementally: each affected net's bounding box is
// updated in O(1) per moved terminal, and rescanned only when a terminal
// leaves a bounding edge that no other terminal holds. Both paths use the
// one box kernel (net_box.h), so every delta equals a from-scratch
// rescan's, bit for bit.
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
  /// |accumulated incremental cost - placement_hpwl| at annealing exit,
  /// before the final I/O refinement; bounds the floating-point drift of
  /// the incremental bookkeeping.
  double cost_drift = 0.0;
};

/// Places `pd` on a grid_w x grid_h fabric. Throws std::invalid_argument if
/// the design does not fit (LUTs > tiles, or I/Os > perimeter capacity), or
/// if opts.effort is not finite and > 0 or scales moves per temperature
/// past long long.
Placement place_design(const Netlist& nl, const PackedDesign& pd,
                       const ArchSpec& spec, int grid_w, int grid_h,
                       const PlaceOptions& opts = {},
                       PlaceStats* stats = nullptr);

}  // namespace vbs
