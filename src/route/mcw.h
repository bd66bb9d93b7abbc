// Minimum-channel-width search: the procedure VPR uses to report a
// circuit's channel demand (Table II's MCW column). Routes the placed
// design at candidate widths and binary-searches the smallest routable one.
//
// The search keeps ONE fabric/route-request pair at the running upper
// bound; a trial at a narrower width masks the excess tracks out of the
// routing graph (PathfinderRouter's width_limit) instead of rebuilding the
// fabric, so RR-node ids stay stable across trials. That makes warm
// starting cheap: each trial is seeded with the surviving subtree of the
// last routable solution (connections over now-masked tracks are ripped
// up), and the router only re-finds the ripped connections plus whatever
// congestion negotiation they trigger — typically a small fraction of a
// cold route's heap pops. A seeded trial that stalls restarts once from
// scratch (PathfinderRouter::seed_routes), so its verdict is a cold
// trial's.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/arch_spec.h"
#include "netlist/netlist.h"
#include "pack/pack.h"
#include "place/placement.h"
#include "route/router.h"

namespace vbs {

/// Doubling-probe start when McwOptions::hint <= 0: the paper's channel
/// width, at which the 5-circuit suite and perfbench's compile workload
/// route end to end for the whole circuit mix, so it is the best
/// unconditional first guess for a routable upper bound.
inline constexpr int kMcwDefaultProbe = 20;

/// Stall-abort applied to trial routers by default: MCW trials exist only
/// to answer routable-or-not, so a negotiation that stops improving for
/// this many iterations is cut short instead of burning the full
/// max_iterations budget.
inline constexpr int kMcwTrialStallAbort = 8;

/// The search floor is not an option: it is min_channel_width_for_io, the
/// first width that carries every placed I/O track (never below 2).
struct McwOptions {
  int hi = 64;             ///< give-up upper bound
  /// First width to probe (e.g. a known or expected MCW); <= 0 picks
  /// kMcwDefaultProbe. A good hint halves the number of expensive failing
  /// trials.
  int hint = -1;
  /// Seed each trial from the last routable solution's surviving tree
  /// (off = every trial routes cold; Determinism.McwWarmStartMatchesColdSearch
  /// compares the two, and CHANGES.md keeps the last suite-wide ratio).
  bool warm_start = true;
  /// Per-trial router settings. A trial only asks whether a width is
  /// routable, so it aims with the pure admissible lookahead bound
  /// (astar_fac 0): the flow's directed default finds wider channels.
  RouterOptions router;
  McwOptions() {
    router.stall_abort = kMcwTrialStallAbort;
    router.astar_fac = 0.0;
  }
};

/// One routing trial of the search, for cost reporting (satellite of the
/// bench's mcw section): which width, what it cost, how it ended.
struct McwTrial {
  int width = 0;
  bool routable = false;
  int iterations = 0;
  long long heap_pops = 0;
  double seconds = 0.0;
  bool seeded = false;           ///< warm-seeded from a prior solution
};

struct McwResult {
  int mcw = -1;            ///< -1 when unroutable even at `hi`
  int trials = 0;
  long long heap_pops = 0; ///< total over all trials
  double seconds = 0.0;    ///< total wall time of the search
  std::vector<McwTrial> trial_log;  ///< one entry per routing trial
};

/// Finds the minimum routable channel width for a placed design. The
/// placement is width-independent, so one placement serves all trials;
/// widths that cannot carry a placed I/O track are infeasible by
/// construction and never routed.
McwResult find_min_channel_width(const ArchSpec& base_spec, const Netlist& nl,
                                 const PackedDesign& pd, const Placement& pl,
                                 const McwOptions& opts = {});

}  // namespace vbs
