#include "route/mcw.h"

#include <algorithm>
#include <memory>

#include "fabric/fabric.h"
#include "route/route_request.h"
#include "util/logging.h"
#include "util/telemetry.h"

namespace vbs {

McwResult find_min_channel_width(const ArchSpec& base_spec, const Netlist& nl,
                                 const PackedDesign& pd, const Placement& pl,
                                 const McwOptions& opts) {
  telem::Span search_span("mcw", "search");
  const std::uint64_t search_start = telem::now_ns();
  McwResult res;
  const int hi = opts.hi;

  // The placer's I/O tracks must exist at a trial width, so any width at or
  // below the highest used track is infeasible before routing: the search
  // floor is the first width that can carry every placed I/O (at least 2;
  // below 2 tracks the SB degenerates).
  int lo = min_channel_width_for_io(pl);
  if (lo > hi) return res;  // mcw = -1: no feasible width at all

  // One fabric/route-request pair at the running upper bound, resized
  // (rebuilt wider) only while the doubling probe is still climbing;
  // narrower trials mask tracks instead. Node ids are stable from the
  // first routable width on, which is what makes warm seeding possible.
  std::unique_ptr<Fabric> fabric;
  RouteRequest base_request;
  int fabric_w = 0;
  std::vector<NetRoute> warm;  // last routable solution (narrowest so far)

  auto trial = [&](int width) {
    telem::Span trial_span("mcw", "trial");
    ++res.trials;
    const std::uint64_t t0 = telem::now_ns();
    if (width > fabric_w) {
      ArchSpec spec = base_spec;
      spec.chan_width = width;
      fabric = std::make_unique<Fabric>(spec, pl.grid_w, pl.grid_h);
      // I/O ports counted from the top of the channel, like the kept
      // tracks of a masked trial: the request stays valid at every
      // narrower width whose I/O feasibility check passes.
      base_request = build_route_request(*fabric, nl, pd, pl,
                                         /*io_tracks_from_top=*/true);
      fabric_w = width;
    }
    PathfinderRouter router(*fabric, base_request,
                            width < fabric_w ? width : 0);
    // A seed can corner the negotiation where a cold route would have
    // converged; a stalled seeded trial rips everything (trees AND history)
    // and reroutes once, so a post-restart verdict is exactly a cold
    // route's verdict.
    const bool seeded = opts.warm_start && !warm.empty();
    if (seeded) router.seed_routes(warm);
    RoutingResult rr = router.route(opts.router);
    McwTrial t;
    t.width = width;
    t.routable = rr.success;
    t.iterations = rr.iterations;
    t.heap_pops = rr.heap_pops;
    t.seconds = telem::seconds_since(t0);
    t.seeded = seeded;
    res.heap_pops += rr.heap_pops;
    trial_span.arg("width", width)
        .arg("routable", (long long)(rr.success ? 1 : 0))
        .arg("pops", rr.heap_pops);
    telem::counter_add("mcw.trials");
    res.trial_log.push_back(t);
    log_debug("mcw trial W=" + std::to_string(width) + ": " +
              (rr.success ? "routable" : "unroutable") + " (" +
              std::to_string(rr.heap_pops) + " pops)");
    if (rr.success) warm = std::move(rr.routes);  // narrowest success so far
    return rr.success;
  };

  // Find a routable upper bound by doubling from the probe hint.
  int known_good = -1;
  int probe = std::max(lo, opts.hint > 0 ? opts.hint : kMcwDefaultProbe);
  probe = std::min(probe, hi);
  while (probe <= hi) {
    if (trial(probe)) {
      known_good = probe;
      break;
    }
    lo = probe + 1;
    if (probe == hi) break;
    probe = std::min(probe * 2, hi);
  }
  if (known_good < 0) {
    res.seconds = telem::seconds_since(search_start);
    return res;  // mcw = -1
  }

  // Bisection in [lo, known_good], biased toward the routable side: probe
  // the upper third of the interval instead of the midpoint. Trial costs
  // are asymmetric — a routable trial converges (and refreshes the warm
  // seed with a narrower solution), while an unroutable one grinds
  // stall_abort congested iterations before giving up, worst of all at
  // deeply-infeasible widths (ex5p's W=8 trial alone was ~60% of its
  // search). Failures still move `lo` past the probe, so the count stays
  // O(log W) — just weighted toward the cheap side.
  int good = known_good;
  while (lo < good) {
    const int mid = good - std::max(1, (good - lo) / 3);
    if (trial(mid)) {
      good = mid;
    } else {
      lo = mid + 1;
    }
  }
  res.mcw = good;
  res.seconds = telem::seconds_since(search_start);
  search_span.arg("mcw", good).arg("trials", (long long)res.trials);
  return res;
}

}  // namespace vbs
