// PathFinder negotiated-congestion router (McMurchie & Ebeling, FPGA'95),
// the algorithm VPR uses, over the fabric's routing-resource graph.
//
// Each net is routed as a tree grown sink by sink with A*-directed Dijkstra
// expansion; congestion is negotiated across iterations through present-
// usage and history costs until no routing resource is overused.
//
// The A* estimate from node v to a sink dx, dy tiles away is
//   h(v) = Lookahead::bound(sink port, node_local(v), dx, dy)
//          + astar_fac * (|dx| * (pins_on_x + 1) + |dy| * (pins_on_y + 1)):
// the architecture's map-lookahead table (arch/lookahead.h, the one the
// de-virtualizer uses) is an admissible lower bound, since every node costs
// at least 1; the Manhattan term on top trades optimality for fewer pops.
//
// The negotiation schedule (present-congestion start, growth and history
// factors) and the bounding-box margin are constants of router.cpp. The
// hot-path switches below stay in RouterOptions because turning them off
// gives the textbook PathFinder baseline, which
// Determinism.BoundedRouterPopsFewerThanTextbookBaseline checks the
// defaults against:
//   * bounded_box (default ON): expansion and tree seeding restricted to
//     the box around the sink and the nearest tree point plus a 3-tile
//     margin, VPR's classic pruning. A connection that cannot complete
//     inside its box is retried with the net's whole terminal box and
//     finally with no box at all, so bounding never turns a routable
//     design into an unroutable one.
//   * incremental_reroute (default ON): congested nets keep the legal part
//     of their tree across iterations and reroute only the connections
//     crossing overused nodes, instead of whole-net rip-up.
//   * astar_fac (default 1.0): weight of the Manhattan term, see below.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "arch/lookahead.h"
#include "fabric/fabric.h"
#include "netlist/netlist.h"
#include "route/scratch.h"

namespace vbs {

/// Routing terminals of one net, as global RR nodes.
struct NetSpec {
  NetId net = kNoNet;
  int source = -1;
  std::vector<int> sinks;
};

struct RouteRequest {
  std::vector<NetSpec> nets;
};

/// A routed net: a tree over RR nodes. nodes[0] is the source (parent -1);
/// every other entry records the RR node, its parent entry index, and the
/// fabric edge (switch) index used to reach it — enough to recover the
/// exact set of programmable switches to turn on.
struct NetRoute {
  struct TreeNode {
    std::int32_t rr;
    std::int32_t parent;       ///< index into nodes, -1 for the source
    std::int64_t fabric_edge;  ///< index into the fabric edge array, -1 at source
  };
  std::vector<TreeNode> nodes;
};

/// Tag of the router's A* estimate (lookahead bound + weighted Manhattan
/// term), folded into a flow checkpoint's route fingerprint: routes found
/// under an earlier estimate are never resumed as if this router made them.
inline constexpr std::uint64_t kRouterHeuristicTag = 2;

// PathFinder's negotiation schedule (McMurchie & Ebeling): the present-
// congestion factor is free on the first iteration, kInitialPres on the
// second and grows by kPresMult per iteration after that; every overused
// node's history cost grows by kHistFac per excess occupant. flow.meta and
// the route stage's fingerprint (flow/pipeline.cpp) record these values and
// kBbMargin, so changing one moves every route checkpoint.
inline constexpr double kFirstIterPres = 0.0;
inline constexpr double kInitialPres = 0.5;
inline constexpr double kPresMult = 1.8;
inline constexpr double kHistFac = 1.0;
/// Tiles added on every side of a connection's bounding box.
inline constexpr int kBbMargin = 3;

struct RouterOptions {
  int max_iterations = 50;
  /// Weight of the Manhattan term added to the admissible lookahead bound
  /// in the A* estimate. 0 is the pure bound: each search then finds a
  /// cheapest path inside its box (the minimum-channel-width search uses
  /// it, see McwOptions). The default 1.0 keeps the wave directed through
  /// congested iterations: against 0 it cuts heap pops about 3x on the
  /// Table II circuits and gives smaller VBS streams for about 7% more
  /// wire (numbers in CHANGES.md).
  double astar_fac = 1.0;
  /// Abort as unroutable when the overused-node count has not improved for
  /// this many iterations (0 = disabled). Used by the minimum-channel-width
  /// search to cut hopeless trials short. A seeded route (seed_routes)
  /// absorbs its first near-miss stall (at most 64 overused nodes)
  /// instead: it rips up EVERY net — trees, occupancy and history — and
  /// renegotiates from scratch once, so a seed that painted itself into a
  /// corner gets an attempt identical to an unseeded route, and the
  /// verdict after the restart matches a cold router's exactly.
  int stall_abort = 0;
  /// Restrict each connection's expansion (and its tree seeds) to the box
  /// around the sink and the nearest point of the current route tree,
  /// grown by kBbMargin tiles (default on). A failing connection
  /// automatically retries with the whole terminal box and then unbounded,
  /// so this is a pure pruning optimization, never a routability change.
  bool bounded_box = true;
  /// On reroute iterations, keep the legal part of a congested net's tree
  /// and reroute only the connections whose path crosses an overused node,
  /// instead of ripping up and rebuilding the whole net (default on).
  /// Off = the textbook whole-net rip-up of the baseline router.
  bool incremental_reroute = true;
};

/// Per-PathFinder-iteration counters, for perf trajectories and
/// congestion-convergence debugging.
struct RouteIterStats {
  int iteration = 0;
  double seconds = 0.0;            ///< wall time of this iteration
  long long heap_pops = 0;         ///< pops spent in this iteration
  std::size_t rerouted_nets = 0;   ///< nets (re)routed this iteration
  std::size_t overused_nodes = 0;  ///< congestion after this iteration
};

struct RoutingResult {
  bool success = false;
  int iterations = 0;
  std::vector<NetRoute> routes;  ///< parallel to RouteRequest::nets
  std::size_t total_wire_nodes = 0;
  std::size_t overused_nodes = 0;  ///< at exit (0 on success)
  /// A* heap pops over every search of the run.
  long long heap_pops = 0;
  /// Connections that failed inside their bounding box and were retried
  /// with a grown / unbounded box (0 unless the box was too tight).
  long long bbox_retries = 0;
  std::vector<RouteIterStats> iter_stats;  ///< one entry per iteration
};

class PathfinderRouter {
 public:
  /// `width_limit` > 0 keeps only the TOP width_limit channel tracks
  /// (track >= chan_width - width_limit); the rest are masked out of the
  /// routing graph, emulating a narrower fabric without rebuilding it
  /// (node ids stay stable). Because pin stubs cross the highest track
  /// first, the kept subgraph is connectivity-isomorphic to a real
  /// width_limit-wide fabric (plus dead stub tails past the lowest kept
  /// track). Used by the minimum-channel-width search to share one fabric
  /// across trial widths; terminals must sit on unmasked wires (I/O ports
  /// come from build_route_request's io_tracks_from_top mode).
  /// 0 = the fabric's full width.
  /// Throws VbsError kResourceLimit when the fabric's lookahead table
  /// would exceed kMaxLookaheadBytes (W ~ 96 or more).
  PathfinderRouter(const Fabric& fabric, RouteRequest request,
                   int width_limit = 0);

  /// Seeds the router with a prior solution (parallel to the request's
  /// nets), e.g. the surviving tree of a wider-channel routing in the MCW
  /// search. For each net the maximal legal subtree is kept: nodes on
  /// masked tracks are dropped (with their subtrees), then branches that no
  /// longer reach a sink. Must be called before route(), at most once.
  /// A seeded route restarts once from scratch on a near-miss stall (see
  /// RouterOptions::stall_abort).
  void seed_routes(const std::vector<NetRoute>& prior);

  RoutingResult route(const RouterOptions& opts = {});

  /// The A* estimate of the cost from node `v` to the net sink `sink` (see
  /// the header comment); with astar_fac = 0 it is a lower bound on every
  /// path's cost.
  float estimate(int v, int sink, double astar_fac) const {
    const Point p = fabric_.node_pos(v);
    const Point t = fabric_.node_pos(sink);
    const int dx = p.x - t.x;
    const int dy = p.y - t.y;
    const int port = fabric_.macro().node_port(fabric_.node_local(sink));
    return static_cast<float>(
        lookahead_->bound(port, fabric_.node_local(v), dx, dy) +
        astar_fac * (std::abs(dx) * cross_x_ + std::abs(dy) * cross_y_));
  }

 private:
  /// Inclusive tile-coordinate expansion window.
  struct BBox {
    int x0, y0, x1, y1;
    bool contains(Point p) const {
      return p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1;
    }
    friend bool operator==(const BBox&, const BBox&) = default;
  };

  bool route_net(std::size_t net_idx, double pres_fac,
                 const RouterOptions& opts, NetRoute& route);
  /// One A* wave from the current tree of `net_idx` to `sink` within `box`.
  bool expand_to_sink(const NetRoute& route, int sink, double pres_fac,
                      double astar_fac, const BBox& box);
  /// Expansion window for escalation level 0 (sink-to-tree connection box
  /// plus margin), 1 (whole terminal box, grown margin), 2 (whole fabric).
  BBox expansion_box(std::size_t net_idx, Point sink_pos, Point near_pos,
                     int level, const RouterOptions& opts) const;
  void rip_up(std::size_t net_idx);
  /// Drops tree nodes sitting on (or downstream of) an overused node, plus
  /// any surviving branch that no longer leads to a sink, releasing their
  /// occupancy. Keeps the source. Re-stamps the scratch's tree_idx_of for
  /// the kept nodes under the current tree epoch.
  void prune_overused(std::size_t net_idx, NetRoute& route);
  bool net_congested(const NetRoute& route) const;

  /// Per-net iteration body (congested check + route); returns false on
  /// an unroutable net. `full` forces routing regardless of congestion
  /// (first iteration, or the iteration after a stall restart).
  bool iteration_net(std::size_t net_idx, bool full, double pres_fac,
                     const RouterOptions& opts, std::size_t* rerouted);

  const Fabric& fabric_;
  RouteRequest request_;
  std::shared_ptr<const Lookahead> lookahead_;  ///< Lookahead::of(spec)
  int cross_x_;  ///< nodes on a ChanX track across one macro: pins_on_x + 1
  int cross_y_;  ///< nodes on a ChanY track across one macro: pins_on_y + 1
  std::vector<NetRoute> routes_;
  bool seeded_ = false;  ///< seed_routes was called: restart once on a stall

  // Per-RR-node congestion state.
  std::vector<std::uint16_t> occ_;
  std::vector<float> hist_;
  /// kFree = plain wire; kPinOnly = pin-stub seg-0 node, usable only as a
  /// net's own terminal (prevents shorting foreign signals onto LUT pins);
  /// kMasked = track >= width_limit, not part of this trial's fabric.
  enum NodeClass : std::uint8_t { kFree = 0, kPinOnly = 1, kMasked = 2 };
  std::vector<std::uint8_t> node_class_;

  /// Terminal bounding box of each net (tile coordinates, no margin).
  std::vector<BBox> net_box_;

  RouterScratch scratch_;  ///< search state, reused across every net
};

}  // namespace vbs
