#include "route/router.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"
#include "util/telemetry.h"

namespace vbs {

PathfinderRouter::PathfinderRouter(const Fabric& fabric, RouteRequest request,
                                   int width_limit)
    : fabric_(fabric),
      request_(std::move(request)),
      lookahead_(Lookahead::of(fabric.spec())),
      cross_x_(fabric.spec().pins_on_x() + 1),
      cross_y_(fabric.spec().pins_on_y() + 1) {
  const int n = fabric_.num_nodes();
  occ_.assign(static_cast<std::size_t>(n), 0);
  hist_.assign(static_cast<std::size_t>(n), 0.0f);
  scratch_.init(n);

  // Mark pin seg-0 nodes as reserved terminals, then mask out every track
  // wire at or above the width limit (the MCW search's narrower trial
  // fabrics are this fabric minus those tracks).
  node_class_.assign(static_cast<std::size_t>(n), kFree);
  const MacroModel& mm = fabric_.macro();
  const ArchSpec& spec = fabric_.spec();
  for (int my = 0; my < fabric_.height(); ++my) {
    for (int mx = 0; mx < fabric_.width(); ++mx) {
      for (int p = 0; p < spec.lb_pins(); ++p) {
        node_class_[static_cast<std::size_t>(
            fabric_.global_node(mx, my, mm.pin_node(p)))] = kPinOnly;
      }
    }
  }
  if (width_limit > 0 && width_limit < spec.chan_width) {
    // Keep the TOP width_limit tracks: pin stubs cross track W-1 first, so
    // the top tracks of this fabric are wired to the pins exactly like the
    // (full) tracks of a width_limit-wide fabric — the masked subgraph is
    // the narrow fabric plus dead stub tails, not an elongated detour. It
    // also means solutions at a wider limit concentrate on wires that
    // survive a narrower one, which is what makes MCW warm seeds live.
    const int px = spec.pins_on_x();
    const int py = spec.pins_on_y();
    auto mask = [&](int mx, int my, int local) {
      node_class_[static_cast<std::size_t>(
          fabric_.global_node(mx, my, local))] = kMasked;
    };
    for (int my = 0; my < fabric_.height(); ++my) {
      for (int mx = 0; mx < fabric_.width(); ++mx) {
        for (int t = 0; t < spec.chan_width - width_limit; ++t) {
          mask(mx, my, mm.xw(t));
          mask(mx, my, mm.ys(t));
          for (int s = 0; s <= px; ++s) mask(mx, my, mm.x(t, s));
          for (int s = 0; s <= py; ++s) mask(mx, my, mm.y(t, s));
        }
      }
    }
  }

  // Route sinks farthest-first (VPR's ordering): stabilizes tree growth.
  // The terminal bounding box of each net doubles as its default expansion
  // window when bounded-box routing is on.
  net_box_.reserve(request_.nets.size());
  for (NetSpec& nspec : request_.nets) {
    // The lookahead aims at macro ports: every sink (an LB pin or an I/O
    // track on the fabric edge) carries one at its node_pos tile.
    assert(std::all_of(nspec.sinks.begin(), nspec.sinks.end(), [&](int g) {
      return mm.node_port(fabric_.node_local(g)) >= 0;
    }));
    const Point s = fabric_.node_pos(nspec.source);
    std::stable_sort(nspec.sinks.begin(), nspec.sinks.end(), [&](int a, int b) {
      return manhattan(fabric_.node_pos(a), s) > manhattan(fabric_.node_pos(b), s);
    });
    BBox box{s.x, s.y, s.x, s.y};
    for (const int sink : nspec.sinks) {
      const Point p = fabric_.node_pos(sink);
      box.x0 = std::min(box.x0, p.x);
      box.x1 = std::max(box.x1, p.x);
      box.y0 = std::min(box.y0, p.y);
      box.y1 = std::max(box.y1, p.y);
    }
    net_box_.push_back(box);
  }
  routes_.resize(request_.nets.size());
}

void PathfinderRouter::seed_routes(const std::vector<NetRoute>& prior) {
  assert(prior.size() == request_.nets.size());
  seeded_ = true;
  RouterScratch& s = scratch_;
  for (std::size_t i = 0; i < prior.size() && i < routes_.size(); ++i) {
    const auto& src = prior[i].nodes;
    auto& dst = routes_[i].nodes;
    assert(dst.empty());
    if (src.empty()) continue;
    // Pass 1 (parents precede children): survives = not masked, surviving
    // parent. The source is a terminal and is never masked.
    s.keep.assign(src.size(), 0);
    for (std::size_t k = 0; k < src.size(); ++k) {
      s.keep[k] =
          node_class_[static_cast<std::size_t>(src[k].rr)] != kMasked &&
          (src[k].parent < 0 ||
           s.keep[static_cast<std::size_t>(src[k].parent)]);
    }
    // Pass 2 (children before parents): drop surviving branches that no
    // longer reach any sink.
    s.begin_tree();
    for (const int sink : request_.nets[i].sinks) {
      s.sink_mark[static_cast<std::size_t>(sink)] = s.tree_epoch;
    }
    s.useful.assign(src.size(), 0);
    for (std::size_t k = src.size(); k-- > 0;) {
      if (s.keep[k] != 0 &&
          s.sink_mark[static_cast<std::size_t>(src[k].rr)] == s.tree_epoch) {
        s.useful[k] = 1;
      }
      if (s.useful[k] != 0 && src[k].parent >= 0) {
        s.useful[static_cast<std::size_t>(src[k].parent)] = 1;
      }
    }
    s.useful[0] = 1;
    // Pass 3: compact with parent remap, occupy the kept wires.
    s.remap.assign(src.size(), -1);
    for (std::size_t k = 0; k < src.size(); ++k) {
      if (s.keep[k] == 0 || s.useful[k] == 0) continue;
      s.remap[k] = static_cast<std::int32_t>(dst.size());
      dst.push_back({src[k].rr,
                     src[k].parent >= 0
                         ? s.remap[static_cast<std::size_t>(src[k].parent)]
                         : -1,
                     src[k].fabric_edge});
      ++occ_[static_cast<std::size_t>(src[k].rr)];
    }
  }
}

namespace {

inline double congestion_cost(double hist, double pres_fac, int occ) {
  return (1.0 + hist) * (1.0 + pres_fac * occ);
}
}  // namespace

void PathfinderRouter::rip_up(std::size_t net_idx) {
  for (const NetRoute::TreeNode& tn : routes_[net_idx].nodes) {
    --occ_[static_cast<std::size_t>(tn.rr)];
  }
  routes_[net_idx].nodes.clear();
}

bool PathfinderRouter::net_congested(const NetRoute& route) const {
  for (const NetRoute::TreeNode& tn : route.nodes) {
    if (occ_[static_cast<std::size_t>(tn.rr)] > 1) return true;
  }
  return false;
}

void PathfinderRouter::prune_overused(std::size_t net_idx, NetRoute& route) {
  RouterScratch& s = scratch_;
  auto& nodes = route.nodes;
  if (nodes.empty()) return;
  for (const int sink : request_.nets[net_idx].sinks) {
    s.sink_mark[static_cast<std::size_t>(sink)] = s.tree_epoch;
  }

  // Pass 1 (parents precede children): legal = not overused, legal parent.
  s.keep.assign(nodes.size(), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i == 0) {
      // The source terminal is fixed; rerouting this net cannot relieve
      // overuse on it, so it always survives.
      s.keep[0] = 1;
      continue;
    }
    s.keep[i] = occ_[static_cast<std::size_t>(nodes[i].rr)] <= 1 &&
                s.keep[static_cast<std::size_t>(nodes[i].parent)];
  }
  // Pass 2 (children before parents): drop surviving branches that no
  // longer reach any sink — dead stubs would otherwise leak into the final
  // tree as programmed-but-useless switches.
  s.useful.assign(nodes.size(), 0);
  for (std::size_t i = nodes.size(); i-- > 0;) {
    if (s.keep[i] != 0 &&
        s.sink_mark[static_cast<std::size_t>(nodes[i].rr)] == s.tree_epoch) {
      s.useful[i] = 1;
    }
    if (s.useful[i] != 0 && nodes[i].parent >= 0) {
      s.useful[static_cast<std::size_t>(nodes[i].parent)] = 1;
    }
  }
  s.useful[0] = 1;
  // Pass 3: compact, remap parents, release dropped occupancy.
  s.remap.assign(nodes.size(), -1);
  std::size_t w = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (s.keep[i] == 0 || s.useful[i] == 0) {
      --occ_[static_cast<std::size_t>(nodes[i].rr)];
      continue;
    }
    s.remap[i] = static_cast<std::int32_t>(w);
    nodes[w] = {nodes[i].rr,
                nodes[i].parent >= 0
                    ? s.remap[static_cast<std::size_t>(nodes[i].parent)]
                    : -1,
                nodes[i].fabric_edge};
    s.tree_idx_of[static_cast<std::size_t>(nodes[i].rr)] =
        static_cast<std::int32_t>(w);
    s.tree_epoch_of[static_cast<std::size_t>(nodes[i].rr)] = s.tree_epoch;
    ++w;
  }
  nodes.resize(w);
}

PathfinderRouter::BBox PathfinderRouter::expansion_box(
    std::size_t net_idx, Point sink_pos, Point near_pos, int level,
    const RouterOptions& opts) const {
  if (!opts.bounded_box || level >= 2) {
    return {0, 0, fabric_.width() - 1, fabric_.height() - 1};
  }
  BBox box;
  int margin;
  if (level == 0) {
    // The connection box: around the sink and the nearest point of the
    // current route tree. The search only needs the corridor between the
    // two; seeding and expanding the rest of a large tree's span is what
    // makes the textbook multi-source formulation balloon.
    box = {std::min(near_pos.x, sink_pos.x), std::min(near_pos.y, sink_pos.y),
           std::max(near_pos.x, sink_pos.x), std::max(near_pos.y, sink_pos.y)};
    margin = kBbMargin;
  } else {
    // Grow to the whole net's terminal box with a fattened margin; a
    // second failure is then almost certainly real congestion, handled by
    // level 2 dropping the box entirely.
    box = net_box_[net_idx];
    box.x0 = std::min(box.x0, sink_pos.x);
    box.y0 = std::min(box.y0, sink_pos.y);
    box.x1 = std::max(box.x1, sink_pos.x);
    box.y1 = std::max(box.y1, sink_pos.y);
    margin = kBbMargin * 2 + (fabric_.width() + fabric_.height()) / 8;
  }
  return {std::max(0, box.x0 - margin), std::max(0, box.y0 - margin),
          std::min(fabric_.width() - 1, box.x1 + margin),
          std::min(fabric_.height() - 1, box.y1 + margin)};
}

bool PathfinderRouter::expand_to_sink(const NetRoute& route, int sink,
                                      double pres_fac, double astar_fac,
                                      const BBox& box) {
  RouterScratch& s = scratch_;
  s.begin_search();
  s.heap.clear();
  // Multi-source expansion from the tree nodes inside the box (all of them
  // when unbounded). Out-of-box branches cannot be junctions for this
  // connection, and not seeding them is most of the bounded-box win: a
  // seed near the frontier launches a whole A* wavefront of its own.
  for (const NetRoute::TreeNode& tn : route.nodes) {
    if (!box.contains(fabric_.node_pos(tn.rr))) continue;
    const auto v = static_cast<std::size_t>(tn.rr);
    s.epoch_of[v] = s.epoch;
    s.path_cost[v] = 0.0f;
    s.back_node[v] = -1;
    s.back_edge[v] = -1;
    s.heap.seed(estimate(tn.rr, sink, astar_fac), 0.0f, tn.rr);
  }
  s.heap.heapify();

  while (!s.heap.empty()) {
    const SearchHeap::Entry top = s.heap.pop();
    ++s.heap_pops;
    const int node = top.node();
    const auto u = static_cast<std::size_t>(node);
    if (s.epoch_of[u] != s.epoch || top.cost != s.path_cost[u]) continue;
    if (node == sink) return true;
    const auto edge_base = fabric_.edge_offset(node);
    const auto edges = fabric_.edges(node);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const int v = edges[k].to;
      const auto sv = static_cast<std::size_t>(v);
      // Pins are terminals only; masked tracks are not in this fabric.
      const std::uint8_t cls = node_class_[sv];
      if (cls != kFree && (cls == kMasked || v != sink)) continue;
      if (!box.contains(fabric_.node_pos(v))) continue;
      const float npc =
          top.cost + static_cast<float>(
                         congestion_cost(hist_[sv], pres_fac, occ_[sv]));
      if (s.epoch_of[sv] != s.epoch || npc < s.path_cost[sv]) {
        s.epoch_of[sv] = s.epoch;
        s.path_cost[sv] = npc;
        s.back_node[sv] = node;
        s.back_edge[sv] = static_cast<std::int32_t>(edge_base + k);
        s.heap.push(npc + estimate(v, sink, astar_fac), npc, v);
      }
    }
  }
  return false;
}

bool PathfinderRouter::route_net(std::size_t net_idx, double pres_fac,
                                 const RouterOptions& opts, NetRoute& route) {
  RouterScratch& s = scratch_;
  const NetSpec& spec = request_.nets[net_idx];
  s.begin_tree();
  if (route.nodes.empty()) {
    route.nodes.push_back({spec.source, -1, -1});
    s.tree_idx_of[static_cast<std::size_t>(spec.source)] = 0;
    s.tree_epoch_of[static_cast<std::size_t>(spec.source)] = s.tree_epoch;
    ++occ_[static_cast<std::size_t>(spec.source)];
  } else {
    // Incremental reroute: keep the legal part of the previous tree (this
    // re-stamps tree_idx_of, so connected sinks are detected below).
    prune_overused(net_idx, route);
  }

  for (const int sink : spec.sinks) {
    if (sink == spec.source) continue;
    // Still legally connected through the kept tree: nothing to do.
    if (s.tree_epoch_of[static_cast<std::size_t>(sink)] == s.tree_epoch) {
      continue;
    }
    // Nearest tree node to the sink anchors the connection box (level 0).
    const Point sink_pos = fabric_.node_pos(sink);
    Point near_pos = fabric_.node_pos(spec.source);
    int near_dist = manhattan(near_pos, sink_pos);
    for (const NetRoute::TreeNode& tn : route.nodes) {
      const Point p = fabric_.node_pos(tn.rr);
      const int d = manhattan(p, sink_pos);
      if (d < near_dist) {
        near_dist = d;
        near_pos = p;
      }
    }
    bool found = false;
    BBox prev_box{-1, -1, -1, -1};
    for (int level = 0; level < 3 && !found; ++level) {
      const BBox box = expansion_box(net_idx, sink_pos, near_pos, level, opts);
      // After fabric clipping a grown box can coincide with the one that
      // just failed (small grids): searching it again finds nothing new.
      if (level > 0 && box == prev_box) continue;
      prev_box = box;
      found = expand_to_sink(route, sink, pres_fac, opts.astar_fac, box);
      if (!found) {
        const bool whole_fabric = box.x0 == 0 && box.y0 == 0 &&
                                  box.x1 == fabric_.width() - 1 &&
                                  box.y1 == fabric_.height() - 1;
        if (whole_fabric) return false;
        ++s.bbox_retries;
      }
    }
    if (!found) return false;

    // Backtrack: collect the new path (sink up to the tree junction), then
    // append in tree order (junction -> sink).
    s.path_scratch.clear();
    int v = sink;
    while (s.back_node[static_cast<std::size_t>(v)] != -1) {
      s.path_scratch.push_back({v, s.back_edge[static_cast<std::size_t>(v)]});
      v = s.back_node[static_cast<std::size_t>(v)];
    }
    // v is a tree node; its tree index is epoch-stamped, O(1).
    assert(s.tree_epoch_of[static_cast<std::size_t>(v)] == s.tree_epoch);
    std::int32_t parent_idx = s.tree_idx_of[static_cast<std::size_t>(v)];
    assert(parent_idx >= 0 &&
           route.nodes[static_cast<std::size_t>(parent_idx)].rr == v);
    for (auto it = s.path_scratch.rbegin(); it != s.path_scratch.rend();
         ++it) {
      route.nodes.push_back({it->first, parent_idx, it->second});
      ++occ_[static_cast<std::size_t>(it->first)];
      parent_idx = static_cast<std::int32_t>(route.nodes.size() - 1);
      s.tree_idx_of[static_cast<std::size_t>(it->first)] = parent_idx;
      s.tree_epoch_of[static_cast<std::size_t>(it->first)] = s.tree_epoch;
    }
  }
  return true;
}

bool PathfinderRouter::iteration_net(std::size_t net_idx, bool full,
                                     double pres_fac,
                                     const RouterOptions& opts,
                                     std::size_t* rerouted) {
  if (!full) {
    // Only reroute nets currently crossing an overused node.
    if (!net_congested(routes_[net_idx])) return true;
    // Textbook mode rebuilds the whole net; incremental mode lets
    // route_net prune and repair just the congested connections.
    if (!opts.incremental_reroute) rip_up(net_idx);
  }
  ++*rerouted;
  return route_net(net_idx, pres_fac, opts, routes_[net_idx]);
}

RoutingResult PathfinderRouter::route(const RouterOptions& opts) {
  RoutingResult result;

  // The per-iteration net order: nets with sinks, round-robined over
  // kCells x kCells coarse tile cells by the centre of their terminal box,
  // so consecutive nets sit in different fabric regions. The order is a
  // pure function of the request; every routing tree, congestion cost and
  // heap-pop count depends on it, so it is frozen like any other part of
  // the algorithm.
  std::vector<std::size_t> work;
  work.reserve(request_.nets.size());
  {
    constexpr int kCells = 4;  // kCells^2 buckets over the fabric
    std::vector<std::vector<std::size_t>> buckets(kCells * kCells);
    for (std::size_t i = 0; i < request_.nets.size(); ++i) {
      if (request_.nets[i].sinks.empty()) continue;
      const BBox& b = net_box_[i];
      const int cx = std::min(kCells - 1, (b.x0 + b.x1) * kCells /
                                              (2 * fabric_.width()));
      const int cy = std::min(kCells - 1, (b.y0 + b.y1) * kCells /
                                              (2 * fabric_.height()));
      buckets[static_cast<std::size_t>(cy * kCells + cx)].push_back(i);
    }
    for (std::size_t k = 0;; ++k) {
      bool any = false;
      for (const auto& bucket : buckets) {
        if (k < bucket.size()) {
          work.push_back(bucket[k]);
          any = true;
        }
      }
      if (!any) break;
    }
  }

  double pres_fac = kFirstIterPres;
  std::size_t best_overused = static_cast<std::size_t>(-1);
  int best_iter = 0;
  // A seeded route gets one restart from scratch on a near-miss stall.
  int restarts_left = seeded_ ? 1 : 0;
  bool full_iter = true;  // route everything: iteration 1, or post-restart
  int schedule_start = 0;  // iteration before the current pres schedule
  int iter_limit = opts.max_iterations;

  for (int iter = 1; iter <= iter_limit; ++iter) {
    telem::Span iter_span("route", "iteration");
    const std::uint64_t iter_start = telem::now_ns();
    const long long pops_before = scratch_.heap_pops;
    std::size_t rerouted = 0;
    result.iterations = iter;
    bool routable = true;
    for (const std::size_t i : work) {
      if (!iteration_net(i, full_iter, pres_fac, opts, &rerouted)) {
        routable = false;
        break;
      }
    }
    full_iter = false;
    if (!routable) {
      // Disconnected graph (e.g. W too small for a pin): unroutable.
      result.success = false;
      result.heap_pops = scratch_.heap_pops;
      result.bbox_retries = scratch_.bbox_retries;
      return result;
    }

    std::size_t overused = 0;
    for (std::size_t v = 0; v < occ_.size(); ++v) {
      if (occ_[v] > 1) {
        ++overused;
        hist_[v] += static_cast<float>(kHistFac * (occ_[v] - 1));
      }
    }
    result.overused_nodes = overused;
    const long long iter_pops = scratch_.heap_pops - pops_before;
    result.iter_stats.push_back({iter, telem::seconds_since(iter_start),
                                 iter_pops, rerouted, overused});
    iter_span.arg("iter", iter)
        .arg("pops", iter_pops)
        .arg("rerouted", rerouted)
        .arg("overused", overused);
    telem::counter_add("route.iterations");
    telem::counter_add("route.heap_pops", iter_pops);
    if (overused == 0) {
      result.success = true;
      break;
    }
    // The stall window only resets on a meaningful improvement (> ~3%
    // while overuse is still large): a hopeless trial shedding one node
    // per iteration must not keep a width trial alive indefinitely, while
    // near convergence (small counts) every step counts.
    if (overused < best_overused - best_overused / 32) {
      best_overused = overused;
      best_iter = iter;
    } else {
      best_overused = std::min(best_overused, overused);
    }
    bool give_up =
        opts.stall_abort > 0 && iter - best_iter >= opts.stall_abort;
    // Convergence predictor (also gated on stall_abort): when overuse is
    // still declining but too slowly to reach zero inside the remaining
    // iteration budget, the trial is hopeless — give up now instead of
    // grinding tens of near-identical congested iterations first.
    if (!give_up && opts.stall_abort > 0 && iter - schedule_start > 8) {
      const std::size_t prev =
          result.iter_stats[result.iter_stats.size() - 9].overused_nodes;
      if (prev > overused) {
        const double decline = static_cast<double>(prev - overused) / 8.0;
        give_up = static_cast<double>(overused) / decline >
                  static_cast<double>(iter_limit - iter);
      }
    }
    if (give_up) {
      // A restart is a second opinion for near-misses: a seed can corner
      // the negotiation a handful of overused nodes short of legality,
      // where an unseeded attempt might converge. An attempt stuck
      // hundreds of nodes over capacity is genuinely unroutable — a cold
      // repeat would grind the same iterations to the same verdict.
      constexpr std::size_t kRestartOveruseCap = 64;
      if (restarts_left > 0 && best_overused <= kRestartOveruseCap) {
        // Rip up everything — trees, occupancy AND history — and
        // renegotiate from scratch: a seeded route that cornered itself
        // gets an attempt identical to the unseeded router's, so a
        // post-restart verdict matches a cold route exactly.
        --restarts_left;
        for (std::size_t i = 0; i < routes_.size(); ++i) rip_up(i);
        std::fill(hist_.begin(), hist_.end(), 0.0f);
        pres_fac = kFirstIterPres;
        best_overused = static_cast<std::size_t>(-1);
        best_iter = iter;
        schedule_start = iter;
        iter_limit = iter + opts.max_iterations;  // fresh budget: the
        // restarted attempt must behave exactly like an unseeded route
        full_iter = true;
        log_debug("pathfinder iter " + std::to_string(iter) +
                  ": stalled, restarting negotiation");
        continue;
      }
      break;  // congestion negotiation has stalled: treat as unroutable
    }
    pres_fac = iter == schedule_start + 1 ? kInitialPres : pres_fac * kPresMult;
    log_debug("pathfinder iter " + std::to_string(iter) + ": " +
              std::to_string(overused) + " overused nodes");
  }

  result.routes = std::move(routes_);
  for (const NetRoute& r : result.routes) {
    result.total_wire_nodes += r.nodes.size();
  }
  result.heap_pops = scratch_.heap_pops;
  result.bbox_retries = scratch_.bbox_retries;
  return result;
}

}  // namespace vbs
