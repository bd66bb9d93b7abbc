#include "vbs/encoder.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>

#include "util/rng.h"
#include "util/telemetry.h"
#include "vbs/devirtualizer.h"
#include "vbs/region_model.h"

namespace vbs {

namespace {

/// Maps a macro-level port of region macro (ux,uy) to the region port id.
int region_port_of(const RegionModel& rm, int ux, int uy, int macro_port) {
  const int w = rm.spec().chan_width;
  if (macro_port >= 4 * w) {
    return rm.port_of_pin(ux, uy, macro_port - 4 * w);
  }
  const Side side = static_cast<Side>(macro_port / w);
  const int track = macro_port % w;
  const int tile = (side == Side::kWest || side == Side::kEast) ? uy : ux;
  // A wire that is a region port must sit on the region-extent perimeter.
  assert((side == Side::kWest && ux == 0) ||
         (side == Side::kEast && ux == rm.extent_w() - 1) ||
         (side == Side::kNorth && uy == rm.extent_h() - 1) ||
         (side == Side::kSouth && uy == 0));
  return rm.port_of_side(side, tile, track);
}

/// Per-net, per-cluster signal extraction state.
struct Component {
  int in_port = -1;
  int in_depth = 1 << 30;
  std::vector<std::pair<int, int>> outs;  // (depth, port)
};

/// Small union-find keyed by route-tree node index.
class TreeDsu {
 public:
  int find(int a) {
    auto it = parent_.find(a);
    if (it == parent_.end()) {
      parent_[a] = a;
      return a;
    }
    int root = a;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[a] != root) {
      const int next = parent_[a];
      parent_[a] = root;
      a = next;
    }
    return root;
  }
  void unite(int a, int b) { parent_[find(a)] = find(b); }

 private:
  std::map<int, int> parent_;
};

}  // namespace

VbsImage encode_vbs(const Fabric& fabric, const Netlist& nl,
                    const PackedDesign& pd, const Placement& pl,
                    const std::vector<NetRoute>& routes,
                    const EncodeOptions& opts, EncodeStats* stats) {
  const ArchSpec& spec = fabric.spec();
  const int c = opts.cluster;
  EncodeStats st;

  VbsImage img;
  img.spec = spec;
  img.task_w = fabric.width();
  img.task_h = fabric.height();
  img.cluster = c;
  const int cw = img.cluster_grid_w();
  const int ch = img.cluster_grid_h();
  const int n_clusters = cw * ch;

  auto cluster_of_macro = [&](int m) {
    const Point p = fabric.macro_pos(m);
    return (p.y / c) * cw + (p.x / c);
  };

  // ---- 1. Connection-list extraction --------------------------------------
  RegionDecoderCache regions;
  std::vector<std::vector<VbsConnection>> conns(
      static_cast<std::size_t>(n_clusters));

  for (const NetRoute& route : routes) {
    if (route.nodes.empty()) continue;
    const int n_tree = static_cast<int>(route.nodes.size());
    // Depth from the net driver.
    std::vector<int> depth(static_cast<std::size_t>(n_tree), 0);
    for (int k = 1; k < n_tree; ++k) {
      depth[static_cast<std::size_t>(k)] =
          depth[static_cast<std::size_t>(route.nodes[k].parent)] + 1;
    }
    // Tree edges grouped by cluster.
    std::map<int, std::vector<int>> edges_by_cluster;  // child tree index
    for (int k = 1; k < n_tree; ++k) {
      const Fabric::Edge& e =
          fabric.edge_at(static_cast<std::size_t>(route.nodes[k].fabric_edge));
      edges_by_cluster[cluster_of_macro(e.macro)].push_back(k);
    }
    if (edges_by_cluster.empty()) continue;  // single-node route: no switches

    for (const auto& [cl, edge_children] : edges_by_cluster) {
      const int cx = cl % cw, cy = cl / cw;
      const RegionModel& region = regions.region_for(img, cx, cy);
      TreeDsu dsu;
      for (const int k : edge_children) {
        dsu.unite(k, route.nodes[static_cast<std::size_t>(k)].parent);
      }
      // Terminals: participating tree nodes whose wire is a port of this
      // cluster (boundary wires crossing the cluster edge, dangling task-
      // edge wires, and LB pins — the router only touches pins at
      // terminals).
      std::map<int, Component> comps;  // by DSU root
      auto visit = [&](int k) {
        const int rr = route.nodes[static_cast<std::size_t>(k)].rr;
        const auto ports = fabric.node_ports(rr);
        int owners_in_cl = 0;
        int macro_in_cl = -1, macro_port = -1;
        for (const Fabric::MacroPort& mp : ports) {
          if (cluster_of_macro(mp.macro) == cl) {
            ++owners_in_cl;
            macro_in_cl = mp.macro;
            macro_port = mp.port;
          }
        }
        // Interior wires: both owners inside the cluster, or no port at all.
        if (owners_in_cl != 1) return;
        if (owners_in_cl == static_cast<int>(ports.size()) &&
            ports.size() == 2) {
          return;  // both sides inside: interior (unreachable, kept for clarity)
        }
        const Point mp = fabric.macro_pos(macro_in_cl);
        const int port =
            region_port_of(region, mp.x - cx * c, mp.y - cy * c, macro_port);
        Component& comp = comps[dsu.find(k)];
        const int d = depth[static_cast<std::size_t>(k)];
        if (d < comp.in_depth) {
          if (comp.in_port >= 0) comp.outs.emplace_back(comp.in_depth, comp.in_port);
          comp.in_depth = d;
          comp.in_port = port;
        } else {
          comp.outs.emplace_back(d, port);
        }
      };
      // Participating nodes: every edge child and its parent, deduplicated.
      std::vector<int> participants;
      for (const int k : edge_children) {
        participants.push_back(k);
        participants.push_back(route.nodes[static_cast<std::size_t>(k)].parent);
      }
      std::sort(participants.begin(), participants.end());
      participants.erase(std::unique(participants.begin(), participants.end()),
                         participants.end());
      for (const int k : participants) visit(k);

      for (auto& [root, comp] : comps) {
        if (comp.in_port < 0) {
          throw std::logic_error("vbsgen: component with no port terminal");
        }
        std::sort(comp.outs.begin(), comp.outs.end());
        for (const auto& [d, port] : comp.outs) {
          conns[static_cast<std::size_t>(cl)].push_back(
              {static_cast<std::uint16_t>(comp.in_port),
               static_cast<std::uint16_t>(port)});
        }
      }
    }
  }

  // ---- 2. Logic + raw payloads ---------------------------------------------
  const std::vector<LogicConfig> logic = extract_logic_configs(nl, pd, pl);
  const std::vector<MacroSwitches> switches = collect_switches(fabric, routes);
  const int rbits = spec.nroute_bits();
  const VbsFieldWidths fw = vbs_field_widths(spec, c, img.task_w, img.task_h);

  auto cluster_logic = [&](int cx, int cy) {
    std::vector<LogicConfig> out(static_cast<std::size_t>(c) * c);
    for (int uy = 0; uy < c; ++uy) {
      for (int ux = 0; ux < c; ++ux) {
        const int tx = cx * c + ux, ty = cy * c + uy;
        if (tx >= img.task_w || ty >= img.task_h) continue;
        out[static_cast<std::size_t>(uy * c + ux)] =
            logic[static_cast<std::size_t>(fabric.macro_index(tx, ty))];
      }
    }
    return out;
  };
  auto cluster_raw_routing = [&](int cx, int cy) {
    BitVector out(fw.raw);
    for (int uy = 0; uy < c; ++uy) {
      for (int ux = 0; ux < c; ++ux) {
        const int tx = cx * c + ux, ty = cy * c + uy;
        if (tx >= img.task_w || ty >= img.task_h) continue;
        const std::size_t base = static_cast<std::size_t>(uy * c + ux) * rbits;
        for (const int bit :
             switches[static_cast<std::size_t>(fabric.macro_index(tx, ty))]) {
          out.set(base + static_cast<std::size_t>(bit), true);
        }
      }
    }
    return out;
  };

  // ---- 3. Assembly + feedback loop -----------------------------------------
  BitVector scratch;
  Rng rng(kReorderSeed);

  for (int cy = 0; cy < ch; ++cy) {
    for (int cx = 0; cx < cw; ++cx) {
      const int cl = cy * cw + cx;
      VbsEntry e;
      e.cx = static_cast<std::uint16_t>(cx);
      e.cy = static_cast<std::uint16_t>(cy);
      e.logic = cluster_logic(cx, cy);
      e.conns = std::move(conns[static_cast<std::size_t>(cl)]);

      const bool has_logic = std::any_of(
          e.logic.begin(), e.logic.end(),
          [](const LogicConfig& lc) { return lc.used; });
      if (!has_logic && e.conns.empty()) continue;  // empty region: omitted

      auto make_raw = [&](int* counter) {
        e.raw = true;
        e.conns.clear();
        e.raw_routing = cluster_raw_routing(cx, cy);
        if (counter) ++(*counter);
      };

      if (opts.force_raw) {
        make_raw(nullptr);
      } else if (e.conns.size() > fw.max_conns()) {
        make_raw(&st.overflow_fallbacks);
      } else if (const VbsSizeBreakdown list = vbs_entry_size(img, e);
                 list.count + list.list >= fw.raw) {
        make_raw(&st.size_fallbacks);
      } else {
        // Feedback loop: decode offline with the online algorithm.
        Devirtualizer& dv = regions.decoder_for(img, e);
        dv.set_max_iterations(opts.decode_iterations);
        bool ok = dv.decode_entry(e, scratch);
        if (!ok && !opts.no_reorder) {
          int attempt = 0;
          std::vector<VbsConnection> order = e.conns;
          while (!ok && attempt < 2 + kReorderAttempts) {
            if (attempt == 0) {
              std::stable_sort(order.begin(), order.end(),
                               [](const VbsConnection& a, const VbsConnection& b) {
                                 if (a.in != b.in) return a.in < b.in;
                                 return a.out < b.out;
                               });
            } else if (attempt == 1) {
              std::reverse(order.begin(), order.end());
            } else {
              rng.shuffle(order);
            }
            e.conns = order;
            ok = dv.decode_entry(e, scratch);
            ++attempt;
          }
          if (ok) ++st.reordered_entries;
        }
        if (!ok) make_raw(&st.conflict_fallbacks);
      }

      ++st.entries;
      st.raw_entries += e.raw ? 1 : 0;
      st.connections += static_cast<long long>(e.conns.size());
      img.entries.push_back(std::move(e));
    }
  }

  if (telem::enabled()) {
    telem::counter_add("vbs.encode.entries", st.entries);
    telem::counter_add("vbs.encode.raw_entries", st.raw_entries);
    telem::counter_add("vbs.encode.reordered_entries", st.reordered_entries);
    telem::counter_add("vbs.encode.conflict_fallbacks", st.conflict_fallbacks);
  }
  if (stats) {
    st.vbs_bits = vbs_size(img).total();
    st.raw_bits = raw_size_bits(spec, img.task_w, img.task_h);
    *stats = st;
  }
  return img;
}

}  // namespace vbs
