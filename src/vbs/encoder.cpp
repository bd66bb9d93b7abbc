#include "vbs/encoder.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>

#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
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

  /// Back to the empty state, keeping the capacity of `outs`.
  void clear() {
    in_port = -1;
    in_depth = 1 << 30;
    outs.clear();
  }
};

/// Union-find over one net's route-tree node indices. reset() makes each
/// listed node its own root; unite(a, b) makes b's root the root of both.
class TreeDsu {
 public:
  void reset(int n_tree, const std::vector<int>& nodes) {
    parent_.resize(static_cast<std::size_t>(n_tree));
    for (const int k : nodes) parent_[static_cast<std::size_t>(k)] = k;
  }
  int find(int a) {
    int root = a;
    while (at(root) != root) root = at(root);
    while (at(a) != root) {
      const int next = at(a);
      at(a) = root;
      a = next;
    }
    return root;
  }
  void unite(int a, int b) {
    const int rb = find(b);
    at(find(a)) = rb;
  }

 private:
  int& at(int k) { return parent_[static_cast<std::size_t>(k)]; }
  std::vector<int> parent_;
};

/// The image's region models, one per extent: the full c x c shape and,
/// when the task size is not a multiple of c, the partial extents of the
/// east column, the north row and their corner. Built on first use and
/// read-only afterwards, so every decoding thread can share them.
class RegionShapes {
 public:
  static constexpr int kCount = 4;

  explicit RegionShapes(const VbsImage& header) : header_(header) {}

  /// Shape of cluster (cx, cy): bit 0 set for a partial width, bit 1 for a
  /// partial height.
  int shape_of(int cx, int cy) const {
    const auto [w, h] = RegionDecoderCache::extent_of(header_, cx, cy);
    return (w < header_.cluster ? 1 : 0) + (h < header_.cluster ? 2 : 0);
  }
  const RegionModel& at(int cx, int cy) {
    std::unique_ptr<RegionModel>& m =
        models_[static_cast<std::size_t>(shape_of(cx, cy))];
    if (!m) {
      const auto [w, h] = RegionDecoderCache::extent_of(header_, cx, cy);
      m = std::make_unique<RegionModel>(header_.spec, header_.cluster, w, h);
    }
    return *m;
  }

 private:
  const VbsImage& header_;
  std::array<std::unique_ptr<RegionModel>, kCount> models_;
};

/// Participants of the feedback loop's parallel decodes: the hardware's
/// threads, at most kMaxFeedbackThreads. A constant of the machine, not
/// an option: the decodes are pure per entry, so the stream is the same
/// at any count.
constexpr int kMaxFeedbackThreads = 4;

int feedback_threads() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    kMaxFeedbackThreads);
}

/// Where an entry stands in the feedback loop.
enum class Verdict : std::uint8_t { kDecoded, kReordered, kFailing };

/// Whether `e` decodes under the contract of the version the encoder
/// writes: the loop's one proof of decodability.
bool decodes(Devirtualizer& dv, const VbsEntry& e, BitVector& scratch) {
  return dv.decode_entry(e, kVbsVersion, scratch);
}

/// The loop's fixed orders: decodes `e` as emitted, then (if `reorder`)
/// sorted by (in, out), then that order reversed, and leaves e.conns in
/// the order that decoded or, when none did, in the last order tried.
Verdict decode_fixed_orders(Devirtualizer& dv, VbsEntry& e, bool reorder,
                            BitVector& scratch) {
  if (decodes(dv, e, scratch)) return Verdict::kDecoded;
  if (!reorder) return Verdict::kFailing;
  std::stable_sort(e.conns.begin(), e.conns.end(),
                   [](const VbsConnection& a, const VbsConnection& b) {
                     if (a.in != b.in) return a.in < b.in;
                     return a.out < b.out;
                   });
  if (decodes(dv, e, scratch)) return Verdict::kReordered;
  std::reverse(e.conns.begin(), e.conns.end());
  if (decodes(dv, e, scratch)) return Verdict::kReordered;
  return Verdict::kFailing;
}

/// The feedback loop over the entries img.entries[pending[k]] (encoder.h,
/// step 2). Returns each one's verdict and leaves its list in the order
/// that decoded.
std::vector<Verdict> run_feedback_loop(VbsImage& img,
                                       const std::vector<std::size_t>& pending,
                                       RegionShapes& regions,
                                       const EncodeOptions& opts,
                                       std::size_t payload_bits) {
  std::vector<Verdict> verdict(pending.size(), Verdict::kFailing);
  if (pending.empty()) return verdict;
  const int threads =
      std::min(feedback_threads(), static_cast<int>(pending.size()));
  // One decoder per (rank, shape) and each rank's payload buffer, all
  // allocated here on the calling thread.
  using ShapeDecoders =
      std::array<std::unique_ptr<Devirtualizer>, RegionShapes::kCount>;
  std::vector<ShapeDecoders> decoders(static_cast<std::size_t>(threads));
  for (ShapeDecoders& rank : decoders) {
    for (const std::size_t i : pending) {
      const VbsEntry& e = img.entries[i];
      auto& dv = rank[static_cast<std::size_t>(regions.shape_of(e.cx, e.cy))];
      if (dv) continue;
      dv = std::make_unique<Devirtualizer>(regions.at(e.cx, e.cy));
      dv->set_max_iterations(opts.decode_iterations);
    }
  }
  std::vector<BitVector> scratch(static_cast<std::size_t>(threads),
                                 BitVector(payload_bits));
  auto decoder = [&](int rank, const VbsEntry& e) -> Devirtualizer& {
    return *decoders[static_cast<std::size_t>(rank)]
                    [static_cast<std::size_t>(regions.shape_of(e.cx, e.cy))];
  };

  // Parallel fixed orders, largest entry first: each call takes the next
  // entry from one shared cursor, whatever index the pool hands it.
  std::vector<std::size_t> work(pending.size());
  std::iota(work.begin(), work.end(), std::size_t{0});
  std::stable_sort(work.begin(), work.end(), [&](std::size_t a, std::size_t b) {
    return img.entries[pending[a]].conns.size() >
           img.entries[pending[b]].conns.size();
  });
  std::atomic<std::size_t> cursor{0};
  ThreadPool pool(threads);
  pool.parallel_for(work.size(), [&](int rank, std::size_t) {
    const std::size_t k = work[cursor++];
    VbsEntry& e = img.entries[pending[k]];
    verdict[k] = decode_fixed_orders(decoder(rank, e), e, !opts.no_reorder,
                                     scratch[static_cast<std::size_t>(rank)]);
  });
  if (opts.no_reorder) return verdict;

  // Serial shuffles, in entry order, from the one RNG.
  Rng rng(kReorderSeed);
  for (std::size_t k = 0; k < pending.size(); ++k) {
    VbsEntry& e = img.entries[pending[k]];
    for (int a = 0; a < kReorderAttempts && verdict[k] == Verdict::kFailing;
         ++a) {
      rng.shuffle(e.conns);
      if (decodes(decoder(0, e), e, scratch[0])) {
        verdict[k] = Verdict::kReordered;
      }
    }
  }
  return verdict;
}

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
  RegionShapes regions(img);
  std::vector<std::vector<VbsConnection>> conns(
      static_cast<std::size_t>(n_clusters));
  // Per-net scratch, reused across nets.
  std::vector<int> depth;
  std::vector<std::pair<int, int>> edges;  // (cluster, child tree index)
  std::vector<int> participants;
  std::vector<int> comp_of;  // per tree node: index into comps, or -1
  std::vector<Component> comps;  // the first n_comps are live
  std::size_t n_comps = 0;
  TreeDsu dsu;

  for (const NetRoute& route : routes) {
    if (route.nodes.empty()) continue;
    const int n_tree = static_cast<int>(route.nodes.size());
    // Depth from the net driver.
    depth.assign(static_cast<std::size_t>(n_tree), 0);
    for (int k = 1; k < n_tree; ++k) {
      depth[static_cast<std::size_t>(k)] =
          depth[static_cast<std::size_t>(route.nodes[k].parent)] + 1;
    }
    // Tree edges grouped by cluster, clusters ascending.
    edges.clear();
    for (int k = 1; k < n_tree; ++k) {
      const Fabric::Switch sw = fabric.edge_switch(
          fabric.edge_at(static_cast<std::size_t>(route.nodes[k].fabric_edge)));
      edges.emplace_back(cluster_of_macro(sw.macro), k);
    }
    std::sort(edges.begin(), edges.end());
    comp_of.assign(static_cast<std::size_t>(n_tree), -1);

    for (auto lo = edges.begin(); lo != edges.end();) {
      const int cl = lo->first;
      const auto hi = std::find_if(
          lo, edges.end(), [cl](const auto& edge) { return edge.first != cl; });
      const std::span<const std::pair<int, int>> cluster_edges(lo, hi);
      lo = hi;
      const int cx = cl % cw, cy = cl / cw;
      const RegionModel& region = regions.at(cx, cy);
      // Participating nodes: every edge child and its parent, deduplicated.
      participants.clear();
      for (const auto& [_, k] : cluster_edges) {
        participants.push_back(k);
        participants.push_back(route.nodes[static_cast<std::size_t>(k)].parent);
      }
      std::sort(participants.begin(), participants.end());
      participants.erase(std::unique(participants.begin(), participants.end()),
                         participants.end());
      dsu.reset(n_tree, participants);
      for (const auto& [_, k] : cluster_edges) {
        dsu.unite(k, route.nodes[static_cast<std::size_t>(k)].parent);
      }
      // Terminals: participating tree nodes whose wire is a port of this
      // cluster (boundary wires crossing the cluster edge, dangling task-
      // edge wires, and LB pins — the router only touches pins at
      // terminals).
      n_comps = 0;
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
        int& slot = comp_of[static_cast<std::size_t>(dsu.find(k))];
        if (slot < 0) {
          slot = static_cast<int>(n_comps++);
          if (comps.size() < n_comps) comps.emplace_back();
          comps[static_cast<std::size_t>(slot)].clear();
        }
        Component& comp = comps[static_cast<std::size_t>(slot)];
        const int d = depth[static_cast<std::size_t>(k)];
        if (d < comp.in_depth) {
          if (comp.in_port >= 0) comp.outs.emplace_back(comp.in_depth, comp.in_port);
          comp.in_depth = d;
          comp.in_port = port;
        } else {
          comp.outs.emplace_back(d, port);
        }
      };
      for (const int k : participants) visit(k);

      // Components in ascending root order; every root is a participant.
      for (const int root : participants) {
        int& slot = comp_of[static_cast<std::size_t>(root)];
        if (slot < 0) continue;
        Component& comp = comps[static_cast<std::size_t>(slot)];
        slot = -1;
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
  auto make_raw = [&](VbsEntry& e, int* counter) {
    e.raw = true;
    e.conns.clear();
    e.raw_routing = cluster_raw_routing(e.cx, e.cy);
    if (counter) ++(*counter);
  };

  // ---- 3. Assembly; entries that need the feedback loop --------------------
  std::vector<std::size_t> pending;  // entry indices, ascending
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

      if (opts.force_raw) {
        make_raw(e, nullptr);
      } else if (e.conns.size() > fw.max_conns()) {
        make_raw(e, &st.overflow_fallbacks);
      } else if (const VbsSizeBreakdown list = vbs_entry_size(img, e);
                 list.count + list.list >= fw.raw) {
        make_raw(e, &st.size_fallbacks);
      } else {
        pending.push_back(img.entries.size());
      }
      img.entries.push_back(std::move(e));
    }
  }

  // ---- 4. Feedback loop: decode offline with the online algorithm ---------
  const std::vector<Verdict> verdict =
      run_feedback_loop(img, pending, regions, opts, fw.raw);
  for (std::size_t k = 0; k < pending.size(); ++k) {
    if (verdict[k] == Verdict::kReordered) ++st.reordered_entries;
    if (verdict[k] == Verdict::kFailing) {
      make_raw(img.entries[pending[k]], &st.conflict_fallbacks);
    }
  }

  for (const VbsEntry& e : img.entries) {
    ++st.entries;
    st.raw_entries += e.raw ? 1 : 0;
    st.connections += static_cast<long long>(e.conns.size());
  }

  if (telem::enabled()) {
    telem::counter_add("vbs.encode.entries", st.entries);
    telem::counter_add("vbs.encode.raw_entries", st.raw_entries);
    telem::counter_add("vbs.encode.reordered_entries", st.reordered_entries);
    telem::counter_add("vbs.encode.conflict_fallbacks", st.conflict_fallbacks);
  }
  if (stats) {
    st.size = vbs_size(img);
    st.vbs_bits = st.size.total();
    st.raw_bits = raw_size_bits(spec, img.task_w, img.task_h);
    *stats = st;
  }
  return img;
}

}  // namespace vbs
