#include "fabric/fabric.h"

#include <cassert>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/error.h"

namespace vbs {

namespace {

/// Path-compressing union-find over raw (macro, local) node ids.
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t a) {
    while (parent_[a] != a) {
      parent_[a] = parent_[parent_[a]];
      a = parent_[a];
    }
    return a;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

static_assert(sizeof(Fabric::Edge) == 8);

FabricLayout::FabricLayout(const ArchSpec& spec, int width, int height)
    : spec_(spec), width_(width), height_(height) {
  if (width < 1 || height < 1) {
    throw std::invalid_argument("Fabric: dimensions must be positive");
  }
}

Fabric::Fabric(const ArchSpec& spec, int width, int height)
    : FabricLayout(spec, width, height),
      macro_(spec),
      route_bits_(static_cast<std::uint32_t>(spec.nroute_bits())) {
  // Refuse, before any graph array is allocated, a fabric whose indices
  // overflow: the router keeps edge indices as int32 (RouterScratch::
  // back_edge), and with two directed edges per switch the switch ids then
  // fit uint32. Every local node touches a switch, so node ids fit too.
  const std::uint64_t macros =
      static_cast<std::uint64_t>(width) * static_cast<std::uint64_t>(height);
  if (macros > static_cast<std::uint64_t>(
                   std::numeric_limits<std::int32_t>::max()) /
                   (2 * std::uint64_t{route_bits_})) {
    throw VbsError(VbsErrc::kResourceLimit,
                   "Fabric: switch edges exceed resource limit");
  }
  const int nloc = macro_.num_nodes();
  const int w = spec.chan_width;
  const int px = spec.pins_on_x();
  const int py = spec.pins_on_y();
  const std::size_t nraw = static_cast<std::size_t>(num_macros()) * nloc;

  auto raw_id = [&](int mx, int my, int local) {
    return static_cast<std::size_t>(macro_index(mx, my)) * nloc + local;
  };

  // Merge abutted boundary wires: east wire of (x,y) with west wire of
  // (x+1,y); north wire of (x,y) with south wire of (x,y+1).
  DisjointSet ds(nraw);
  for (int my = 0; my < height; ++my) {
    for (int mx = 0; mx < width; ++mx) {
      for (int t = 0; t < w; ++t) {
        if (mx + 1 < width) {
          ds.unite(raw_id(mx, my, macro_.x(t, px)),
                   raw_id(mx + 1, my, macro_.xw(t)));
        }
        if (my + 1 < height) {
          ds.unite(raw_id(mx, my, macro_.y(t, py)),
                   raw_id(mx, my + 1, macro_.ys(t)));
        }
      }
    }
  }

  // Compact roots to dense global ids.
  node_of_raw_.assign(nraw, -1);
  std::vector<std::int32_t> root_id(nraw, -1);
  num_nodes_ = 0;
  for (std::size_t i = 0; i < nraw; ++i) {
    const std::size_t r = ds.find(i);
    if (root_id[r] < 0) root_id[r] = num_nodes_++;
    node_of_raw_[i] = root_id[r];
  }

  // Representative positions: last writer wins; any representative tile of
  // a (at most two-tile) wire is fine for distance heuristics, as long as
  // the local id is the wire's id in that same tile.
  pos_x_.assign(num_nodes_, 0);
  pos_y_.assign(num_nodes_, 0);
  local_.assign(num_nodes_, 0);
  for (int my = 0; my < height; ++my) {
    for (int mx = 0; mx < width; ++mx) {
      for (int local = 0; local < nloc; ++local) {
        const int g = node_of_raw_[raw_id(mx, my, local)];
        pos_x_[g] = static_cast<std::int16_t>(mx);
        pos_y_[g] = static_cast<std::int16_t>(my);
        local_[g] = static_cast<std::int16_t>(local);
      }
    }
  }

  // Switch edges (both directions) in CSR form. Switches are visited in
  // switch-id order (macro, then canonical bit), so each node lists its
  // edges in that order.
  std::vector<std::uint32_t> degree(num_nodes_, 0);
  auto for_each_switch = [&](auto&& fn) {
    for (int m = 0; m < num_macros(); ++m) {
      const Point mp = macro_pos(m);
      const std::uint32_t first = static_cast<std::uint32_t>(m) * route_bits_;
      for (const SwitchPoint& pt : macro_.switch_points()) {
        for (int pair = 0; pair < pt.n_switches(); ++pair) {
          const auto [ai, bi] = pt.pair_arms(pair);
          const int ga = node_of_raw_[raw_id(mp.x, mp.y, pt.arms[ai])];
          const int gb = node_of_raw_[raw_id(mp.x, mp.y, pt.arms[bi])];
          fn(first + static_cast<std::uint32_t>(pt.bit_offset + pair), ga, gb);
        }
      }
    }
  };
  for_each_switch([&](std::uint32_t, int ga, int gb) {
    ++degree[ga];
    ++degree[gb];
  });
  edge_begin_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (int g = 0; g < num_nodes_; ++g) {
    edge_begin_[g + 1] = edge_begin_[g] + degree[g];
  }
  edge_data_.resize(edge_begin_[num_nodes_]);
  std::vector<std::uint32_t> cursor(edge_begin_.begin(),
                                    edge_begin_.end() - 1);
  for_each_switch([&](std::uint32_t sw, int ga, int gb) {
    edge_data_[cursor[ga]++] = {gb, sw};
    edge_data_[cursor[gb]++] = {ga, sw};
  });

  // (macro, port) identities per node, CSR keyed by global node.
  std::vector<std::uint32_t> pdeg(num_nodes_, 0);
  const int nports = macro_.num_ports();
  for (int m = 0; m < num_macros(); ++m) {
    const Point mp = macro_pos(m);
    for (int port = 0; port < nports; ++port) {
      ++pdeg[node_of_raw_[raw_id(mp.x, mp.y, macro_.port_node(port))]];
    }
  }
  port_begin_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (int g = 0; g < num_nodes_; ++g) {
    port_begin_[g + 1] = port_begin_[g] + pdeg[g];
  }
  port_data_.resize(port_begin_[num_nodes_]);
  std::vector<std::uint32_t> pcur(port_begin_.begin(), port_begin_.end() - 1);
  for (int m = 0; m < num_macros(); ++m) {
    const Point mp = macro_pos(m);
    for (int port = 0; port < nports; ++port) {
      const int g = node_of_raw_[raw_id(mp.x, mp.y, macro_.port_node(port))];
      port_data_[pcur[g]++] = {m, port};
    }
  }

  (void)py;
}

std::size_t Fabric::bytes() const {
  auto of = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return macro_.bytes() + of(node_of_raw_) + of(pos_x_) + of(pos_y_) +
         of(local_) + of(edge_begin_) + of(edge_data_) + of(port_begin_) +
         of(port_data_);
}

}  // namespace vbs
