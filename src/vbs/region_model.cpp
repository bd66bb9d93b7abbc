#include "vbs/region_model.h"

#include <cassert>
#include <numeric>
#include <stdexcept>

#include "util/bitio.h"
#include "util/telemetry.h"

namespace vbs {

RegionModel::RegionModel(const ArchSpec& spec, int cluster, int extent_w,
                         int extent_h)
    : macro_(MacroModel::of(spec)),
      c_(cluster),
      rw_(extent_w < 0 ? cluster : extent_w),
      rh_(extent_h < 0 ? cluster : extent_h) {
  if (cluster < 1 || cluster > 63) {
    throw std::invalid_argument("RegionModel: cluster size out of range");
  }
  if (rw_ < 1 || rw_ > c_ || rh_ < 1 || rh_ > c_) {
    throw std::invalid_argument("RegionModel: extent out of range");
  }
  const MacroModel& mm = *macro_;
  const int nloc = mm.num_nodes();
  const int w = spec.chan_width;
  const int px = spec.pins_on_x();
  const int py = spec.pins_on_y();
  // Raw id space covers the full c x c grid for stable indexing; only the
  // extent is populated.
  const std::size_t nraw =
      static_cast<std::size_t>(num_macros()) * static_cast<std::size_t>(nloc);

  auto raw_id = [&](int ux, int uy, int local) {
    return static_cast<std::size_t>(uy * c_ + ux) * nloc + local;
  };

  // Union-find merging abutted wires between region macros within the
  // extent.
  std::vector<std::int32_t> parent(nraw);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](std::int32_t a) {
    while (parent[static_cast<std::size_t>(a)] != a) {
      parent[static_cast<std::size_t>(a)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(a)])];
      a = parent[static_cast<std::size_t>(a)];
    }
    return a;
  };
  for (int uy = 0; uy < rh_; ++uy) {
    for (int ux = 0; ux < rw_; ++ux) {
      for (int t = 0; t < w; ++t) {
        if (ux + 1 < rw_) {
          parent[static_cast<std::size_t>(
              find(static_cast<std::int32_t>(raw_id(ux, uy, mm.x(t, px)))))] =
              find(static_cast<std::int32_t>(raw_id(ux + 1, uy, mm.xw(t))));
        }
        if (uy + 1 < rh_) {
          parent[static_cast<std::size_t>(find(static_cast<std::int32_t>(
              raw_id(ux, uy, mm.y(t, py)))))] =
              find(static_cast<std::int32_t>(raw_id(ux, uy + 1, mm.ys(t))));
        }
      }
    }
  }
  node_of_raw_.assign(nraw, -1);
  std::vector<std::int32_t> root_id(nraw, -1);
  for (int uy = 0; uy < rh_; ++uy) {
    for (int ux = 0; ux < rw_; ++ux) {
      for (int local = 0; local < nloc; ++local) {
        const std::size_t i = raw_id(ux, uy, local);
        const std::int32_t r = find(static_cast<std::int32_t>(i));
        if (root_id[static_cast<std::size_t>(r)] < 0) {
          root_id[static_cast<std::size_t>(r)] = num_nodes_++;
        }
        node_of_raw_[i] = root_id[static_cast<std::size_t>(r)];
      }
    }
  }

  tile_x_.assign(static_cast<std::size_t>(num_nodes_), 0);
  tile_y_.assign(static_cast<std::size_t>(num_nodes_), 0);
  local_.assign(static_cast<std::size_t>(num_nodes_), 0);
  for (int uy = 0; uy < rh_; ++uy) {
    for (int ux = 0; ux < rw_; ++ux) {
      for (int local = 0; local < nloc; ++local) {
        const int g = node_of_raw_[raw_id(ux, uy, local)];
        tile_x_[static_cast<std::size_t>(g)] = static_cast<std::int16_t>(ux);
        tile_y_[static_cast<std::size_t>(g)] = static_cast<std::int16_t>(uy);
        local_[static_cast<std::size_t>(g)] = static_cast<std::int16_t>(local);
      }
    }
  }

  // Ports: perimeter track wires of the *extent* plus all existing pins,
  // numbered in the full-c identifier space.
  port_node_.assign(static_cast<std::size_t>(num_ports()), -1);
  node_port_.assign(static_cast<std::size_t>(num_nodes_), -1);
  auto set_port = [&](int port, int node) {
    port_node_[static_cast<std::size_t>(port)] = node;
    node_port_[static_cast<std::size_t>(node)] = port;
  };
  for (int k = 0; k < c_; ++k) {
    for (int t = 0; t < w; ++t) {
      if (k < rh_) {
        set_port(port_of_side(Side::kWest, k, t),
                 node_of_raw_[raw_id(0, k, mm.xw(t))]);
        set_port(port_of_side(Side::kEast, k, t),
                 node_of_raw_[raw_id(rw_ - 1, k, mm.x(t, px))]);
      }
      if (k < rw_) {
        set_port(port_of_side(Side::kNorth, k, t),
                 node_of_raw_[raw_id(k, rh_ - 1, mm.y(t, py))]);
        set_port(port_of_side(Side::kSouth, k, t),
                 node_of_raw_[raw_id(k, 0, mm.ys(t))]);
      }
    }
  }
  for (int uy = 0; uy < rh_; ++uy) {
    for (int ux = 0; ux < rw_; ++ux) {
      for (int p = 0; p < spec.lb_pins(); ++p) {
        set_port(port_of_pin(ux, uy, p),
                 node_of_raw_[raw_id(ux, uy, mm.pin_node(p))]);
      }
    }
  }

  // Switch adjacency in CSR form. Adj.bit is precomputed from the full-c
  // row-major macro index, which is also the payload frame index
  // write_entry_config uses.
  const auto& points = mm.switch_points();
  std::vector<std::uint32_t> degree(static_cast<std::size_t>(num_nodes_), 0);
  auto for_each_switch = [&](auto&& fn) {
    for (int uy = 0; uy < rh_; ++uy) {
      for (int ux = 0; ux < rw_; ++ux) {
        const int m = uy * c_ + ux;
        for (std::size_t pi = 0; pi < points.size(); ++pi) {
          const SwitchPoint& pt = points[pi];
          for (int pair = 0; pair < pt.n_switches(); ++pair) {
            const auto [ai, bi] = pt.pair_arms(pair);
            fn(m, static_cast<int>(pi), pair,
               node_of_raw_[raw_id(ux, uy, pt.arms[ai])],
               node_of_raw_[raw_id(ux, uy, pt.arms[bi])]);
          }
        }
      }
    }
  };
  for_each_switch([&](int, int, int, int ga, int gb) {
    ++degree[static_cast<std::size_t>(ga)];
    ++degree[static_cast<std::size_t>(gb)];
  });
  adj_begin_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (int g = 0; g < num_nodes_; ++g) {
    adj_begin_[static_cast<std::size_t>(g) + 1] =
        adj_begin_[static_cast<std::size_t>(g)] +
        degree[static_cast<std::size_t>(g)];
  }
  adj_data_.resize(adj_begin_[static_cast<std::size_t>(num_nodes_)]);
  std::vector<std::size_t> cursor(adj_begin_.begin(), adj_begin_.end() - 1);
  for_each_switch([&](int m, int pi, int pair, int ga, int gb) {
    const std::int32_t bit = switch_bit(m, pi, pair);
    adj_data_[cursor[static_cast<std::size_t>(ga)]++] = {gb, bit};
    adj_data_[cursor[static_cast<std::size_t>(gb)]++] = {ga, bit};
  });

  telem::counter_add("vbs.region.models_built");
}

std::size_t RegionModel::bytes() const {
  auto of = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return of(node_of_raw_) + of(tile_x_) + of(tile_y_) + of(local_) +
         of(port_node_) + of(node_port_) + of(adj_begin_) + of(adj_data_);
}

}  // namespace vbs
