#include "place/placement.h"

#include <cstdint>
#include <set>
#include <stdexcept>
#include <tuple>

#include "place/net_box.h"

namespace vbs {

Point Placement::io_tile(const IoSlot& slot) const {
  switch (slot.side) {
    case Side::kWest: return {0, slot.tile};
    case Side::kEast: return {grid_w - 1, slot.tile};
    case Side::kNorth: return {slot.tile, grid_h - 1};
    case Side::kSouth: return {slot.tile, 0};
  }
  return {};
}

int io_port_id(const IoSlot& slot, const ArchSpec& spec) {
  return static_cast<int>(slot.side) * spec.chan_width + slot.track;
}

void Placement::validate(const PackedDesign& pd) const {
  if (static_cast<int>(lut_loc.size()) != pd.num_luts() ||
      static_cast<int>(io_loc.size()) != pd.num_ios()) {
    throw std::logic_error("placement: instance count mismatch");
  }
  std::set<std::pair<int, int>> tiles;
  for (const Point& p : lut_loc) {
    if (p.x < 0 || p.x >= grid_w || p.y < 0 || p.y >= grid_h) {
      throw std::logic_error("placement: LUT out of grid");
    }
    if (!tiles.insert({p.x, p.y}).second) {
      throw std::logic_error("placement: two LUTs on one tile");
    }
  }
  std::set<std::tuple<int, int, int>> slots;
  for (const IoSlot& s : io_loc) {
    const int max_tile =
        (s.side == Side::kWest || s.side == Side::kEast) ? grid_h : grid_w;
    if (s.tile < 0 || s.tile >= max_tile) {
      throw std::logic_error("placement: I/O slot tile out of range");
    }
    if (!slots.insert({static_cast<int>(s.side), s.tile, s.track}).second) {
      throw std::logic_error("placement: two I/Os on one slot");
    }
  }
}

double placement_hpwl(const Netlist& nl, const PackedDesign& pd,
                      const Placement& pl) {
  std::vector<Point> pos(static_cast<std::size_t>(nl.num_blocks()));
  for (int i = 0; i < pd.num_luts(); ++i) {
    pos[static_cast<std::size_t>(pd.luts[i])] =
        pl.lut_loc[static_cast<std::size_t>(i)];
  }
  for (int i = 0; i < pd.num_ios(); ++i) {
    pos[static_cast<std::size_t>(pd.ios[i])] =
        pl.io_point(pl.io_loc[static_cast<std::size_t>(i)]);
  }

  // Each net's terminals, driver first, then every sink occurrence: the
  // order the annealer gathers them in.
  double total = 0.0;
  std::vector<std::int32_t> xs, ys;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.net(n);
    if (net.sinks.empty()) continue;
    xs.clear();
    ys.clear();
    auto add = [&](BlockId b) {
      const Point p = pos[static_cast<std::size_t>(b)];
      xs.push_back(p.x);
      ys.push_back(p.y);
    };
    add(net.driver);
    for (const Net::Sink& s : net.sinks) add(s.block);
    total += scan_box(xs.data(), ys.data(), xs.size(),
                      crossing_factor(static_cast<int>(xs.size())))
                 .cost;
  }
  return total;
}

}  // namespace vbs
