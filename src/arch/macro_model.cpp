#include "arch/macro_model.h"

#include <cassert>
#include <stdexcept>

#include "arch/arch_registry.h"

namespace vbs {

namespace {
/// Architectures whose models MacroModel::of keeps registered.
constexpr std::size_t kRegisteredModels = 4;

// Lexicographic pair tables for 4-arm (6 switches) and 3-arm (3 switches)
// points; the table order defines the configuration bit order.
constexpr std::pair<int, int> kPairs4[6] = {{0, 1}, {0, 2}, {0, 3},
                                            {1, 2}, {1, 3}, {2, 3}};
constexpr std::pair<int, int> kPairs3[3] = {{0, 1}, {0, 2}, {1, 2}};
}  // namespace

int SwitchPoint::pair_index(int a, int b) const {
  assert(a < b);
  const auto* table = n_arms == 4 ? kPairs4 : kPairs3;
  const int n = n_switches();
  for (int i = 0; i < n; ++i) {
    if (table[i].first == a && table[i].second == b) return i;
  }
  assert(false && "invalid arm pair");
  return -1;
}

std::pair<int, int> SwitchPoint::pair_arms(int pair) const {
  assert(pair >= 0 && pair < n_switches());
  return n_arms == 4 ? kPairs4[pair] : kPairs3[pair];
}

MacroModel::MacroModel(const ArchSpec& spec) : spec_(spec) {
  spec_.validate();
  build_nodes();
  build_points();
  assert(next_bit_ == spec_.nroute_bits());
}

std::shared_ptr<const MacroModel> MacroModel::of(const ArchSpec& spec) {
  return shared_for_arch<MacroModel>(spec, kRegisteredModels);
}

std::size_t MacroModel::bytes() const {
  std::size_t n = points_.capacity() * sizeof(SwitchPoint) +
                  adj_.capacity() * sizeof(adj_[0]) +
                  node_port_.capacity() * sizeof(int);
  for (const auto& a : adj_) n += a.capacity() * sizeof(Adj);
  return n;
}

void MacroModel::build_nodes() {
  const int w = spec_.chan_width;
  const int px = spec_.pins_on_x();
  const int py = spec_.pins_on_y();
  const int l = spec_.lb_pins();

  base_xw_ = 0;
  base_x_ = base_xw_ + w;
  base_ys_ = base_x_ + w * (px + 1);
  base_y_ = base_ys_ + w;
  base_stub_ = base_y_ + w * (py + 1);
  num_nodes_ = base_stub_ + l * w;

  adj_.assign(static_cast<std::size_t>(num_nodes_), {});
  node_port_.assign(static_cast<std::size_t>(num_nodes_), -1);
  for (int t = 0; t < w; ++t) {
    node_port_[xw(t)] = port_of_side(Side::kWest, t);
    node_port_[x(t, px)] = port_of_side(Side::kEast, t);
    node_port_[y(t, py)] = port_of_side(Side::kNorth, t);
    node_port_[ys(t)] = port_of_side(Side::kSouth, t);
  }
  for (int p = 0; p < l; ++p) node_port_[pin_node(p)] = port_of_pin(p);
}

int MacroModel::xw(int t) const {
  assert(t >= 0 && t < spec_.chan_width);
  return base_xw_ + t;
}

int MacroModel::x(int t, int s) const {
  const int px = spec_.pins_on_x();
  assert(t >= 0 && t < spec_.chan_width && s >= 0 && s <= px);
  return base_x_ + t * (px + 1) + s;
}

int MacroModel::ys(int t) const {
  assert(t >= 0 && t < spec_.chan_width);
  return base_ys_ + t;
}

int MacroModel::y(int t, int s) const {
  const int py = spec_.pins_on_y();
  assert(t >= 0 && t < spec_.chan_width && s >= 0 && s <= py);
  return base_y_ + t * (py + 1) + s;
}

int MacroModel::stub(int p, int s) const {
  assert(p >= 0 && p < spec_.lb_pins() && s >= 0 && s < spec_.chan_width);
  return base_stub_ + p * spec_.chan_width + s;
}

int MacroModel::port_node(int port) const {
  const int w = spec_.chan_width;
  const int px = spec_.pins_on_x();
  const int py = spec_.pins_on_y();
  if (port < 0 || port >= num_ports()) {
    throw std::out_of_range("MacroModel::port_node: bad port id");
  }
  if (port < w) return xw(port);                       // west
  if (port < 2 * w) return x(port - w, px);            // east
  if (port < 3 * w) return y(port - 2 * w, py);        // north
  if (port < 4 * w) return ys(port - 3 * w);           // south
  return pin_node(port - 4 * w);                       // LB pins
}

void MacroModel::add_point(SwitchPoint::Kind kind, std::array<int, 4> arms,
                           int n_arms) {
  SwitchPoint pt;
  pt.kind = kind;
  pt.bit_offset = next_bit_;
  pt.n_arms = n_arms;
  pt.arms = arms;
  if (n_arms == 3) pt.arms[3] = -1;
  next_bit_ += pt.n_switches();
  const int idx = static_cast<int>(points_.size());
  const auto* table = n_arms == 4 ? kPairs4 : kPairs3;
  for (int pair = 0; pair < pt.n_switches(); ++pair) {
    const int a = pt.arms[table[pair].first];
    const int b = pt.arms[table[pair].second];
    adj_[a].push_back({b, idx, pair});
    adj_[b].push_back({a, idx, pair});
  }
  points_.push_back(pt);
}

void MacroModel::build_points() {
  const int w = spec_.chan_width;
  const int px = spec_.pins_on_x();
  const int l = spec_.lb_pins();

  // Switch-box points. Arm order (defines bit order): west, east, south,
  // north. The pattern permutes which ChanY track joins ChanX track t.
  for (int t = 0; t < w; ++t) {
    int ty = t;
    if (spec_.sb_pattern == SbPattern::kWilton && w > 1) {
      ty = (t + 1) % w;  // rotated ChanY index, Wilton-style twist
    }
    add_point(SwitchPoint::Kind::kSwitchBox, {xw(t), x(t, 0), ys(ty), y(ty, 0)},
              4);
  }

  // Pin-stub crossings. Stub p's crossing s meets track W-1-s; the track
  // side segments depend on whether the pin crosses ChanX or ChanY.
  // X-pin j sits between track segments X(t, j) and X(t, j+1); Y-pin j
  // between Y(t, j) and Y(t, j+1). Arm order: stub pin-side, stub far-side,
  // track SB-side, track far-side.
  for (int p = 0; p < l; ++p) {
    const bool on_x = p < px;
    const int j = on_x ? p : p - px;
    for (int s = 0; s < w - 1; ++s) {
      const int t = w - 1 - s;
      const int trk_near = on_x ? x(t, j) : y(t, j);
      const int trk_far = on_x ? x(t, j + 1) : y(t, j + 1);
      add_point(SwitchPoint::Kind::kCross,
                {stub(p, s), stub(p, s + 1), trk_near, trk_far}, 4);
    }
    // T termination at track 0. Arm order: stub, track SB-side, track
    // far-side.
    const int trk_near = on_x ? x(0, j) : y(0, j);
    const int trk_far = on_x ? x(0, j + 1) : y(0, j + 1);
    add_point(SwitchPoint::Kind::kTee, {stub(p, w - 1), trk_near, trk_far, -1},
              3);
  }
}

std::string MacroModel::node_name(int node) const {
  const int w = spec_.chan_width;
  const int px = spec_.pins_on_x();
  const int py = spec_.pins_on_y();
  if (node < base_x_) return "XW(t" + std::to_string(node - base_xw_) + ")";
  if (node < base_ys_) {
    const int r = node - base_x_;
    return "X(t" + std::to_string(r / (px + 1)) + ",s" +
           std::to_string(r % (px + 1)) + ")";
  }
  if (node < base_y_) return "YS(t" + std::to_string(node - base_ys_) + ")";
  if (node < base_stub_) {
    const int r = node - base_y_;
    return "Y(t" + std::to_string(r / (py + 1)) + ",s" +
           std::to_string(r % (py + 1)) + ")";
  }
  const int r = node - base_stub_;
  return "STUB(p" + std::to_string(r / w) + ",s" + std::to_string(r % w) + ")";
}

}  // namespace vbs
