#include "arch/lookahead.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "arch/arch_registry.h"
#include "arch/macro_model.h"
#include "util/error.h"

namespace vbs {

namespace {

/// Architectures whose tables Lookahead::of keeps alive.
constexpr std::size_t kCachedTables = 4;

}  // namespace

std::size_t Lookahead::table_bytes(const ArchSpec& spec) {
  // MacroModel's node count: XW, X(px+1), YS, Y(py+1) per track plus W
  // stub segments per pin.
  const std::size_t locals = static_cast<std::size_t>(spec.chan_width) *
                             static_cast<std::size_t>(4 + 2 * spec.lb_pins());
  return static_cast<std::size_t>(spec.ports_per_macro()) * locals * kSpan *
         kSpan;
}

Lookahead::Lookahead(const ArchSpec& spec)
    : spec_(spec),
      num_local_(0),
      cross_x_(spec.pins_on_x() + 1),
      cross_y_(spec.pins_on_y() + 1) {
  spec.validate();
  if (table_bytes(spec) > kMaxLookaheadBytes) {
    throw VbsError(VbsErrc::kResourceLimit,
                   "Lookahead: table exceeds resource limit");
  }
  const std::shared_ptr<const MacroModel> shared_macro = MacroModel::of(spec);
  const MacroModel& macro = *shared_macro;
  num_local_ = macro.num_nodes();
  table_.resize(static_cast<std::size_t>(macro.num_ports()) *
                static_cast<std::size_t>(num_local_) * kSpan * kSpan);
  assert(table_.size() == table_bytes(spec));

  // The window is kSpan x kSpan macros; window node (x, y, local) has id
  // (y * kSpan + x) * n + local. A track wire that ends on a macro edge is
  // the same wire as the collinear one starting in the next macro
  // (RegionModel merges them the same way), so the BFS labels both at once.
  const int n = num_local_;
  struct Abut {
    int dx = 0, dy = 0;
    int local = -1;  ///< the same wire's local id in macro (x+dx, y+dy)
  };
  std::vector<Abut> abut(static_cast<std::size_t>(n));
  for (int t = 0; t < spec.chan_width; ++t) {
    const int east = macro.x(t, spec.pins_on_x());
    const int north = macro.y(t, spec.pins_on_y());
    abut[static_cast<std::size_t>(east)] = {1, 0, macro.xw(t)};
    abut[static_cast<std::size_t>(macro.xw(t))] = {-1, 0, east};
    abut[static_cast<std::size_t>(north)] = {0, 1, macro.ys(t)};
    abut[static_cast<std::size_t>(macro.ys(t))] = {0, -1, north};
  }

  constexpr std::int32_t kUnreached = std::numeric_limits<std::int32_t>::max();
  const std::size_t window_nodes = static_cast<std::size_t>(kSpan) * kSpan * n;
  std::vector<std::int32_t> dist(window_nodes);
  std::vector<std::int32_t> queue;
  queue.reserve(window_nodes);
  auto label = [&](int x, int y, int local, std::int32_t d) {
    const auto id = static_cast<std::int32_t>((y * kSpan + x) * n + local);
    dist[static_cast<std::size_t>(id)] = d;
    queue.push_back(id);
  };
  auto reach = [&](int x, int y, int local, std::int32_t d) {
    if (dist[static_cast<std::size_t>((y * kSpan + x) * n + local)] !=
        kUnreached) {
      return;
    }
    label(x, y, local, d);
    const Abut& a = abut[static_cast<std::size_t>(local)];
    const int ax = x + a.dx, ay = y + a.dy;
    if (a.local >= 0 && ax >= 0 && ax < kSpan && ay >= 0 && ay < kSpan) {
      label(ax, ay, a.local, d);
    }
  };

  std::uint8_t* out = table_.data();
  for (int port = 0; port < macro.num_ports(); ++port) {
    std::fill(dist.begin(), dist.end(), kUnreached);
    queue.clear();
    reach(kRadius, kRadius, macro.port_node(port), 0);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::int32_t id = queue[head];
      const int m = id / n;
      const std::int32_t next = dist[static_cast<std::size_t>(id)] + 1;
      for (const MacroModel::Adj& adj : macro.adjacency(id % n)) {
        reach(m % kSpan, m / kSpan, adj.to, next);
      }
    }
    // A node the window cannot reach gets the trivial bound 0; a hop
    // count past 255 saturates. Both stay lower bounds.
    for (int local = 0; local < n; ++local) {
      for (int m = 0; m < kSpan * kSpan; ++m) {
        const std::int32_t d = dist[static_cast<std::size_t>(m) * n + local];
        *out++ = static_cast<std::uint8_t>(d == kUnreached ? 0
                                                           : std::min(d, 255));
      }
    }
  }
}

std::shared_ptr<const Lookahead> Lookahead::of(const ArchSpec& spec) {
  return shared_for_arch<Lookahead>(spec, kCachedTables);
}

}  // namespace vbs
