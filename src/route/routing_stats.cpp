#include "route/routing_stats.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace vbs {

int RoutingStats::max_switches() const {
  return switches_per_macro.empty()
             ? 0
             : *std::max_element(switches_per_macro.begin(),
                                 switches_per_macro.end());
}

double RoutingStats::mean_switches() const {
  if (switches_per_macro.empty()) return 0.0;
  double sum = 0;
  for (const int s : switches_per_macro) sum += s;
  return sum / static_cast<double>(switches_per_macro.size());
}

int RoutingStats::empty_macros() const {
  int n = 0;
  for (const int s : switches_per_macro) n += (s == 0);
  return n;
}

RoutingStats compute_routing_stats(const Fabric& fabric,
                                   const std::vector<NetRoute>& routes) {
  RoutingStats st;
  st.switches_per_macro.assign(static_cast<std::size_t>(fabric.num_macros()),
                               0);
  std::vector<std::set<int>> nets(static_cast<std::size_t>(fabric.num_macros()));
  int net_id = 0;
  for (const NetRoute& route : routes) {
    for (const NetRoute::TreeNode& tn : route.nodes) {
      if (tn.fabric_edge < 0) continue;
      const Fabric::Switch sw = fabric.edge_switch(
          fabric.edge_at(static_cast<std::size_t>(tn.fabric_edge)));
      ++st.switches_per_macro[static_cast<std::size_t>(sw.macro)];
      nets[static_cast<std::size_t>(sw.macro)].insert(net_id);
    }
    st.total_wire_nodes += route.nodes.size();
    ++net_id;
  }
  st.nets_per_macro.reserve(nets.size());
  for (const auto& s : nets) {
    st.nets_per_macro.push_back(static_cast<int>(s.size()));
  }
  double on = 0;
  for (const int s : st.switches_per_macro) on += s;
  st.switch_utilization =
      on / (static_cast<double>(fabric.num_macros()) *
            fabric.spec().nroute_bits());
  return st;
}

double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    syy += ys[i] * ys[i];
    sxy += xs[i] * ys[i];
  }
  const double cov = sxy - sx * sy / n;
  const double vx = sxx - sx * sx / n;
  const double vy = syy - sy * sy / n;
  if (vx <= 0 || vy <= 0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

}  // namespace vbs
