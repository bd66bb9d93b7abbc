// Density report: quantifies the paper's Fig. 4 observation that "the VBS
// coding is especially efficient in sparse macros ... whereas congested
// locations see little to no enhancement over the bit-stream size".
//
// For one circuit it prints the routing-density histogram and the
// correlation between a macro's switch usage and the size of its VBS
// record (relative to the constant raw frame).
//
// Usage:  ./build/examples/density_report [mcnc-name] [seed]
#include <cstdio>

#include "flow/flow.h"
#include "route/routing_stats.h"
#include "util/table.h"
#include "vbs/encoder.h"

using namespace vbs;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "tseng";
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;
  FlowOptions opts;
  opts.arch.chan_width = 20;
  opts.seed = seed;
  std::printf("placing and routing %s (W=20)...\n", name.c_str());
  FlowResult r = run_mcnc_flow(mcnc_by_name(name), opts);
  if (!r.routed()) return 1;

  const RoutingStats st = compute_routing_stats(*r.fabric, r.routing.routes);
  std::printf("macros: %d (%d carry no routing)\n", r.fabric->num_macros(),
              st.empty_macros());
  std::printf("switch utilization: %.2f%% of all routing switches ON "
              "(mean %.1f, max %d of %d per macro)\n",
              100.0 * st.switch_utilization, st.mean_switches(),
              st.max_switches(), r.fabric->spec().nroute_bits());

  // Histogram of per-macro switch usage.
  const int buckets = 8;
  const int width = std::max(1, (st.max_switches() + buckets) / buckets);
  std::vector<int> hist(static_cast<std::size_t>(buckets), 0);
  for (const int s : st.switches_per_macro) {
    ++hist[std::min<std::size_t>(static_cast<std::size_t>(s / width),
                                 static_cast<std::size_t>(buckets - 1))];
  }
  std::printf("\nper-macro ON-switch histogram:\n");
  for (int b = 0; b < buckets; ++b) {
    std::printf("  %3d-%3d: %5d ", b * width, (b + 1) * width - 1,
                hist[static_cast<std::size_t>(b)]);
    for (int k = 0; k < hist[static_cast<std::size_t>(b)] * 60 /
                            std::max(1, r.fabric->num_macros());
         ++k) {
      std::fputc('#', stdout);
    }
    std::fputc('\n', stdout);
  }

  // Per-macro VBS record size vs density: encode at the finest grain and
  // take each entry's routing bits (list or raw payload) from the format.
  const VbsImage img = encode_vbs(*r.fabric, r.netlist, r.packed, r.placement,
                                  r.routing.routes, {});
  std::vector<double> density, record_bits;
  for (const VbsEntry& e : img.entries) {
    const int m = r.fabric->macro_index(e.cx, e.cy);
    density.push_back(st.switches_per_macro[static_cast<std::size_t>(m)]);
    const VbsSizeBreakdown b = vbs_entry_size(img, e);
    record_bits.push_back(static_cast<double>(b.count + b.list + b.raw));
  }
  std::printf(
      "\nper-macro record size vs switch density: r = %.3f over %zu "
      "occupied macros\n",
      pearson(density, record_bits), density.size());
  std::printf(
      "(strongly positive: dense macros need long connection lists — the\n"
      " paper's 'congested locations see little to no enhancement')\n");
  return 0;
}
