// Cross-cutting property sweeps: the end-to-end pipeline invariant
// (encode -> wire -> decode -> electrical equivalence) must hold for every
// architecture configuration the library accepts, not just the paper's
// W=20/K=6 evaluation point.
#include <gtest/gtest.h>

#include <tuple>

#include "bitstream/bitstream.h"
#include "bitstream/connectivity.h"
#include "flow/flow.h"
#include "netlist/generator.h"
#include "vbs/devirtualizer.h"
#include "vbs/encoder.h"

namespace vbs {
namespace {

// (chan_width, lut_k, pattern, cluster)
using ArchPoint = std::tuple<int, int, SbPattern, int>;

class ArchSweep : public ::testing::TestWithParam<ArchPoint> {};

TEST_P(ArchSweep, PipelineInvariantHolds) {
  const auto [w, k, pattern, cluster] = GetParam();
  GenParams gp;
  gp.n_lut = 24;
  gp.n_pi = 3;
  gp.n_po = 3;
  gp.lut_k = k;
  gp.mean_fanin = std::min(3.0, k - 0.5);
  gp.seed = 1000 + static_cast<std::uint64_t>(w) * 10 + k;
  FlowOptions o;
  o.arch.chan_width = w;
  o.arch.lut_k = k;
  o.arch.sb_pattern = pattern;
  FlowResult r = run_flow(generate_netlist(gp), 6, 6, o);
  ASSERT_TRUE(r.routed()) << "W=" << w << " K=" << k;

  // Raw stream verifies.
  const BitVector raw = generate_raw_bitstream(*r.fabric, r.netlist, r.packed,
                                               r.placement, r.routing.routes);
  ASSERT_EQ(verify_connectivity(*r.fabric, raw, r.netlist, r.packed,
                                r.placement),
            "");

  // VBS round trip verifies.
  EncodeOptions eo;
  eo.cluster = cluster;
  EncodeStats stats;
  const VbsImage img = encode_vbs(*r.fabric, r.netlist, r.packed, r.placement,
                                  r.routing.routes, eo, &stats);
  const BitVector decoded = devirtualize_image(
      deserialize_vbs(serialize_vbs(img)), *r.fabric, {0, 0});
  EXPECT_EQ(verify_connectivity(*r.fabric, decoded, r.netlist, r.packed,
                                r.placement),
            "")
      << "W=" << w << " K=" << k << " cluster=" << cluster;
  EXPECT_LE(stats.vbs_bits, stats.raw_bits + stats.entries + 64u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ArchSweep,
    ::testing::Combine(::testing::Values(5, 8, 12),
                       ::testing::Values(4, 6),
                       ::testing::Values(SbPattern::kDisjoint,
                                         SbPattern::kWilton),
                       ::testing::Values(1, 2, 3)));

class SeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedProperty, RawAndDecodedInterfaceAgreesAtRegionBoundaries) {
  // Stronger check than verify_connectivity alone: the decoded image's
  // electrical classes must agree with the *original router's* image on
  // every wire crossing a decode-region boundary — the interface contract
  // that lets neighbouring regions decode independently. (Wires interior
  // to a region are free: the online router may realize a different but
  // equivalent internal path.)
  GenParams gp;
  gp.n_lut = 30;
  gp.seed = GetParam();
  FlowOptions o;
  o.arch.chan_width = 8;
  FlowResult r = run_flow(generate_netlist(gp), 7, 7, o);
  ASSERT_TRUE(r.routed());
  const BitVector raw = generate_raw_bitstream(*r.fabric, r.netlist, r.packed,
                                               r.placement, r.routing.routes);
  const RouteRequest req =
      build_route_request(*r.fabric, r.netlist, r.packed, r.placement);

  for (const int cluster : {1, 2, 3}) {
    EncodeOptions eo;
    eo.cluster = cluster;
    const VbsImage img = encode_vbs(*r.fabric, r.netlist, r.packed,
                                    r.placement, r.routing.routes, eo);
    const BitVector dec = devirtualize_image(img, *r.fabric, {0, 0});

    const Connectivity ca(*r.fabric, raw);
    const Connectivity cb(*r.fabric, dec);
    std::map<int, int> net_of_a, net_of_b;
    for (std::size_t n = 0; n < req.nets.size(); ++n) {
      net_of_a[ca.root(req.nets[n].source)] = static_cast<int>(n);
      net_of_b[cb.root(req.nets[n].source)] = static_cast<int>(n);
    }
    auto net_at = [&](const Connectivity& c, std::map<int, int>& net_of,
                      int node) {
      const auto it = net_of.find(c.root(node));
      return it == net_of.end() ? -1 : it->second;
    };
    const MacroModel& mm = r.fabric->macro();
    const int w = r.fabric->spec().chan_width;
    for (int my = 0; my < 7; ++my) {
      for (int mx = 0; mx < 7; ++mx) {
        for (int port = 0; port < mm.num_ports(); ++port) {
          // Keep only wires on a region-boundary side of this tile (pins
          // and region-interior wires are not part of the contract).
          if (port >= 4 * w) continue;
          const auto side = static_cast<Side>(port / w);
          const bool on_boundary =
              (side == Side::kWest && mx % cluster == 0) ||
              (side == Side::kEast && (mx + 1) % cluster == 0) ||
              (side == Side::kSouth && my % cluster == 0) ||
              (side == Side::kNorth && (my + 1) % cluster == 0);
          if (!on_boundary) continue;
          const int g = r.fabric->port_global(mx, my, port);
          EXPECT_EQ(net_at(ca, net_of_a, g), net_at(cb, net_of_b, g))
              << "cluster " << cluster << " tile " << mx << "," << my
              << " port " << port;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedProperty, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace vbs
