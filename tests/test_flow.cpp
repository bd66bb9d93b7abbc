// Flow-driver and cross-module integration tests, including the partial-
// cluster (task size not a multiple of c) and decoder-cache paths.
#include <gtest/gtest.h>

#include "arch/lookahead.h"
#include "bitstream/bitstream.h"
#include "bitstream/connectivity.h"
#include "flow/flow.h"
#include "netlist/generator.h"
#include "region_metrics.h"
#include "util/telemetry.h"
#include "vbs/devirtualizer.h"
#include "vbs/encoder.h"

namespace vbs {
namespace {

TEST(Flow, RunFlowWiresEverythingTogether) {
  GenParams p;
  p.n_lut = 30;
  p.seed = 77;
  FlowOptions o;
  o.arch.chan_width = 8;
  FlowResult r = run_flow(generate_netlist(p), 7, 6, o);
  ASSERT_TRUE(r.routed());
  EXPECT_EQ(r.fabric->width(), 7);
  EXPECT_EQ(r.fabric->height(), 6);
  EXPECT_EQ(r.placement.grid_w, 7);
  EXPECT_EQ(static_cast<int>(r.routing.routes.size()),
            static_cast<int>(build_route_request(*r.fabric, r.netlist,
                                                 r.packed, r.placement)
                                 .nets.size()));
}

TEST(Flow, McncFlowUsesPublishedArraySize) {
  FlowOptions o;
  o.arch.chan_width = 20;
  FlowResult r = run_mcnc_flow(mcnc_by_name("des"), o);  // smallest LB count
  EXPECT_EQ(r.fabric->width(), 32);
  EXPECT_EQ(r.netlist.num_luts(), 554);
  EXPECT_TRUE(r.routed());
}

class PartialClusterSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PartialClusterSweep, NonDivisibleTasksDecodeCorrectly) {
  // grid % cluster != 0 exercises the partial-extent region models on the
  // east/north task edges (where I/O terminals live).
  const auto [grid, cluster] = GetParam();
  ASSERT_NE(grid % cluster, 0) << "parameterization must be non-divisible";
  GenParams p;
  p.n_lut = grid * grid / 3;
  p.n_pi = 4;
  p.n_po = 4;
  p.seed = 123 + grid * 10 + cluster;
  FlowOptions o;
  o.arch.chan_width = 8;
  FlowResult r = run_flow(generate_netlist(p), grid, grid, o);
  ASSERT_TRUE(r.routed());
  EncodeOptions eo;
  eo.cluster = cluster;
  EncodeStats stats;
  const VbsImage img = encode_vbs(*r.fabric, r.netlist, r.packed, r.placement,
                                  r.routing.routes, eo, &stats);
  const BitVector decoded = devirtualize_image(
      deserialize_vbs(serialize_vbs(img)), *r.fabric, {0, 0});
  EXPECT_EQ(verify_connectivity(*r.fabric, decoded, r.netlist, r.packed,
                                r.placement),
            "");
}

INSTANTIATE_TEST_SUITE_P(Shapes, PartialClusterSweep,
                         ::testing::Values(std::pair{7, 2}, std::pair{8, 3},
                                           std::pair{9, 4}, std::pair{10, 3},
                                           std::pair{11, 8}, std::pair{5, 4}));

TEST(RegionCache, ExtentsCoverTheTask) {
  VbsImage header;
  header.spec.chan_width = 4;
  header.cluster = 3;
  header.task_w = 8;
  header.task_h = 7;
  RegionDecoderCache cache;
  EXPECT_EQ(cache.extent_of(header, 0, 0), (std::pair{3, 3}));
  EXPECT_EQ(cache.extent_of(header, 2, 0), (std::pair{2, 3}));  // 8 = 3+3+2
  EXPECT_EQ(cache.extent_of(header, 0, 2), (std::pair{3, 1}));  // 7 = 3+3+1
  EXPECT_EQ(cache.extent_of(header, 2, 2), (std::pair{2, 1}));
  // Same extent shape -> same cached model.
  EXPECT_EQ(&cache.region_for(header, 0, 0), &cache.region_for(header, 1, 1));
  EXPECT_NE(&cache.region_for(header, 0, 0), &cache.region_for(header, 2, 0));
  // Partial regions expose only existing ports.
  const RegionModel& partial = cache.region_for(header, 2, 0);  // 2x3 extent
  EXPECT_EQ(partial.extent_w(), 2);
  EXPECT_GE(partial.port_node(partial.port_of_side(Side::kWest, 2, 0)), 0);
  EXPECT_LT(partial.port_node(partial.port_of_pin(2, 0, 0)), 0);
  // East ports live on the extent's last column, not the nominal one.
  const int east_node = partial.port_node(partial.port_of_side(Side::kEast, 0, 1));
  ASSERT_GE(east_node, 0);
  EXPECT_EQ(partial.node_tile(east_node).x, 1);
}

TEST(RegionCache, DropsLeastRecentlyUsedShapes) {
  // Architecture and c are each part of the key: 20 shapes.
  std::vector<VbsImage> shapes;
  for (int width = 4; width <= 7; ++width) {
    for (int c = 1; c <= 5; ++c) {
      VbsImage header;
      header.spec.chan_width = width;
      header.cluster = header.task_w = header.task_h = c;
      shapes.push_back(header);
    }
  }
  const std::size_t n = RegionDecoderCache::kMaxShapes;
  ASSERT_GT(shapes.size(), n);
  const telem::ScopedEnable on;
  const long long before = region_models_built();
  auto built = [&] { return region_models_built() - before; };

  RegionDecoderCache cache;
  for (std::size_t k = 0; k < n; ++k) cache.region_for(shapes[k], 0, 0);
  EXPECT_EQ(built(), static_cast<long long>(n));
  cache.region_for(shapes[0], 0, 0);  // a hit: now the most recent
  EXPECT_EQ(built(), static_cast<long long>(n));
  cache.region_for(shapes[n], 0, 0);  // drops shapes[1], the least recent
  cache.region_for(shapes[0], 0, 0);
  EXPECT_EQ(built(), static_cast<long long>(n) + 1);
  cache.region_for(shapes[1], 0, 0);  // built again; drops shapes[2]
  EXPECT_EQ(built(), static_cast<long long>(n) + 2);
  for (std::size_t k = 3; k <= n; ++k) cache.region_for(shapes[k], 0, 0);
  EXPECT_EQ(built(), static_cast<long long>(n) + 2);
}

// A shape keeps its architecture's lookahead table alive, so the byte
// bound counts it: wide-channel shapes push each other out long
// before the shape bound would.
TEST(RegionCache, ByteBoundCountsLookaheadTables) {
  auto wide = [](int width) {
    VbsImage header;
    header.spec.chan_width = width;
    header.cluster = header.task_w = header.task_h = 1;
    return header;
  };
  const std::vector<VbsImage> shapes = {wide(56), wide(58), wide(60)};
  std::size_t tables = 0;
  for (const VbsImage& h : shapes) tables += Lookahead::table_bytes(h.spec);
  ASSERT_GT(tables, RegionDecoderCache::kMaxBytes);
  ASSERT_LT(tables - Lookahead::table_bytes(shapes[0].spec),
            RegionDecoderCache::kMaxBytes);
  const telem::ScopedEnable on;
  const long long before = region_models_built();
  auto built = [&] { return region_models_built() - before; };

  RegionDecoderCache cache;
  cache.region_for(shapes[0], 0, 0);
  const std::size_t one = cache.retained_bytes();
  EXPECT_GT(one, Lookahead::table_bytes(shapes[0].spec));
  // A second shape of the same architecture shares its table.
  VbsImage twin = shapes[0];
  twin.cluster = twin.task_w = twin.task_h = 2;
  cache.region_for(twin, 0, 0);
  EXPECT_LT(cache.retained_bytes(),
            one + Lookahead::table_bytes(shapes[0].spec));
  for (const VbsImage& h : shapes) {
    cache.region_for(h, 0, 0);
    EXPECT_LE(cache.retained_bytes(), RegionDecoderCache::kMaxBytes);
  }
  EXPECT_EQ(built(), 4);
  cache.region_for(shapes[2], 0, 0);
  cache.region_for(shapes[1], 0, 0);
  EXPECT_EQ(built(), 4);
  cache.region_for(shapes[0], 0, 0);  // dropped for the third table
  EXPECT_EQ(built(), 5);
}

TEST(RegionCache, ShapeAboveTheByteBoundStaysOnlyWhileInUse) {
  VbsImage big;
  big.spec.chan_width = 4;
  big.cluster = big.task_w = big.task_h = 63;
  VbsImage small = big;
  small.cluster = small.task_w = small.task_h = 2;
  const telem::ScopedEnable on;
  const long long before = region_models_built();

  RegionDecoderCache cache;
  cache.region_for(small, 0, 0);
  cache.region_for(big, 0, 0);
  ASSERT_GT(cache.retained_bytes(), RegionDecoderCache::kMaxBytes);
  cache.region_for(big, 0, 0);  // a hit
  EXPECT_EQ(region_models_built() - before, 2);
  cache.region_for(small, 0, 0);  // dropped with the big shape, built again
  EXPECT_EQ(region_models_built() - before, 3);
  EXPECT_LT(cache.retained_bytes(), RegionDecoderCache::kMaxBytes);
}

TEST(Route, StallAbortCutsHopelessTrialsShort) {
  GenParams p;
  p.n_lut = 90;
  p.n_pi = 8;
  p.n_po = 8;
  p.seed = 3;
  const Netlist nl = generate_netlist(p);
  ArchSpec spec;
  spec.chan_width = 3;  // far below feasible
  const PackedDesign pd = pack_netlist(nl, spec);
  const Placement pl = place_design(nl, pd, spec, 10, 10, {});
  const Fabric fabric(spec, 10, 10);

  RouterOptions slow;
  slow.max_iterations = 40;
  RouterOptions fast = slow;
  fast.stall_abort = 4;

  PathfinderRouter r1(fabric, build_route_request(fabric, nl, pd, pl));
  const RoutingResult res_slow = r1.route(slow);
  PathfinderRouter r2(fabric, build_route_request(fabric, nl, pd, pl));
  const RoutingResult res_fast = r2.route(fast);
  EXPECT_FALSE(res_slow.success);
  EXPECT_FALSE(res_fast.success);
  EXPECT_LT(res_fast.iterations, res_slow.iterations);
}

TEST(Flow, DecoderRespectsEncoderIterationContract) {
  // A stream validated with a small decode budget must decode with the
  // same budget online (the offline/online contract).
  GenParams p;
  p.n_lut = 40;
  p.seed = 55;
  FlowOptions o;
  o.arch.chan_width = 8;
  FlowResult r = run_flow(generate_netlist(p), 8, 8, o);
  ASSERT_TRUE(r.routed());
  EncodeOptions eo;
  eo.decode_iterations = 1;  // pure greedy feedback
  EncodeStats stats;
  const VbsImage img = encode_vbs(*r.fabric, r.netlist, r.packed, r.placement,
                                  r.routing.routes, eo, &stats);
  // Decode every non-raw entry with a greedy-only decoder.
  RegionDecoderCache cache;
  BitVector payload;
  for (const VbsEntry& e : img.entries) {
    Devirtualizer& dv = cache.decoder_for(img, e);
    dv.set_max_iterations(1);
    EXPECT_TRUE(dv.decode_entry(e, payload));
  }
}

}  // namespace
}  // namespace vbs
