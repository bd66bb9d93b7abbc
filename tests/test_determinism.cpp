// Same-seed determinism regression: two runs of the whole flow must agree
// bit for bit — placements AND route trees — with bounded-box routing on
// and off. The flow is advertised as reproducible from a single seed
// (perfbench's counts, tools/vbspaper's ablation and the determinism of
// the VBS coding itself all depend on it), so any hidden iteration-order
// or uninitialized-state dependence is a bug.
//
// The serialized artifacts of the Table II circuit suite are pinned by
// hash, and the minimum-channel-width search promises the same answer
// warm or cold.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "flow/flow.h"
#include "flow/pipeline.h"
#include "netlist/generator.h"
#include "netlist/mcnc.h"
#include "route/mcw.h"
#include "util/hash.h"

namespace vbs {
namespace {

Netlist test_netlist(std::uint64_t seed) {
  GenParams p;
  p.n_lut = 90;
  p.n_pi = 8;
  p.n_po = 8;
  p.seed = seed;
  return generate_netlist(p);
}

FlowOptions flow_opts(bool bounded_box) {
  FlowOptions o;
  o.arch.chan_width = 10;
  o.seed = 5;
  o.route.bounded_box = bounded_box;
  return o;
}

void expect_identical_routing(const RoutingResult& a, const RoutingResult& b,
                              const char* what) {
  ASSERT_EQ(a.success, b.success) << what;
  ASSERT_EQ(a.routes.size(), b.routes.size()) << what;
  EXPECT_EQ(a.heap_pops, b.heap_pops) << what;
  EXPECT_EQ(a.bbox_retries, b.bbox_retries) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  for (std::size_t n = 0; n < a.routes.size(); ++n) {
    const auto& ra = a.routes[n].nodes;
    const auto& rb = b.routes[n].nodes;
    ASSERT_EQ(ra.size(), rb.size()) << what << " net " << n;
    for (std::size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k].rr, rb[k].rr) << what << " net " << n << " node " << k;
      EXPECT_EQ(ra[k].parent, rb[k].parent)
          << what << " net " << n << " node " << k;
      EXPECT_EQ(ra[k].fabric_edge, rb[k].fabric_edge)
          << what << " net " << n << " node " << k;
    }
  }
}

void expect_identical(const FlowResult& a, const FlowResult& b) {
  // Placement: byte-identical LUT and I/O assignments.
  ASSERT_EQ(a.placement.lut_loc.size(), b.placement.lut_loc.size());
  for (std::size_t i = 0; i < a.placement.lut_loc.size(); ++i) {
    EXPECT_EQ(a.placement.lut_loc[i], b.placement.lut_loc[i]) << "LUT " << i;
  }
  ASSERT_EQ(a.placement.io_loc.size(), b.placement.io_loc.size());
  for (std::size_t i = 0; i < a.placement.io_loc.size(); ++i) {
    EXPECT_EQ(a.placement.io_loc[i], b.placement.io_loc[i]) << "I/O " << i;
  }
  expect_identical_routing(a.routing, b.routing, "flow");
}

TEST(Determinism, SameSeedSameFlowBoundedBox) {
  FlowResult a = run_flow(test_netlist(3), 11, 11, flow_opts(true));
  FlowResult b = run_flow(test_netlist(3), 11, 11, flow_opts(true));
  ASSERT_TRUE(a.routed());
  expect_identical(a, b);
}

TEST(Determinism, SameSeedSameFlowUnboundedBox) {
  FlowResult a = run_flow(test_netlist(3), 11, 11, flow_opts(false));
  FlowResult b = run_flow(test_netlist(3), 11, 11, flow_opts(false));
  ASSERT_TRUE(a.routed());
  expect_identical(a, b);
}

// The shipped router (bounded box, incremental reroute, default astar_fac)
// must search less than the textbook PathFinder baseline (whole-fabric
// expansion, whole-net rip-up, astar_fac 1.15) on the same
// placement, fabric and request, and both must route.
TEST(Determinism, BoundedRouterPopsFewerThanTextbookBaseline) {
  FlowOptions o = flow_opts(true);
  o.route = RouterOptions{};
  FlowPipeline pipe(test_netlist(3), 11, 11, o);
  const RoutingResult& bounded = pipe.routing();

  RouterOptions baseline;
  baseline.bounded_box = false;
  baseline.incremental_reroute = false;
  baseline.astar_fac = 1.15;
  PathfinderRouter router(pipe.fabric(), pipe.route_request());
  const RoutingResult textbook = router.route(baseline);

  ASSERT_TRUE(bounded.success);
  ASSERT_TRUE(textbook.success);
  EXPECT_LT(bounded.heap_pops, textbook.heap_pops)
      << "bounded " << bounded.heap_pops << " vs baseline "
      << textbook.heap_pops;
}

/// The 5-circuit suite: the 5 smallest Table II circuits.
std::vector<McncCircuit> suite5() {
  std::vector<McncCircuit> cs = mcnc20();
  std::sort(cs.begin(), cs.end(),
            [](const McncCircuit& a, const McncCircuit& b) {
              return a.lbs < b.lbs;
            });
  cs.resize(5);
  return cs;
}

/// Every vbs.artifact.v1 file in a checkpoint directory (the stage
/// artifacts and flow.meta, the requested options), keyed by name.
std::map<std::string, std::string> checkpoint_bytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const auto ext = e.path().extension();
    if (ext != ".art" && ext != ".meta") continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    files[e.path().filename().string()] = ss.str();
  }
  return files;
}

// The serial flow's artifact bytes, pinned: FNV-1a-64 of every
// vbs.artifact.v1 file (flow.meta, pack, place, route) of each suite
// circuit's checkpoint through the route stage, plus flow.meta and the
// encode artifact of a small design encoded at c = 2. Any change to a
// placement, a routing tree, a heap-pop count, an option slot of flow.meta,
// a stage fingerprint or the container layout changes a hash.
TEST(Determinism, SerialArtifactBytesArePinned) {
  const std::map<std::string, std::uint64_t> pinned = {
      {"bigkey/flow.meta", 0x4cc9e6291e2686bfull},
      {"bigkey/pack.art", 0x8b1e3f2b9f3a56c7ull},
      {"bigkey/place.art", 0x8f23e636d1f05718ull},
      {"bigkey/route.art", 0x283e60f9c825c221ull},
      {"des/flow.meta", 0x74d76b1fe4cf3a72ull},
      {"des/pack.art", 0x12afca6f4a1f977eull},
      {"des/place.art", 0xcb03e917dd7ef9a4ull},
      {"des/route.art", 0xeb6cf32bcbeb3c86ull},
      {"dsip/flow.meta", 0xad7412881d370aa5ull},
      {"dsip/pack.art", 0x159da4d7fa9d4c63ull},
      {"dsip/place.art", 0x8218f824d9414491ull},
      {"dsip/route.art", 0x1ab375fa17157488ull},
      {"ex5p/flow.meta", 0x34c03f0c9811abdbull},
      {"ex5p/pack.art", 0x6e819ebcec7464acull},
      {"ex5p/place.art", 0xb0fe518d5a7eb7c9ull},
      {"ex5p/route.art", 0xb4ae78c16bc0045eull},
      {"tseng/flow.meta", 0x11e7f6deae60cf27ull},
      {"tseng/pack.art", 0x241e05d5fa2278dbull},
      {"tseng/place.art", 0x237481f3b73f407dull},
      {"tseng/route.art", 0xd60c0e4cc4fa3b96ull},
      {"small_c2/encode.art", 0x5c12dcfe172a1eafull},
      {"small_c2/flow.meta", 0x4c1ca2243f6327ddull},
  };
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("vbs_det_pin_" + std::to_string(::getpid())))
          .string();
  std::map<std::string, std::uint64_t> got;
  for (const McncCircuit& c : suite5()) {
    SCOPED_TRACE(c.name);
    FlowOptions fo;
    fo.arch.chan_width = 20;
    fo.seed = 1;
    fo.place.effort = 0.25;  // identity is under test; keep anneals cheap
    FlowPipeline pipe(make_mcnc_like(c, 1), c.size, c.size, fo);
    pipe.run_to(Stage::kRoute);
    const std::string dir = root + "_" + c.name;
    pipe.save_checkpoint(dir, Stage::kRoute);
    const std::map<std::string, std::string> files = checkpoint_bytes(dir);
    std::filesystem::remove_all(dir);
    ASSERT_EQ(files.size(), 4u);
    for (const auto& [name, bytes] : files) {
      got[c.name + "/" + name] = fnv1a64(bytes.data(), bytes.size());
    }
  }
  {
    EncodeOptions eo;
    eo.cluster = 2;
    FlowPipeline pipe(test_netlist(3), 11, 11, flow_opts(true), eo);
    pipe.run_to(Stage::kEncode);
    const std::string dir = root + "_small_c2";
    pipe.save_checkpoint(dir);
    const std::map<std::string, std::string> files = checkpoint_bytes(dir);
    std::filesystem::remove_all(dir);
    ASSERT_EQ(files.size(), 5u);
    for (const char* name : {"encode.art", "flow.meta"}) {
      const std::string& bytes = files.at(name);
      got[std::string("small_c2/") + name] =
          fnv1a64(bytes.data(), bytes.size());
    }
  }
  EXPECT_EQ(got, pinned);
}

// Warm-started MCW trials (seeded with the previous routable solution's
// surviving tree) must land on the same minimum width as cold trials, for
// measurably less search work. bigkey and tseng are the suite circuits
// whose searches have no deeply-infeasible trial widths, so the
// warm-seeding savings dominate cleanly; CHANGES.md keeps the last
// whole-suite warm/cold ratio.
TEST(Determinism, McwWarmStartMatchesColdSearch) {
  for (const char* name : {"bigkey", "tseng"}) {
    SCOPED_TRACE(name);
    const McncCircuit c = mcnc_by_name(name);
    const Netlist nl = make_mcnc_like(c, 1);
    ArchSpec spec;
    spec.chan_width = 20;
    const PackedDesign pd = pack_netlist(nl, spec);
    const Placement pl = place_design(nl, pd, spec, c.size, c.size, {});

    McwOptions warm;
    McwOptions cold = warm;
    cold.warm_start = false;
    const McwResult rw = find_min_channel_width(spec, nl, pd, pl, warm);
    const McwResult rc = find_min_channel_width(spec, nl, pd, pl, cold);
    ASSERT_GT(rw.mcw, 1);
    EXPECT_EQ(rw.mcw, rc.mcw);
    EXPECT_EQ(rw.trials, rc.trials);  // same trial widths either way
    EXPECT_LT(rw.heap_pops, rc.heap_pops)
        << "warm seeding should cut search work";
    // Per-trial logs cover every trial and sum to the totals.
    ASSERT_EQ(rw.trial_log.size(), static_cast<std::size_t>(rw.trials));
    long long pops = 0;
    for (const McwTrial& t : rw.trial_log) pops += t.heap_pops;
    EXPECT_EQ(pops, rw.heap_pops);
  }
}

// An explicitly requested placer seed of 1 must be honored, not silently
// replaced by the flow seed (the old `seed == 1 ? flow : place` smell).
TEST(Determinism, ExplicitPlacerSeedOneIsHonored) {
  const Netlist nl = test_netlist(3);
  ArchSpec arch;
  arch.chan_width = 10;

  FlowOptions inherit;  // place.seed = 0: placement follows the flow seed
  inherit.arch = arch;
  inherit.seed = 5;
  FlowOptions pinned = inherit;  // placement pinned to seed 1
  pinned.place.seed = 1;
  FlowOptions flow1 = inherit;  // flow seed 1 => inherited placement seed 1
  flow1.seed = 1;

  const FlowResult a = run_flow(nl, 11, 11, pinned);
  const FlowResult b = run_flow(nl, 11, 11, flow1);
  ASSERT_EQ(a.placement.lut_loc.size(), b.placement.lut_loc.size());
  for (std::size_t i = 0; i < a.placement.lut_loc.size(); ++i) {
    EXPECT_EQ(a.placement.lut_loc[i], b.placement.lut_loc[i]);
  }

  const FlowResult c = run_flow(nl, 11, 11, inherit);  // seed 5 placement
  bool same = a.placement.lut_loc.size() == c.placement.lut_loc.size();
  if (same) {
    for (std::size_t i = 0; i < a.placement.lut_loc.size(); ++i) {
      same = same && a.placement.lut_loc[i] == c.placement.lut_loc[i];
    }
  }
  EXPECT_FALSE(same) << "seed-1 placement should differ from seed-5";
}

}  // namespace
}  // namespace vbs
