// Same-seed determinism regression: two runs of the whole flow must agree
// bit for bit — placements AND route trees — with bounded-box routing on
// and off. The flow is advertised as reproducible from a single seed
// (BENCH_flow.json trajectories, encode_ablation comparisons and the
// determinism of the VBS coding itself all depend on it), so any hidden
// iteration-order or uninitialized-state dependence is a bug.
//
// The parallel router raises the bar: its speculative route/commit engine
// promises byte-identical trees AND counters to the serial router for any
// thread count, which the Table II circuit suite exercises below. The
// batched parallel placer makes the same promise for placements, stats and
// cost drift, and the minimum-channel-width search promises the same
// answer warm or cold.
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
#include "route/route_request.h"

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

/// The 5-circuit perf suite (flow_bench's default): the 5 smallest
/// Table II circuits.
std::vector<McncCircuit> suite5() {
  std::vector<McncCircuit> cs = mcnc20();
  std::sort(cs.begin(), cs.end(),
            [](const McncCircuit& a, const McncCircuit& b) {
              return a.lbs < b.lbs;
            });
  cs.resize(5);
  return cs;
}

// The speculative route/commit engine must reproduce the serial router's
// trees, pops, retries and iteration count byte for byte at every thread
// count, on every circuit of the perf suite.
TEST(Determinism, ParallelRoutingMatchesSerialOnSuite) {
  for (const McncCircuit& c : suite5()) {
    SCOPED_TRACE(c.name);
    const Netlist nl = make_mcnc_like(c, 1);
    ArchSpec arch;
    arch.chan_width = 20;
    const PackedDesign pd = pack_netlist(nl, arch);
    PlaceOptions popts;
    popts.seed = 1;
    popts.effort = 0.25;  // routing is under test; keep placement cheap
    const Placement pl = place_design(nl, pd, arch, c.size, c.size, popts);
    const Fabric fabric(arch, c.size, c.size);
    const RouteRequest req = build_route_request(fabric, nl, pd, pl);

    RouterOptions ropts;
    ropts.threads = 1;
    PathfinderRouter serial(fabric, req);
    const RoutingResult base = serial.route(ropts);
    ASSERT_TRUE(base.success) << c.name;

    for (const int threads : {2, 8}) {
      SCOPED_TRACE(threads);
      ropts.threads = threads;
      PathfinderRouter par(fabric, req);
      const RoutingResult got = par.route(ropts);
      EXPECT_EQ(got.threads_used, threads);
      expect_identical_routing(base, got, c.name.c_str());
    }
  }
}

// The batched speculate/validate/commit placer must reproduce the serial
// annealer's placement, stats and cost drift byte for byte at every thread
// count, on every circuit of the perf suite.
TEST(Determinism, ParallelPlacementMatchesSerialOnSuite) {
  for (const McncCircuit& c : suite5()) {
    SCOPED_TRACE(c.name);
    const Netlist nl = make_mcnc_like(c, 1);
    ArchSpec arch;
    arch.chan_width = 20;
    const PackedDesign pd = pack_netlist(nl, arch);
    PlaceOptions base;
    base.seed = 1;
    base.effort = 0.25;  // identity is under test; keep the anneal cheap
    base.threads = 1;
    PlaceStats ref;
    const Placement serial =
        place_design(nl, pd, arch, c.size, c.size, base, &ref);
    for (const int threads : {2, 8}) {
      SCOPED_TRACE(threads);
      PlaceOptions o = base;
      o.threads = threads;
      PlaceStats s;
      const Placement got = place_design(nl, pd, arch, c.size, c.size, o, &s);
      EXPECT_EQ(s.threads_used, threads);
      EXPECT_EQ(got.lut_loc, serial.lut_loc);
      ASSERT_EQ(got.io_loc.size(), serial.io_loc.size());
      for (std::size_t i = 0; i < got.io_loc.size(); ++i) {
        EXPECT_EQ(got.io_loc[i], serial.io_loc[i]) << "I/O " << i;
      }
      EXPECT_EQ(s.moves, ref.moves);
      EXPECT_EQ(s.accepted, ref.accepted);
      EXPECT_EQ(s.temperatures, ref.temperatures);
      EXPECT_EQ(s.initial_cost, ref.initial_cost);
      EXPECT_EQ(s.final_cost, ref.final_cost);
      EXPECT_EQ(s.cost_drift, ref.cost_drift);
    }
  }
}

// FlowOptions::threads reaches both deterministic engines (placer and
// router), so a threaded whole flow must be byte-identical to the serial
// one — placement AND route trees.
TEST(Determinism, ThreadedFlowMatchesSerialFlow) {
  FlowOptions serial = flow_opts(true);
  FlowOptions threaded = serial;
  threaded.threads = 8;
  FlowResult a = run_flow(test_netlist(3), 11, 11, serial);
  FlowResult b = run_flow(test_netlist(3), 11, 11, threaded);
  ASSERT_TRUE(a.routed());
  expect_identical(a, b);
}

/// Every stage-artifact file in a checkpoint directory, keyed by name.
/// flow.meta is deliberately excluded: it records the requested options —
/// including thread counts — so it differs across thread counts by design.
std::map<std::string, std::string> checkpoint_bytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    if (e.path().extension() != ".art") continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    files[e.path().filename().string()] = ss.str();
  }
  return files;
}

// The strongest identity statement the stack makes: not just equal
// in-memory artifacts but equal serialized bytes. Each suite circuit's
// flow is run at 1, 2 and 8 threads and checkpointed through the route
// stage; every vbs.artifact.v1 stage file (pack, place, route) must be
// byte-identical across thread counts.
TEST(Determinism, ArtifactBytesIdenticalAcrossThreadCounts) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("vbs_det_art_" + std::to_string(::getpid())))
          .string();
  for (const McncCircuit& c : suite5()) {
    SCOPED_TRACE(c.name);
    std::map<std::string, std::string> reference;
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(threads);
      FlowOptions fo;
      fo.arch.chan_width = 20;
      fo.seed = 1;
      fo.threads = threads;
      fo.place.effort = 0.25;  // identity is under test; keep anneals cheap
      FlowPipeline pipe(make_mcnc_like(c, 1), c.size, c.size, fo);
      pipe.run_to(Stage::kRoute);
      const std::string dir = root + "_" + c.name + "_t" +
                              std::to_string(threads);
      pipe.save_checkpoint(dir, Stage::kRoute);
      std::map<std::string, std::string> got = checkpoint_bytes(dir);
      std::filesystem::remove_all(dir);
      ASSERT_FALSE(got.empty());
      if (threads == 1) {
        reference = std::move(got);
        continue;
      }
      ASSERT_EQ(got.size(), reference.size());
      for (const auto& [name, bytes] : reference) {
        ASSERT_TRUE(got.count(name)) << name;
        EXPECT_EQ(got[name], bytes) << name << " bytes differ";
      }
    }
  }
}

// Warm-started MCW trials (seeded with the previous routable solution's
// surviving tree) must land on the same minimum width as cold trials, for
// measurably less search work. bigkey and tseng are the suite circuits
// whose searches have no deeply-infeasible trial widths, so the
// warm-seeding savings dominate cleanly; see bench/README.md for the
// whole-suite cost profile.
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
