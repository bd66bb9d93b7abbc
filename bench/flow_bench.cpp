// Reproducible perf harness for the pack -> place -> route flow: the
// trajectory every perf PR measures itself against.
//
// Each run drives a FlowPipeline (the stage-graph flow API) through
// netlist generation, packing and placement, then routes the placement
// twice: with the default bounded-box router (the pipeline's route stage)
// and with the unbounded textbook baseline — so heap-pop and wall-time
// comparisons are apples-to-apples in a single process. After
// the route legs the harness saves a full pipeline checkpoint, resumes it,
// and reruns the route stage from the loaded placement, verifying the
// resumed remainder reproduces the uninterrupted run's trees and stats
// byte for byte (`checkpoint.resume_identical`). Unless --no-mcw is given
// it then runs the minimum-channel-width search twice through the
// pipeline, warm-started and cold. Results go to stdout as a table and to
// a machine-readable JSON file (see bench/README.md for the
// vbs.flow_bench.v8 schema).
//
// An in-run identity leg guards the placer's SoA data-layout kernel: a
// bounding-box kernel micro-bench times cost sweeps over the committed
// placement in both the SoA layout and the retained AoS reference and
// requires bit-identical per-net costs. A mismatch fails the run.
//
// Usage:
//   flow_bench [--smoke] [--circuits a,b] [--seeds N] [--width W]
//              [--margin M] [--effort E] [--no-mcw] [--big]
//              [--stage pack|place|route|all] [--checkpoint-dir DIR]
//              [--trace-out trace.json] [--metrics] [--out PATH]
//
//   --smoke      tiny synthetic circuits (seconds; used by CI to catch
//                harness bitrot)
//   --big        append the Rent-exponent synthetic family (grid 64 and
//                128) to the suite — hours on one core, MCW skipped for
//                those runs; opt-in for cache-behaviour studies beyond
//                the Table II scale
//   --circuits   comma-separated Table II names (default: the 5 smallest)
//   --seeds      number of seeds per circuit, 1..N (default 1)
//   --width      routed channel width (default 20, the paper's norm)
//   --margin     bounded-box margin in tiles (default RouterOptions)
//   --effort     placer effort scale (default 1.0)
//   --no-mcw     skip the minimum-channel-width searches
//   --stage      run the flow only up to this stage (pack/place/route;
//                later legs and the MCW searches are skipped; default all)
//   --checkpoint-dir
//                persist each run's pack+place prefix here and resume it
//                on the next invocation — repeated router-leg sweeps skip
//                the redundant anneals (stale checkpoints are re-run)
//   --trace-out  write a Chrome trace-event JSON of the run (flow stages,
//                router iterations, annealer temperatures, MCW trials)
//   --metrics    dump the metrics registry as JSON to stderr
//   --out        JSON output path (default BENCH_flow.json)
//
// The telemetry registry is always on in this harness (the JSON embeds
// its counters); determinism is unaffected — every identity check below
// holds with telemetry on or off.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "flow/pipeline.h"
#include "netlist/generator.h"
#include "netlist/mcnc.h"
#include "pack/pack.h"
#include "place/annealer.h"
#include "route/mcw.h"
#include "route/route_request.h"
#include "route/router.h"
#include "util/build_info.h"
#include "util/cli.h"
#include "util/table.h"

using namespace vbs;

namespace {

/// How far a bench run drives the flow: 0..2 = stop after that stage,
/// kAllLegs = route legs plus the MCW searches.
constexpr int kAllLegs = 3;

struct RouteSample {
  double seconds = 0.0;
  bool success = false;
  int iterations = 0;
  long long heap_pops = 0;
  long long bbox_retries = 0;
  std::size_t wire_nodes = 0;
};

struct McwSample {
  int mcw = -1;
  int trials = 0;
  long long heap_pops = 0;
  double seconds = 0.0;
};

/// Bounding-box kernel micro-bench: SoA sweep vs the retained AoS
/// reference over the same committed placement (bench_place_kernels).
struct KernelSample {
  long long sweeps = 0;
  double soa_seconds = 0.0;
  double ref_seconds = 0.0;
  bool identical = false;  ///< per-net costs bit-identical across layouts
};

struct RunRecord {
  std::string circuit;
  int grid = 0;
  std::uint64_t seed = 0;
  int chan_width = 0;
  double netlist_seconds = 0.0;
  int blocks = 0, nets = 0;
  double pack_seconds = 0.0;
  int luts = 0, ios = 0;
  double place_seconds = 0.0;
  PlaceStats place;
  double moves_per_sec = 0.0;
  bool place_from_checkpoint = false;  ///< anneal skipped via --checkpoint-dir
  KernelSample kernel;
  bool kernel_checked = false;
  RouteSample bounded;
  RouteSample unbounded;
  // Checkpoint/resume verification: save after route, resume, rerun the
  // route stage from the loaded placement, compare byte for byte.
  bool checkpoint_checked = false;
  bool checkpoint_identical = false;
  McwSample mcw_warm;
  McwSample mcw_cold;
};

RouteSample sample_of(const RoutingResult& rr, double seconds) {
  RouteSample s;
  s.seconds = seconds;
  s.success = rr.success;
  s.iterations = rr.iterations;
  s.heap_pops = rr.heap_pops;
  s.bbox_retries = rr.bbox_retries;
  s.wire_nodes = rr.total_wire_nodes;
  return s;
}

RouteSample route_once(const Fabric& fabric, const RouteRequest& req,
                       const RouterOptions& ropts) {
  const std::uint64_t t0 = telem::now_ns();
  PathfinderRouter router(fabric, req);
  const RoutingResult rr = router.route(ropts);
  return sample_of(rr, telem::seconds_since(t0));
}

bool identical_routes(const RoutingResult& a, const RoutingResult& b) {
  if (a.routes.size() != b.routes.size()) return false;
  for (std::size_t n = 0; n < a.routes.size(); ++n) {
    const auto& ra = a.routes[n].nodes;
    const auto& rb = b.routes[n].nodes;
    if (ra.size() != rb.size()) return false;
    for (std::size_t k = 0; k < ra.size(); ++k) {
      if (ra[k].rr != rb[k].rr || ra[k].parent != rb[k].parent ||
          ra[k].fabric_edge != rb[k].fabric_edge) {
        return false;
      }
    }
  }
  return true;
}

bool identical_placements(const Placement& a, const Placement& b) {
  return a.grid_w == b.grid_w && a.grid_h == b.grid_h &&
         a.lut_loc == b.lut_loc && a.io_loc == b.io_loc;
}

McwSample mcw_once(FlowPipeline& pipe, bool warm) {
  McwOptions mo;
  mo.warm_start = warm;
  const McwResult r = find_min_channel_width(pipe, mo);
  McwSample s;
  s.mcw = r.mcw;
  s.trials = r.trials;
  s.heap_pops = r.heap_pops;
  s.seconds = r.seconds;
  return s;
}

/// Saves `pipe` (pack..route) to a scratch directory, resumes it, checks
/// the loaded artifacts, then reruns the route stage from the loaded
/// placement and compares the remainder against the uninterrupted run —
/// the acceptance check of the resumable-pipeline contract, run in-process
/// on every bench run.
bool verify_checkpoint_resume(FlowPipeline& pipe, const std::string& dir) {
  pipe.save_checkpoint(dir, Stage::kRoute);
  FlowPipeline re = FlowPipeline::resume_from(dir);
  bool ok = re.completed(Stage::kRoute) &&
            identical_placements(re.placement(), pipe.placement()) &&
            identical_routes(re.routing(), pipe.routing());
  // Drop the loaded routing and rerun it on the frozen, loaded placement:
  // must reproduce the uninterrupted run byte for byte.
  re.rerun_from(Stage::kRoute);
  const RoutingResult& a = pipe.routing();
  const RoutingResult& b = re.routing();
  ok = ok && identical_routes(a, b) && a.success == b.success &&
       a.iterations == b.iterations && a.heap_pops == b.heap_pops &&
       a.bbox_retries == b.bbox_retries;
  return ok;
}

RunRecord run_one(const std::string& name, Netlist nl, int grid,
                  std::uint64_t seed, int width, double netlist_seconds,
                  double effort, int margin, bool with_mcw,
                  int stage_limit, const std::string& ckpt_root) {
  RunRecord rec;
  rec.circuit = name;
  rec.grid = grid;
  rec.seed = seed;
  rec.chan_width = width;
  rec.netlist_seconds = netlist_seconds;
  rec.blocks = nl.num_blocks();
  rec.nets = nl.num_nets();

  FlowOptions fo;
  fo.arch.chan_width = width;
  fo.seed = seed;
  fo.place.seed = seed;
  fo.place.effort = effort;
  if (margin >= 0) fo.route.bb_margin = margin;

  // Resume the pack+place prefix from --checkpoint-dir when a compatible
  // checkpoint exists (fingerprints reject corrupted ones; an option
  // mismatch means the checkpoint answers a different question).
  std::optional<FlowPipeline> pipe;
  const std::string run_ckpt =
      ckpt_root.empty()
          ? ""
          : (std::filesystem::path(ckpt_root) /
             (name + "_s" + std::to_string(seed)))
                .string();
  if (!run_ckpt.empty() && std::filesystem::exists(run_ckpt)) {
    try {
      FlowPipeline resumed = FlowPipeline::resume_from(run_ckpt);
      const FlowOptions& ro = resumed.options();
      // Pack/place artifacts are route-option-independent, so a checkpoint
      // is reusable whenever the placement-determining options match; the
      // current router configuration (e.g. a swept --margin) is applied on
      // top — that cross-invocation sweep is the point of the flag.
      if (resumed.completed(Stage::kPlace) && resumed.grid_w() == grid &&
          ro.arch.chan_width == width && ro.seed == seed &&
          ro.place.effort == effort) {
        resumed.set_route_options(fo.route);
        pipe.emplace(std::move(resumed));
        rec.place_from_checkpoint = true;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "flow_bench: ignoring checkpoint %s (%s)\n",
                   run_ckpt.c_str(), e.what());
    }
  }
  if (!pipe) pipe.emplace(std::move(nl), grid, grid, fo);

  double stage_seconds[kNumStages] = {};
  pipe->add_observer([&](const FlowPipeline&, const StageReport& r) {
    stage_seconds[static_cast<int>(r.stage)] = r.seconds;
  });

  pipe->run_to(Stage::kPack);
  rec.pack_seconds = stage_seconds[static_cast<int>(Stage::kPack)];
  rec.luts = pipe->packed().num_luts();
  rec.ios = pipe->packed().num_ios();
  if (stage_limit < 1) return rec;

  pipe->run_to(Stage::kPlace);
  rec.place = pipe->place_stats();
  rec.place_seconds = stage_seconds[static_cast<int>(Stage::kPlace)];
  rec.moves_per_sec =
      rec.place_seconds > 0
          ? static_cast<double>(rec.place.moves) / rec.place_seconds
          : 0.0;
  if (!run_ckpt.empty() && !rec.place_from_checkpoint) {
    pipe->save_checkpoint(run_ckpt, Stage::kPlace);
  }

  // SoA kernel cross-check: full bounding-box cost sweeps over the
  // committed placement in both layouts. The sweep count is scaled so the
  // timed region stays ~constant work across circuit sizes; identity is
  // exact per-net double equality, so any layout-induced arithmetic
  // difference fails the run.
  {
    const long long sweeps =
        std::max<long long>(4, 2'000'000 / std::max(1, rec.nets));
    const PlaceKernelReport kr = bench_place_kernels(
        pipe->netlist(), pipe->packed(), pipe->placement(), sweeps);
    rec.kernel_checked = true;
    rec.kernel.sweeps = kr.sweeps;
    rec.kernel.soa_seconds = kr.soa_seconds;
    rec.kernel.ref_seconds = kr.ref_seconds;
    rec.kernel.identical = kr.identical;
  }
  if (stage_limit < 2) return rec;

  // Default options: bounded-box expansion, incremental reroute, calibrated
  // A* weight — the pipeline's route stage with RouterOptions{} as shipped.
  // Touching route_request() first builds the fabric and routing graph
  // OUTSIDE the timed stage, so both route legs are timed against the
  // same pre-built graph (the v3 methodology).
  pipe->route_request();
  pipe->run_to(Stage::kRoute);
  rec.bounded = sample_of(pipe->routing(),
                          stage_seconds[static_cast<int>(Stage::kRoute)]);
  // The unbounded textbook baseline: whole-fabric expansion, whole-net
  // rip-up, and the pre-calibration heuristic weight — the formulation the
  // seed router shipped (see bench/README.md).
  RouterOptions baseline;
  baseline.bounded_box = false;
  baseline.incremental_reroute = false;
  baseline.astar_fac = 1.15;
  rec.unbounded = route_once(pipe->fabric(), pipe->route_request(), baseline);

  // Checkpoint/resume verification (scratch dir; --checkpoint-dir keeps
  // only the pack+place prefix, this leg exercises the full chain).
  const std::string vdir =
      (std::filesystem::temp_directory_path() /
       ("flow_bench_ckpt_" + name + "_s" + std::to_string(seed) + "_p" +
        std::to_string(::getpid())))
          .string();
  rec.checkpoint_checked = true;
  rec.checkpoint_identical = verify_checkpoint_resume(*pipe, vdir);
  std::filesystem::remove_all(vdir);

  if (with_mcw) {
    rec.mcw_warm = mcw_once(*pipe, /*warm=*/true);
    rec.mcw_cold = mcw_once(*pipe, /*warm=*/false);
  }
  return rec;
}

void write_json(const std::string& path, const std::vector<RunRecord>& runs,
                bool smoke, int width, int seeds, int margin,
                double effort, bool with_mcw, int stage_limit,
                const std::string& ckpt_root) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  long long pops_b = 0, pops_u = 0, mcw_w = 0, mcw_c = 0;
  double secs_b = 0, secs_u = 0;
  int ok_b = 0, ok_u = 0, mcw_match = 0;
  int ckpt_identical = 0;
  int kernel_identical = 0;
  double ksecs_soa = 0, ksecs_ref = 0;
  for (const RunRecord& r : runs) {
    pops_b += r.bounded.heap_pops;
    pops_u += r.unbounded.heap_pops;
    secs_b += r.bounded.seconds;
    secs_u += r.unbounded.seconds;
    ok_b += r.bounded.success ? 1 : 0;
    ok_u += r.unbounded.success ? 1 : 0;
    ckpt_identical += r.checkpoint_identical ? 1 : 0;
    kernel_identical += r.kernel_checked && r.kernel.identical ? 1 : 0;
    ksecs_soa += r.kernel.soa_seconds;
    ksecs_ref += r.kernel.ref_seconds;
    mcw_w += r.mcw_warm.heap_pops;
    mcw_c += r.mcw_cold.heap_pops;
    mcw_match += with_mcw && r.mcw_warm.mcw == r.mcw_cold.mcw ? 1 : 0;
  }
  const char* stage_names[] = {"pack", "place", "route", "all"};
  const std::string ckpt_json =
      ckpt_root.empty() ? "null" : "\"" + ckpt_root + "\"";
  std::fprintf(f, "{\n  \"schema\": \"vbs.flow_bench.v8\",\n");
  std::fprintf(f,
               "  \"options\": {\"smoke\": %s, \"chan_width\": %d, \"seeds\": "
               "%d, \"bb_margin\": %d, \"effort\": %.3f, "
               "\"mcw\": %s, \"stage\": \"%s\", \"checkpoint_dir\": %s},\n",
               smoke ? "true" : "false", width, seeds, margin, effort,
               with_mcw ? "true" : "false", stage_names[stage_limit],
               ckpt_json.c_str());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"build\": %s,\n", build_info_json(2).c_str());
  std::fprintf(f, "  \"metrics\": %s,\n",
               telem::snapshot().to_json(2).c_str());
  const RouterOptions def;
  std::fprintf(f,
               "  \"router_default\": {\"bounded_box\": %s, "
               "\"incremental_reroute\": %s, \"astar_fac\": %.2f},\n"
               "  \"router_baseline\": {\"bounded_box\": false, "
               "\"incremental_reroute\": false, \"astar_fac\": 1.15},\n",
               def.bounded_box ? "true" : "false",
               def.incremental_reroute ? "true" : "false", def.astar_fac);
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    std::fprintf(f, "    {\"circuit\": \"%s\", \"grid\": %d, \"seed\": %llu, ",
                 r.circuit.c_str(), r.grid,
                 static_cast<unsigned long long>(r.seed));
    std::fprintf(f, "\"chan_width\": %d,\n", r.chan_width);
    std::fprintf(
        f,
        "     \"netlist\": {\"seconds\": %.4f, \"blocks\": %d, \"nets\": %d},\n",
        r.netlist_seconds, r.blocks, r.nets);
    std::fprintf(f,
                 "     \"pack\": {\"seconds\": %.4f, \"luts\": %d, \"ios\": "
                 "%d},\n",
                 r.pack_seconds, r.luts, r.ios);
    std::fprintf(f,
                 "     \"place\": {\"seconds\": %.4f, "
                 "\"moves\": %lld, "
                 "\"accepted\": %lld, \"temperatures\": %d, \"moves_per_sec\": "
                 "%.0f, \"initial_cost\": %.3f, \"final_cost\": %.3f, "
                 "\"cost_drift\": %.3e, \"from_checkpoint\": %s},\n",
                 r.place_seconds, r.place.moves, r.place.accepted,
                 r.place.temperatures, r.moves_per_sec, r.place.initial_cost,
                 r.place.final_cost, r.place.cost_drift,
                 r.place_from_checkpoint ? "true" : "false");
    if (r.kernel_checked) {
      std::fprintf(f,
                   "     \"kernels\": {\"bbox_sweeps\": %lld, "
                   "\"soa_seconds\": %.4f, \"ref_seconds\": %.4f, "
                   "\"soa_speedup\": %.3f, \"identical\": %s},\n",
                   r.kernel.sweeps, r.kernel.soa_seconds, r.kernel.ref_seconds,
                   r.kernel.soa_seconds > 0
                       ? r.kernel.ref_seconds / r.kernel.soa_seconds
                       : 0.0,
                   r.kernel.identical ? "true" : "false");
    }
    auto route_json = [&](const char* key, const RouteSample& s,
                          const char* tail) {
      std::fprintf(f,
                   "     \"%s\": {\"seconds\": %.4f, \"success\": %s, "
                   "\"iterations\": %d, \"heap_pops\": %lld, \"bbox_retries\": "
                   "%lld, \"wire_nodes\": %zu}%s\n",
                   key, s.seconds, s.success ? "true" : "false", s.iterations,
                   s.heap_pops, s.bbox_retries, s.wire_nodes, tail);
    };
    route_json("route_bounded", r.bounded, ",");
    route_json("route_unbounded", r.unbounded, ",");
    std::fprintf(f,
                 "     \"checkpoint\": {\"checked\": %s, "
                 "\"resume_identical\": %s}%s\n",
                 r.checkpoint_checked ? "true" : "false",
                 r.checkpoint_identical ? "true" : "false",
                 with_mcw ? "," : "");
    if (with_mcw) {
      auto mcw_json = [&](const char* key, const McwSample& s,
                          const char* tail) {
        std::fprintf(f,
                     "     \"%s\": {\"mcw\": %d, \"trials\": %d, "
                     "\"heap_pops\": %lld, \"seconds\": %.4f}%s\n",
                     key, s.mcw, s.trials, s.heap_pops, s.seconds, tail);
      };
      mcw_json("mcw_warm", r.mcw_warm, ",");
      mcw_json("mcw_cold", r.mcw_cold, "");
    }
    std::fprintf(f, "    }%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"summary\": {\"runs\": %zu, \"routed_bounded\": %d, "
      "\"routed_unbounded\": %d, \"heap_pops_bounded\": %lld, "
      "\"heap_pops_unbounded\": %lld, \"heap_pop_ratio\": %.3f, "
      "\"route_seconds_bounded\": %.4f, \"route_seconds_unbounded\": %.4f, "
      "\"kernel_identical\": %d, \"kernel_soa_seconds\": %.4f, "
      "\"kernel_ref_seconds\": %.4f, \"kernel_speedup\": %.3f, "
      "\"checkpoint_identical\": %d, "
      "\"mcw_heap_pops_warm\": %lld, "
      "\"mcw_heap_pops_cold\": %lld, \"mcw_pop_ratio\": %.3f, "
      "\"mcw_width_matches\": %d}\n",
      runs.size(), ok_b, ok_u, pops_b, pops_u,
      pops_b > 0 ? static_cast<double>(pops_u) / static_cast<double>(pops_b)
                 : 0.0,
      secs_b, secs_u, kernel_identical, ksecs_soa, ksecs_ref,
      ksecs_soa > 0 ? ksecs_ref / ksecs_soa : 0.0,
      ckpt_identical, mcw_w, mcw_c,
      mcw_w > 0 ? static_cast<double>(mcw_c) / static_cast<double>(mcw_w)
                : 0.0,
      mcw_match);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv,
               {"--circuits", "--seeds", "--width", "--margin", "--effort",
                "--stage", "--checkpoint-dir", "--trace-out",
                "--out"},
               {"--smoke", "--no-mcw", "--metrics", "--big"});
  const TelemetryCli telemetry(args);
  telem::set_enabled(true);  // harness JSON embeds the counters
  const bool smoke = args.has_flag("--smoke");
  const bool big = args.has_flag("--big");
  const int seeds = static_cast<int>(args.int_or("--seeds", 1));
  const int width = static_cast<int>(args.int_or("--width", smoke ? 10 : 20));
  const int margin = static_cast<int>(args.int_or("--margin", -1));
  const double effort = args.double_or("--effort", 1.0);
  const std::string out = args.value_or("--out", "BENCH_flow.json");
  const std::string ckpt_root = args.value_or("--checkpoint-dir", "");
  int stage_limit = kAllLegs;
  if (const auto s = args.value("--stage")) {
    if (*s == "all") {
      stage_limit = kAllLegs;
    } else if (const auto st = stage_from_string(*s);
               st && *st <= Stage::kRoute) {
      stage_limit = static_cast<int>(*st);
    } else {
      throw std::runtime_error("option --stage: expected pack|place|route|all");
    }
  }
  const bool with_mcw = !args.has_flag("--no-mcw") && stage_limit == kAllLegs;

  std::vector<RunRecord> runs;
  for (int s = 1; s <= seeds; ++s) {
    const auto seed = static_cast<std::uint64_t>(s);
    if (smoke) {
      // Tiny synthetic circuits: exercises every stage, both router legs, the checkpoint/resume verification and both MCW modes in
      // seconds, for CI.
      for (const int n_lut : {60, 120}) {
        GenParams p;
        p.n_lut = n_lut;
        p.n_pi = 8;
        p.n_po = 8;
        p.seed = seed;
        const std::uint64_t t0 = telem::now_ns();
        Netlist nl = generate_netlist(p);
        const double gen_s = telem::seconds_since(t0);
        const int grid =
            static_cast<int>(std::ceil(std::sqrt(n_lut * 1.25)));
        runs.push_back(run_one("smoke" + std::to_string(n_lut), std::move(nl),
                               grid, seed, width, gen_s, effort, margin,
                               with_mcw, stage_limit, ckpt_root));
      }
    } else {
      std::vector<McncCircuit> circuits;
      if (const auto list = args.value("--circuits")) {
        std::string names = *list;
        std::size_t pos = 0;
        while (pos <= names.size()) {
          const std::size_t comma = names.find(',', pos);
          const std::string name = names.substr(
              pos, comma == std::string::npos ? comma : comma - pos);
          if (!name.empty()) circuits.push_back(mcnc_by_name(name));
          if (comma == std::string::npos) break;
          pos = comma + 1;
        }
      } else {
        // Default suite: the 5 smallest Table II circuits — spans the
        // des/dsip/bigkey/ex5p/tseng mix of I/O-bound and logic-bound
        // designs while staying minutes, not hours, on one core.
        circuits = mcnc20();
        std::sort(circuits.begin(), circuits.end(),
                  [](const McncCircuit& a, const McncCircuit& b) {
                    return a.lbs < b.lbs;
                  });
        circuits.resize(5);
      }
      for (const McncCircuit& c : circuits) {
        const std::uint64_t t0 = telem::now_ns();
        Netlist nl = make_mcnc_like(c, seed);
        const double gen_s = telem::seconds_since(t0);
        runs.push_back(run_one(c.name, std::move(nl), c.size, seed, width,
                               gen_s, effort, margin, with_mcw, stage_limit,
                               ckpt_root));
      }
    }
    if (big && !smoke) {
      // The Rent-exponent synthetic family: larger-than-Table-II arrays
      // whose locality is steered by a single exponent, for cache-behaviour
      // studies of the SoA kernels. MCW is skipped — a 128x128 bisection
      // would dominate the whole suite — but every identity leg still runs.
      struct BigSpec {
        const char* name;
        int grid;
        double rent;
      };
      for (const BigSpec& b :
           {BigSpec{"rent62_g64", 64, 0.62}, BigSpec{"rent58_g128", 128, 0.58}}) {
        GenParams p;
        p.n_lut = (b.grid * b.grid * 4) / 5;  // ~80% logic utilisation
        p.n_pi = b.grid;
        p.n_po = b.grid;
        p.seed = seed;
        p.rent_exponent = b.rent;
        const std::uint64_t t0 = telem::now_ns();
        Netlist nl = generate_netlist(p);
        const double gen_s = telem::seconds_since(t0);
        runs.push_back(run_one(b.name, std::move(nl), b.grid, seed, width,
                               gen_s, effort, margin, /*with_mcw=*/false,
                               stage_limit, ckpt_root));
      }
    }
  }

  TablePrinter t({"circuit", "seed", "place s", "route s", "pops", "full s",
                  "pop ratio", "mcw", "mcw pops w/c"});
  for (const RunRecord& r : runs) {
    const double ratio =
        r.bounded.heap_pops > 0
            ? static_cast<double>(r.unbounded.heap_pops) /
                  static_cast<double>(r.bounded.heap_pops)
            : 0.0;
    t.add_row({r.circuit, std::to_string(r.seed),
               TablePrinter::fmt(r.place_seconds, 2),
               TablePrinter::fmt(r.bounded.seconds, 2),
               TablePrinter::fmt_int(r.bounded.heap_pops),
               TablePrinter::fmt(r.unbounded.seconds, 2),
               TablePrinter::fmt(ratio, 2),
               std::to_string(r.mcw_warm.mcw),
               TablePrinter::fmt_int(r.mcw_warm.heap_pops) + "/" +
                   TablePrinter::fmt_int(r.mcw_cold.heap_pops)});
  }
  t.print();

  write_json(out, runs, smoke, width, seeds, margin, effort,
             with_mcw, stage_limit, ckpt_root);
  std::printf("\nwrote %s\n", out.c_str());
  telemetry.finish();

  // Fail loudly if any leg that ran regressed: an unroutable run, a kernel
  // mismatch, or a checkpoint resume that did not reproduce the
  // uninterrupted run would make the numbers meaningless.
  for (const RunRecord& r : runs) {
    if (r.kernel_checked && !r.kernel.identical) {
      std::fprintf(stderr,
                   "FAIL: %s seed %llu SoA bbox kernel diverged from the AoS "
                   "reference\n",
                   r.circuit.c_str(), static_cast<unsigned long long>(r.seed));
      return 1;
    }
    if (stage_limit < 2) continue;
    if (!r.bounded.success || !r.unbounded.success) {
      std::fprintf(stderr, "FAIL: %s seed %llu did not route\n",
                   r.circuit.c_str(), static_cast<unsigned long long>(r.seed));
      return 1;
    }
    if (r.checkpoint_checked && !r.checkpoint_identical) {
      std::fprintf(stderr,
                   "FAIL: %s seed %llu checkpoint resume diverged from the "
                   "uninterrupted run\n",
                   r.circuit.c_str(), static_cast<unsigned long long>(r.seed));
      return 1;
    }
    if (with_mcw && r.mcw_warm.mcw != r.mcw_cold.mcw) {
      std::fprintf(stderr,
                   "NOTE: %s seed %llu warm mcw %d != cold mcw %d (warm found "
                   "a different minimum; not a failure)\n",
                   r.circuit.c_str(), static_cast<unsigned long long>(r.seed),
                   r.mcw_warm.mcw, r.mcw_cold.mcw);
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr,
               "flow_bench: %s\n"
               "usage: flow_bench [--smoke] [--circuits a,b] [--seeds N] "
               "[--width W] [--margin M] [--effort E] "
               "[--no-mcw] [--big] [--stage pack|place|route|all] "
               "[--checkpoint-dir DIR] [--trace-out trace.json] [--metrics] "
               "[--out PATH]\n",
               e.what());
  return 1;
}
