// vbsperf: the repo benchmark program (perfbench/README.md).
//
// One process runs one workload for a wall budget and prints its metrics
// as one JSON object on the last stdout line:
//
//   vbsperf --workload compile|serve_hot|serve_cold --seed N
//           [--netlist-seed M] --seconds S --trace 0|1 --work-dir DIR
//
//   compile     des and ex5p through pack -> place -> route at W=20, then
//               encoded on the frozen routing at c in {1, 2, 4, 8}.
//   serve_hot   in-process RpcServer, closed loop of 4 connections over a
//               steady trace; every stream cached at setup.
//   serve_cold  same server and trace, stream cache at 1/4 of the
//               working set so the LRU thrashes.
//   Both serve workloads run pinned to one CPU (pin_to_one_cpu).
//
// Work is repeated in whole passes until the budget is spent. Serve times
// are medians over passes; compile times are percentiles over the circuits
// compiled. --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and traced passes, reports the per-layer metrics (timed from
// this file around public API calls) and the tracing overhead, and writes
// a Chrome trace. Every run checks its outputs; a failed check sets
// "correct" to false. Inputs derive from the seeds only: --seed drives the
// serve trace, --netlist-seed (default 1) the compile netlists and flow.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bitstream/connectivity.h"
#include "flow/flow.h"
#include "flow/pipeline.h"
#include "netlist/generator.h"
#include "netlist/mcnc.h"
#include "rtc/server/client.h"
#include "rtc/server/server.h"
#include "rtc/server/wire.h"
#include "rtc/service/journal.h"
#include "rtc/service/service.h"
#include "rtc/service/trace.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/telemetry.h"
#include "util/trace_export.h"
#include "vbs/devirtualizer.h"
#include "vbs/encoder.h"
#include "vbs/vbs_file.h"
#include "vbs/vbs_format.h"

using namespace vbs;
namespace fs = std::filesystem;

namespace {

// --- measurement helpers -----------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `fn` and returns its wall time in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Metrics in print order; one JSON object line at the end of the run.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  void fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "vbsperf: CHECK FAILED: %s\n", why.c_str());
  }

  long long attempted = 0;
  long long failed = 0;

  void print() const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + json_escape(metrics_[i].name) + "\": {\"value\": " + num +
             ", \"unit\": \"" + json_escape(metrics_[i].unit) + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;          ///< serve trace
  std::uint64_t netlist_seed = 1;  ///< compile netlists and flow
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

/// Pass schedule shared by the workloads: passes run until the wall
/// budget is spent. A traced run alternates untraced (even) and traced
/// (odd) passes and always runs at least one of each, so the tracing
/// overhead compares passes of the same run.
class PassClock {
 public:
  PassClock(const RunOptions& ro, int min_passes)
      : ro_(ro), min_passes_(ro.trace ? std::max(min_passes, 2) : min_passes),
        t0_(Clock::now()) {}

  bool next() {
    if (passes_ >= min_passes_ && seconds_since(t0_) >= ro_.seconds) {
      return false;
    }
    ++passes_;
    return true;
  }
  bool traced() const { return ro_.trace && passes_ % 2 == 0; }

 private:
  const RunOptions& ro_;
  int min_passes_;
  int passes_ = 0;
  Clock::time_point t0_;
};

/// Checks the B/E pairing of `events` and writes them as a Chrome trace.
void write_checked_trace(const std::vector<telem::TraceEvent>& events,
                         const RunOptions& ro, Report& rep) {
  const std::string bad = telem::check_event_pairing(events);
  if (!bad.empty()) rep.fail("trace event pairing: " + bad);
  const std::string path = ro.work_dir + "/trace-" + ro.workload + "-seed" +
                           std::to_string(ro.seed) + ".json";
  telem::write_trace_file(path, events);
  std::printf("trace: %zu events -> %s\n", events.size(), path.c_str());
}

// --- per-layer metric catalogue ----------------------------------------------

/// Every per-layer metric, in print order, with its unit. A traced run of
/// any workload prints all of them; a layer the workload does not exercise
/// reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"netlist.gen_s", "s"},
      {"pack.s", "s"},
      {"place.s", "s"},
      {"place.moves", "count"},
      {"place.accept_rate", "ratio"},
      {"route.s", "s"},
      {"route.heap_pops", "count"},
      {"route.iterations", "count"},
      {"encode.c1_s", "s"},
      {"encode.c2_s", "s"},
      {"encode.c4_s", "s"},
      {"encode.c8_s", "s"},
      {"encode.vbs_bits_c1", "bits"},
      {"encode.vbs_bits_c2", "bits"},
      {"encode.vbs_bits_c4", "bits"},
      {"encode.vbs_bits_c8", "bits"},
      {"encode.raw_bits", "bits"},
      {"encode.reorder_rate", "ratio"},
      {"encode.raw_rate", "ratio"},
      {"compile.stage_share", "ratio"},
      {"devirt.s", "s"},
      {"devirt.nodes", "count"},
      {"devirt.entries", "count"},
      {"devirt.mbit_per_s", "Mbit/s"},
      {"cache.hit_rate", "ratio"},
      {"cache.insertions", "count"},
      {"cache.evictions", "count"},
      {"service.submit_us", "us"},
      {"service.drain_us", "us"},
      {"service.commit_us", "us"},
      {"service.loads_per_batch", "count"},
      {"journal.append_us", "us"},
      {"journal.records", "count"},
      {"journal.bytes", "bytes"},
      {"wire.encode_us", "us"},
      {"wire.parse_us", "us"},
      {"wire.bytes_per_req", "bytes"},
      {"server.frames_in", "count"},
      {"server.frames_out", "count"},
      {"server.door_sheds", "count"},
      {"server.reads_paused", "count"},
      {"server.residual_us", "us"},
      {"loadgen.p99_ms", "ms"},
      {"loadgen.samples", "count"},
      {"trace.overhead_pct", "%"},
  };
  return k;
}

/// Prints the catalogue in order, taking values from `values` (0 when a
/// layer did not run in this workload).
void add_layer_metrics(const std::map<std::string, double>& values,
                       Report& rep) {
  for (const auto& [name, unit] : layer_catalogue()) {
    const auto it = values.find(name);
    rep.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& entry : layer_catalogue()) known |= entry.first == name;
    if (!known) throw std::logic_error("uncatalogued layer metric " + name);
  }
}

// --- compile workload --------------------------------------------------------

constexpr std::array<const char*, 2> kCompileCircuits = {"des", "ex5p"};
constexpr std::array<int, 4> kClusters = {1, 2, 4, 8};
constexpr int kChannelWidth = 20;
/// Netlist generation repeats per run; setup_s is their median.
constexpr int kSetupReps = 15;

/// One circuit through the flow. Times are wall seconds; the rest is
/// deterministic for a seed and must repeat exactly from pass to pass.
struct CircuitCompile {
  double total_s = 0.0, pack_s = 0.0, place_s = 0.0, route_s = 0.0;
  std::array<double, 4> encode_s{};
  long long moves = 0, accepted = 0, heap_pops = 0, iterations = 0;
  std::array<std::size_t, 4> vbs_bits{}, raw_bits{};
  long long entries = 0, reordered = 0, raw_entries = 0;
  std::vector<BitVector> streams;  ///< one per cluster size

  bool same_outputs(const CircuitCompile& o) const {
    return moves == o.moves && accepted == o.accepted &&
           heap_pops == o.heap_pops && iterations == o.iterations &&
           vbs_bits == o.vbs_bits && raw_bits == o.raw_bits &&
           entries == o.entries && reordered == o.reordered &&
           raw_entries == o.raw_entries && streams == o.streams;
  }
};

/// Compiles one circuit. The pipeline is handed back through `pipe` so
/// the decode check can use the placed design after the clock stops.
CircuitCompile compile_circuit(const McncCircuit& circuit, const Netlist& nl,
                               std::uint64_t seed,
                               std::unique_ptr<FlowPipeline>& pipe) {
  FlowOptions opts;
  opts.arch.chan_width = kChannelWidth;
  opts.seed = seed;
  Netlist input = nl;

  CircuitCompile r;
  const auto t0 = Clock::now();
  telem::Span circuit_span("perfbench", "compile.circuit");
  pipe = std::make_unique<FlowPipeline>(std::move(input), circuit.size,
                                        circuit.size, opts);
  r.pack_s = timed([&] {
    telem::Span s("perfbench", "run_to.pack");
    pipe->run_to(Stage::kPack);
  });
  r.place_s = timed([&] {
    telem::Span s("perfbench", "run_to.place");
    pipe->run_to(Stage::kPlace);
  });
  r.route_s = timed([&] {
    telem::Span s("perfbench", "run_to.route");
    pipe->run_to(Stage::kRoute);
  });
  if (!pipe->routing().success) {
    throw std::runtime_error(circuit.name + " does not route at W=20");
  }
  for (std::size_t i = 0; i < kClusters.size(); ++i) {
    EncodeOptions eo;
    eo.cluster = kClusters[i];
    r.encode_s[i] = timed([&] {
      telem::Span s("perfbench", "run_to.encode");
      s.arg("cluster", kClusters[i]);
      pipe->set_encode_options(eo);
      pipe->run_to(Stage::kEncode);
    });
    const EncodeStats& es = pipe->encode_stats();
    r.vbs_bits[i] = es.vbs_bits;
    r.raw_bits[i] = es.raw_bits;
    r.entries += es.entries;
    r.reordered += es.reordered_entries;
    r.raw_entries += es.raw_entries;
    r.streams.push_back(pipe->vbs_stream());
  }
  r.total_s = seconds_since(t0);

  const PlaceStats& ps = pipe->place_stats();
  r.moves = ps.moves;
  r.accepted = ps.accepted;
  r.heap_pops = pipe->routing().heap_pops;
  r.iterations = pipe->routing().iterations;
  return r;
}

/// What the decode check found, summed over every decode.
struct DecodeCheck {
  double seconds = 0.0;  ///< each decode timed on its own thread
  DecodeStats stats;
  std::size_t stream_bits = 0;
};

/// Decodes every encoded image with devirtualize_image and proves it
/// against the placed design with verify_connectivity, independently of
/// the encoder. The decodes are independent and untimed by the workload,
/// so they share kCheckThreads threads.
DecodeCheck check_decodes(const std::vector<const McncCircuit*>& circuits,
                          std::vector<std::unique_ptr<FlowPipeline>>& pipes,
                          const std::vector<CircuitCompile>& runs,
                          Report& rep) {
  constexpr std::size_t kCheckThreads = 4;
  struct Job {
    std::size_t circuit = 0, cluster = 0;
    double seconds = 0.0;
    DecodeStats stats;
    std::string verdict;
  };
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    // The accessors are lazy; touch them before the pipeline is shared.
    pipes[c]->fabric();
    pipes[c]->packed();
    pipes[c]->placement();
    for (std::size_t i = 0; i < kClusters.size(); ++i) {
      jobs.push_back({c, i, 0.0, {}, {}});
    }
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t j; (j = next.fetch_add(1)) < jobs.size();) {
      Job& job = jobs[j];
      FlowPipeline& pipe = *pipes[job.circuit];
      try {
        const VbsImage img =
            deserialize_vbs(runs[job.circuit].streams[job.cluster]);
        BitVector raw;
        job.seconds = timed([&] {
          raw = devirtualize_image(img, pipe.fabric(), {0, 0}, &job.stats);
        });
        job.verdict = verify_connectivity(pipe.fabric(), raw, pipe.netlist(),
                                          pipe.packed(), pipe.placement());
      } catch (const std::exception& e) {
        job.verdict = e.what();
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < std::min(kCheckThreads, jobs.size()); ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) t.join();

  DecodeCheck check;
  for (const Job& job : jobs) {
    check.seconds += job.seconds;
    check.stats += job.stats;
    check.stream_bits += runs[job.circuit].streams[job.cluster].size();
    if (!job.verdict.empty()) {
      rep.fail(circuits[job.circuit]->name + " c=" +
               std::to_string(kClusters[job.cluster]) +
               ": decoded image does not implement the netlist: " +
               job.verdict);
    }
  }
  return check;
}

void run_compile(const RunOptions& ro, Report& rep) {
  std::vector<const McncCircuit*> circuits;
  for (const char* name : kCompileCircuits) {
    circuits.push_back(&mcnc_by_name(name));
  }

  // setup_s: generating both netlists, median of kSetupReps.
  std::vector<Netlist> netlists(circuits.size());
  std::vector<double> setup_s;
  telem::set_enabled(ro.trace);
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    setup_s.push_back(timed([&] {
      telem::Span s("perfbench", "netlist.gen");
      for (std::size_t c = 0; c < circuits.size(); ++c) {
        netlists[c] = make_mcnc_like(*circuits[c], ro.netlist_seed);
      }
    }));
  }
  telem::set_enabled(false);

  // Pass 0 is decode-checked; every later pass must reproduce its counts
  // and streams exactly.
  std::vector<CircuitCompile> reference;
  DecodeCheck check;
  double compile_rss_mb = 0.0;
  std::vector<double> circuit_ms;          ///< untraced, pooled per circuit
  std::vector<double> untraced_pass_s, traced_pass_s;
  std::vector<std::vector<CircuitCompile>> traced_passes;
  double untraced_total_s = 0.0;
  long long untraced_circuits = 0;

  PassClock passes(ro, 1);
  int pass = 0;
  while (passes.next()) {
    const bool traced = passes.traced();
    telem::set_enabled(traced);
    std::vector<CircuitCompile> runs;
    std::vector<std::unique_ptr<FlowPipeline>> pipes(circuits.size());
    double pass_s = 0.0;
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      rep.attempted += 1;
      runs.push_back(
          compile_circuit(*circuits[c], netlists[c], ro.netlist_seed,
                          pipes[c]));
      pass_s += runs.back().total_s;
    }
    if (traced) telem::set_enabled(false);

    if (pass == 0) {
      // Peak memory of the compile itself, before the threaded check.
      compile_rss_mb = peak_rss_mb();
      check = check_decodes(circuits, pipes, runs, rep);
      reference = runs;
    } else {
      for (std::size_t c = 0; c < runs.size(); ++c) {
        if (!runs[c].same_outputs(reference[c])) {
          rep.fail(circuits[c]->name + ": pass " + std::to_string(pass) +
                   " counts or streams differ from pass 0");
        }
      }
    }
    if (traced) {
      traced_pass_s.push_back(pass_s);
      traced_passes.push_back(std::move(runs));
    } else {
      untraced_pass_s.push_back(pass_s);
      for (const CircuitCompile& r : runs) circuit_ms.push_back(r.total_s * 1e3);
      untraced_total_s += pass_s;
      untraced_circuits += static_cast<long long>(runs.size());
    }
    std::printf("compile pass %d%s: %.3f s\n", pass, traced ? " (traced)" : "",
                pass_s);
    ++pass;
  }

  std::array<std::size_t, 4> vbs_bits{}, raw_bits{};
  for (const CircuitCompile& r : reference) {
    for (std::size_t i = 0; i < kClusters.size(); ++i) {
      vbs_bits[i] += r.vbs_bits[i];
      raw_bits[i] += r.raw_bits[i];
    }
  }

  if (!ro.trace) {
    rep.add("setup_s", median(setup_s), "s");
    rep.add("p50_ms", percentile(circuit_ms, 0.5), "ms");
    rep.add("p90_ms", percentile(circuit_ms, 0.9), "ms");
    rep.add("ops_per_s", ratio(untraced_circuits, untraced_total_s), "1/s");
    rep.add("peak_rss_mb", compile_rss_mb, "MiB");
    for (std::size_t i = 0; i < kClusters.size(); ++i) {
      rep.add("vbs_ratio_c" + std::to_string(kClusters[i]),
              ratio(vbs_bits[i], raw_bits[i]), "ratio");
    }
    return;
  }

  // Per-layer: stage times summed over the circuits of a traced pass,
  // median over traced passes; counts from pass 0 (identical everywhere).
  auto sum_of = [](const std::vector<CircuitCompile>& runs, auto field) {
    double sum = 0.0;
    for (const CircuitCompile& r : runs) sum += static_cast<double>(field(r));
    return sum;
  };
  auto traced_median = [&](auto field) {
    std::vector<double> per_pass;
    for (const auto& runs : traced_passes) per_pass.push_back(sum_of(runs, field));
    return median(per_pass);
  };

  std::map<std::string, double> m;
  m["netlist.gen_s"] = median(setup_s);
  m["pack.s"] = traced_median([](const auto& r) { return r.pack_s; });
  m["place.s"] = traced_median([](const auto& r) { return r.place_s; });
  m["route.s"] = traced_median([](const auto& r) { return r.route_s; });
  double stage_sum = m["pack.s"] + m["place.s"] + m["route.s"];
  for (std::size_t i = 0; i < kClusters.size(); ++i) {
    const std::string c = std::to_string(kClusters[i]);
    m["encode.c" + c + "_s"] =
        traced_median([i](const auto& r) { return r.encode_s[i]; });
    stage_sum += m["encode.c" + c + "_s"];
    m["encode.vbs_bits_c" + c] = static_cast<double>(vbs_bits[i]);
  }
  m["place.moves"] = sum_of(reference, [](const auto& r) { return r.moves; });
  m["place.accept_rate"] = ratio(
      sum_of(reference, [](const auto& r) { return r.accepted; }),
      m["place.moves"]);
  m["route.heap_pops"] =
      sum_of(reference, [](const auto& r) { return r.heap_pops; });
  m["route.iterations"] =
      sum_of(reference, [](const auto& r) { return r.iterations; });
  m["encode.raw_bits"] = static_cast<double>(raw_bits[0]);
  const double entries =
      sum_of(reference, [](const auto& r) { return r.entries; });
  m["encode.reorder_rate"] = ratio(
      sum_of(reference, [](const auto& r) { return r.reordered; }), entries);
  m["encode.raw_rate"] = ratio(
      sum_of(reference, [](const auto& r) { return r.raw_entries; }), entries);
  m["compile.stage_share"] =
      ratio(stage_sum, traced_median([](const auto& r) { return r.total_s; }));
  m["devirt.s"] = check.seconds;
  m["devirt.nodes"] = static_cast<double>(check.stats.nodes_expanded);
  m["devirt.entries"] = static_cast<double>(check.stats.entries_decoded);
  m["devirt.mbit_per_s"] = ratio(check.stream_bits * 1e-6, check.seconds);
  m["trace.overhead_pct"] =
      100.0 * (ratio(median(traced_pass_s), median(untraced_pass_s)) - 1.0);
  add_layer_metrics(m, rep);
  write_checked_trace(telem::take_trace(), ro, rep);
}

// --- serve workloads ---------------------------------------------------------

constexpr int kFabricSide = 32;
constexpr int kKinds = 48;
constexpr int kTraceEvents = 3000;
/// About one arrival per tick keeps ~10 tasks resident: on 32x32 no load
/// is ever rejected, so every request completes.
constexpr int kTraceTicks = 1500;
constexpr int kConnections = 4;
constexpr int kServiceThreads = 2;
/// serve_cold's stream cache holds this share of the decoded working set.
constexpr double kColdCacheShare = 0.25;
/// Restarts per run; setup_s is their median.
constexpr std::size_t kServeSetupReps = 9;

struct ServeConfig {
  bool warm = false;  ///< serve_hot: every stream decoded at setup
  std::size_t cache_capacity_bits = 0;
};

/// The task library: one VBS2 file per trace kind, compiled through the
/// flow before any clock starts (input generation, like the trace).
struct Library {
  std::vector<std::string> files;
  std::vector<BitVector> streams;
  std::array<std::size_t, 4> vbs_bits{}, raw_bits{};  ///< summed over kinds
  std::size_t decoded_bits = 0;  ///< decoded footprint of all kinds
};

Trace make_serve_trace(std::uint64_t seed) {
  TraceGenOptions g;
  g.pattern = ArrivalPattern::kSteady;
  g.events = kTraceEvents;
  g.ticks = kTraceTicks;
  g.seed = seed;
  g.fabric_w = kFabricSide;
  g.fabric_h = kFabricSide;
  g.kinds = kKinds;
  return generate_trace(g);
}

/// Compiles every trace kind (its fixed recipe) through the flow, sizes it
/// at every cluster size, and writes the stream it is served as — encoded
/// at the kind's own cluster size — as one VBS2 file.
Library build_library(const Trace& trace, const std::string& dir) {
  Library lib;
  fs::create_directories(dir);
  for (std::size_t k = 0; k < trace.kinds.size(); ++k) {
    const TraceTaskKind& kind = trace.kinds[k];
    GenParams gp;
    gp.n_lut = kind.n_lut;
    gp.n_pi = 3;
    gp.n_po = 3;
    gp.seed = kind.seed;
    FlowOptions opts;
    opts.seed = kind.seed;
    FlowResult flow =
        run_flow(generate_netlist(gp), kind.grid, kind.grid, opts);
    if (!flow.routed()) throw std::runtime_error("unroutable " + kind.name);
    BitVector served;
    for (std::size_t i = 0; i < kClusters.size(); ++i) {
      EncodeOptions eo;
      eo.cluster = kClusters[i];
      EncodeStats es;
      const VbsImage img = encode_vbs(*flow.fabric, flow.netlist, flow.packed,
                                      flow.placement, flow.routing.routes, eo,
                                      &es);
      lib.vbs_bits[i] += es.vbs_bits;
      lib.raw_bits[i] += es.raw_bits;
      if (kClusters[i] == kind.cluster) served = serialize_vbs(img);
    }
    if (served.empty()) throw std::logic_error("kind cluster not in sweep");
    lib.decoded_bits +=
        decode_stream(deserialize_vbs(served))->footprint_bits();
    lib.files.push_back(dir + "/kind" + std::to_string(k) + ".vbs");
    write_vbs_file(lib.files.back(), served);
    lib.streams.push_back(std::move(served));
  }
  return lib;
}

/// A running service stack: what an operator restarts.
struct ServeStack {
  std::unique_ptr<ReconfigService> svc;
  std::unique_ptr<rpc::RpcServer> server;
  std::vector<BitVector> streams;  ///< read back from the library files
  int port = 0;
};

ServiceOptions service_options(const ServeConfig& cfg) {
  ServiceOptions so;
  so.threads = kServiceThreads;
  so.cache_capacity_bits = cfg.cache_capacity_bits;
  return so;
}

/// Loads and unloads every kind once so the stream cache holds them all.
void warm_up(ReconfigService& svc, const std::vector<BitVector>& streams) {
  for (const BitVector& s : streams) {
    svc.submit_unload(svc.submit_load(s));
  }
  for (const RequestResult& r : svc.drain()) {
    if (r.status != RequestStatus::kDone) {
      throw std::runtime_error("warm-up request not done");
    }
  }
}

/// The timed restart: read and validate the library, construct the
/// service, warm up (serve_hot) and start the server.
ServeStack set_up(const ServeConfig& cfg, const Library& lib) {
  ServeStack st;
  telem::Span setup_span("perfbench", "setup");
  {
    telem::Span s("perfbench", "setup.read_library");
    for (const std::string& f : lib.files) {
      st.streams.push_back(read_vbs_file(f));
      deserialize_vbs(st.streams.back());  // throws on a malformed stream
    }
  }
  st.svc = std::make_unique<ReconfigService>(ArchSpec{}, kFabricSide,
                                             kFabricSide, service_options(cfg));
  if (cfg.warm) {
    telem::Span s("perfbench", "setup.warm_up");
    warm_up(*st.svc, st.streams);
  }
  telem::Span s("perfbench", "setup.server_start");
  st.server = std::make_unique<rpc::RpcServer>(st.svc.get(),
                                               rpc::RpcServerOptions{});
  st.port = st.server->start();
  return st;
}

/// ORs every set bit of `src` into `dst` (same size).
void or_into(BitVector& dst, const BitVector& src) {
  const auto& words = src.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      dst.set(w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)), true);
    }
  }
}

/// The configuration memory must be exactly the union of fresh decodes of
/// every resident task at its origin: no bits from a wrong cached commit,
/// none left behind in freed regions.
void check_config_memory(const ReconfigService& svc, Report& rep) {
  const ReconfigController& rtc = svc.controller();
  BitVector expect(rtc.config_memory().size());
  for (TaskId id : rtc.task_ids()) {
    const Rect& r = rtc.record(id).rect;
    or_into(expect, devirtualize_image(rtc.image_of(id), rtc.fabric(),
                                       {r.x, r.y}));
  }
  if (expect != rtc.config_memory()) {
    rep.fail("config memory differs from fresh decodes of resident tasks");
  }
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the last CPU it may run on. On a shared VM a closed loop across vCPUs
/// waits on cross-vCPU wake-ups whose latency follows the host's load:
/// unpinned, serve_hot's p90 spread 0.50 across runs; on one CPU, 0.11.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
    return;
  }
}

/// One live pass: what it measured and what the layers counted.
struct ServePass {
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  std::vector<double> latencies_ms;
  long long loads = 0;
  long long cache_hits = 0, cache_misses = 0;
  long long cache_insertions = 0, cache_evictions = 0;
  rpc::ServerCounters server;
};

ServePass serve_pass(const ServeConfig& cfg, const Library& lib,
                     const Trace& trace, Report& rep) {
  ServePass p;
  const auto t0 = Clock::now();
  ServeStack st = set_up(cfg, lib);
  p.setup_s = seconds_since(t0);
  if (st.streams != lib.streams) rep.fail("library files read back differ");

  // Baselines after warm-up: the pass reports only the loadgen's share.
  const DecodedStreamCache& cache = st.svc->cache();
  const long long hits0 = cache.hits(), misses0 = cache.misses();
  const long long ins0 = cache.insertions(), ev0 = cache.evictions();
  const long long loads0 = st.svc->stats().loads;

  rpc::LoadGenOptions lo;
  lo.port = st.port;
  lo.connections = kConnections;
  lo.trace = trace;
  lo.kind_streams = st.streams;
  rpc::LoadGenReport lg;
  {
    telem::Span s("perfbench", "loadgen");
    lg = rpc::run_loadgen(lo);
  }
  {
    telem::Span s("perfbench", "server.stop");
    st.server->stop();
  }

  // Accounting: every request sent is a result, a door shed or a wire
  // error; anything else (a timeout) is unaccounted and counts as failed.
  const long long accounted = lg.results + lg.door_sheds + lg.wire_errors;
  if (accounted != lg.requests_sent || lg.timed_out) {
    rep.fail("loadgen accounting: sent " + std::to_string(lg.requests_sent) +
             " != results + door_sheds + wire_errors " +
             std::to_string(accounted));
  }
  rep.attempted += lg.requests_sent;
  rep.failed += (lg.results - lg.done) + lg.door_sheds + lg.wire_errors +
                std::max(0LL, lg.requests_sent - accounted);
  check_config_memory(*st.svc, rep);

  p.ops_per_s = ratio(static_cast<double>(lg.done), lg.wall_seconds);
  p.latencies_ms = std::move(lg.latencies_ms);
  p.loads = st.svc->stats().loads - loads0;
  p.cache_hits = cache.hits() - hits0;
  p.cache_misses = cache.misses() - misses0;
  p.cache_insertions = cache.insertions() - ins0;
  p.cache_evictions = cache.evictions() - ev0;
  p.server = st.server->counters();
  return p;
}

/// Per-request layer costs of an in-process replay of the trace: one
/// request at a time, no sockets.
struct ReplayCost {
  double wire_encode_s = 0.0, wire_parse_s = 0.0;
  double submit_s = 0.0, drain_s = 0.0;
  double cached_load_drain_s = 0.0;  ///< drains of loads that skipped decode
  long long cached_loads = 0;
  std::size_t wire_bytes = 0;
  long long requests = 0;
};

/// Replays the trace against a fresh service configured like the live
/// one. Each request is framed and parsed with the wire codec, submitted,
/// drained, and its RESULT framed and parsed back. With a non-empty
/// `journal_dir` the service is journaled there, and telemetry records
/// from the first request on (the caller turns it off and reads it).
ReplayCost replay(const ServeConfig& cfg, const Library& lib,
                  const Trace& trace, const std::string& journal_dir,
                  Report& rep) {
  ReplayCost c;
  ReconfigService svc(ArchSpec{}, kFabricSide, kFabricSide,
                      service_options(cfg));
  if (!journal_dir.empty()) svc.open_journal(journal_dir);
  if (cfg.warm) warm_up(svc, lib.streams);
  if (!journal_dir.empty()) {
    telem::reset();
    telem::set_enabled(true);
  }

  std::vector<RequestId> id_of_event(trace.events.size(), kNoRequest);
  rpc::FrameReader reader;
  std::string buf;
  rpc::Frame frame;
  for (std::size_t e = 0; e < trace.events.size(); ++e) {
    const TraceEvent& ev = trace.events[e];
    const std::uint64_t corr = e + 1;
    std::string wire;
    c.wire_encode_s += timed([&] {
      if (ev.kind == TraceEvent::Kind::kLoad) {
        wire = rpc::encode_frame(
            rpc::FrameType::kLoad, corr,
            rpc::encode_load(
                ev.tenant, lib.streams[static_cast<std::size_t>(ev.task_kind)]));
      } else {
        wire = rpc::encode_frame(
            ev.kind == TraceEvent::Kind::kUnload ? rpc::FrameType::kUnload
                                                 : rpc::FrameType::kRelocate,
            corr,
            rpc::encode_target(
                {ev.tenant, id_of_event[static_cast<std::size_t>(ev.ref)]}));
      }
    });
    c.wire_bytes += wire.size();
    buf += wire;
    rpc::LoadMsg load;
    rpc::TargetMsg target;
    c.wire_parse_s += timed([&] {
      if (!reader.next(buf, frame)) throw std::logic_error("partial frame");
      if (frame.type == rpc::FrameType::kLoad) {
        load = rpc::decode_load(frame.payload);
      } else {
        target = rpc::decode_target(frame.payload);
      }
    });
    RequestId id = kNoRequest;
    c.submit_s += timed([&] {
      switch (ev.kind) {
        case TraceEvent::Kind::kLoad:
          id = svc.submit_load(std::move(load.stream), load.tenant);
          break;
        case TraceEvent::Kind::kUnload:
          id = svc.submit_unload(target.target, target.tenant);
          break;
        case TraceEvent::Kind::kRelocate:
          id = svc.submit_relocate(target.target, target.tenant);
          break;
      }
    });
    id_of_event[e] = id;
    std::vector<RequestResult> results;
    const double drain_s = timed([&] { results = svc.drain(); });
    c.drain_s += drain_s;
    if (results.size() != 1 || results[0].status != RequestStatus::kDone) {
      rep.fail("replay request " + std::to_string(e) + " not done");
      continue;
    }
    if (ev.kind == TraceEvent::Kind::kLoad && results[0].cache_hit) {
      c.cached_load_drain_s += drain_s;
      ++c.cached_loads;
    }
    std::string reply;
    c.wire_encode_s += timed([&] {
      reply = rpc::encode_frame(rpc::FrameType::kResult, corr,
                                rpc::encode_result(results[0]));
    });
    c.wire_bytes += reply.size();
    buf += reply;
    c.wire_parse_s += timed([&] {
      if (!reader.next(buf, frame)) throw std::logic_error("partial frame");
      rpc::decode_result(frame.payload);
    });
    ++c.requests;
  }
  if (!journal_dir.empty()) ServiceJournal::scan(journal_dir);  // validates
  return c;
}

/// Total duration and count of the B/E spans named `category`/`name`.
std::pair<double, long long> span_total(
    const std::vector<telem::TraceEvent>& events, const std::string& category,
    const std::string& name) {
  std::map<std::uint64_t, std::vector<std::uint64_t>> open;  // per tid
  double seconds = 0.0;
  long long count = 0;
  for (const telem::TraceEvent& ev : events) {
    if (ev.category != category || ev.name != name) continue;
    auto& stack = open[ev.tid];
    if (ev.phase == 'B') {
      stack.push_back(ev.ts_ns);
    } else if (ev.phase == 'E' && !stack.empty()) {
      seconds += static_cast<double>(ev.ts_ns - stack.back()) * 1e-9;
      stack.pop_back();
      ++count;
    }
  }
  return {seconds, count};
}

void run_serve(const RunOptions& ro, bool hot, Report& rep) {
  pin_to_one_cpu();
  const Trace trace = make_serve_trace(ro.seed);
  const Library lib = build_library(trace, ro.work_dir + "/library");

  ServeConfig cfg;
  cfg.warm = hot;
  cfg.cache_capacity_bits =
      hot ? ServiceOptions{}.cache_capacity_bits
          : static_cast<std::size_t>(kColdCacheShare * lib.decoded_bits);
  std::printf("serve: %zu events, %zu kinds, decoded working set %.3f Mbit, "
              "cache %.3f Mbit\n",
              trace.events.size(), trace.kinds.size(), lib.decoded_bits * 1e-6,
              cfg.cache_capacity_bits * 1e-6);

  // Per-pass values: a median over passes is robust to the host slowing
  // down for part of a run, where a pooled tail is not.
  std::vector<double> setup_s, ops, p50s, p90s, traced_p50s;
  std::vector<double> latencies;  ///< pooled, for the diagnostic tail
  std::vector<ServePass> traced_passes;
  PassClock passes(ro, 3);
  while (passes.next()) {
    const bool traced = passes.traced();
    if (traced) {
      telem::reset();  // the trace keeps the last traced pass only
      telem::set_enabled(true);
    }
    ServePass p = serve_pass(cfg, lib, trace, rep);
    telem::set_enabled(false);
    std::printf("serve pass%s: setup %.4f s, %.1f ops/s, p50 %.3f ms, "
                "cache %lld hits / %lld misses\n",
                traced ? " (traced)" : "", p.setup_s, p.ops_per_s,
                percentile(p.latencies_ms, 0.5), p.cache_hits,
                p.cache_misses);
    if (traced) {
      traced_p50s.push_back(percentile(p.latencies_ms, 0.5));
      traced_passes.push_back(std::move(p));
      continue;
    }
    setup_s.push_back(p.setup_s);
    ops.push_back(p.ops_per_s);
    p50s.push_back(percentile(p.latencies_ms, 0.5));
    p90s.push_back(percentile(p.latencies_ms, 0.9));
    latencies.insert(latencies.end(), p.latencies_ms.begin(),
                     p.latencies_ms.end());
  }

  if (!ro.trace) {
    // setup_s is a median over several restarts even when passes are few.
    while (setup_s.size() < kServeSetupReps) {
      const auto t0 = Clock::now();
      ServeStack st = set_up(cfg, lib);
      setup_s.push_back(seconds_since(t0));
      st.server->stop();
    }
    rep.add("setup_s", median(setup_s), "s");
    rep.add("p50_ms", median(p50s), "ms");
    rep.add("p90_ms", median(p90s), "ms");
    rep.add("ops_per_s", median(ops), "1/s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
    for (std::size_t i = 0; i < kClusters.size(); ++i) {
      rep.add("vbs_ratio_c" + std::to_string(kClusters[i]),
              ratio(lib.vbs_bits[i], lib.raw_bits[i]), "ratio");
    }
    return;
  }

  const std::vector<telem::TraceEvent> events = telem::take_trace();
  // Drains of the loadgen, from the service's own spans.
  long long drains = span_total(events, "service", "drain").second;
  if (cfg.warm) drains -= 1;  // the warm-up drain precedes the loadgen
  const ServePass& tp = traced_passes.back();

  // Server layers: replay the trace in-process, one request at a time.
  // The plain replay is untraced; the journaled one runs with telemetry
  // on, and the journal's own append spans and byte counter give its cost.
  const ReplayCost plain = replay(cfg, lib, trace, "", rep);
  const std::string journal_dir = ro.work_dir + "/journal";
  fs::remove_all(journal_dir);
  replay(cfg, lib, trace, journal_dir, rep);
  telem::set_enabled(false);
  const telem::MetricsSnapshot journal_metrics = telem::snapshot();
  const auto [append_s, appends] =
      span_total(telem::take_trace(), "journal", "append");
  fs::remove_all(journal_dir);
  const double us = 1e6 / static_cast<double>(plain.requests);

  std::map<std::string, double> m;
  m["wire.encode_us"] = plain.wire_encode_s * us;
  m["wire.parse_us"] = plain.wire_parse_s * us;
  m["wire.bytes_per_req"] =
      ratio(static_cast<double>(plain.wire_bytes), plain.requests);
  m["service.submit_us"] = plain.submit_s * us;
  m["service.drain_us"] = plain.drain_s * us;
  m["service.commit_us"] =
      1e6 * ratio(plain.cached_load_drain_s, plain.cached_loads);
  m["journal.append_us"] = append_s * us;
  m["journal.records"] = static_cast<double>(appends);
  const auto jb = journal_metrics.counters.find("journal.append.bytes");
  m["journal.bytes"] =
      jb == journal_metrics.counters.end() ? 0.0 : static_cast<double>(jb->second);
  m["server.residual_us"] =
      median(p50s) * 1e3 -
      (m["wire.encode_us"] + m["wire.parse_us"] + m["service.submit_us"] +
       m["service.drain_us"]);

  // Decoder: every distinct stream once.
  const Fabric fabric(ArchSpec{}, kFabricSide, kFabricSide);
  DecodeStats ds;
  double devirt_s = 0.0;
  std::size_t stream_bits = 0;
  for (const BitVector& s : lib.streams) {
    const VbsImage img = deserialize_vbs(s);
    devirt_s += timed([&] { devirtualize_image(img, fabric, {0, 0}, &ds); });
    stream_bits += s.size();
  }
  m["devirt.s"] = devirt_s;
  m["devirt.nodes"] = static_cast<double>(ds.nodes_expanded);
  m["devirt.entries"] = static_cast<double>(ds.entries_decoded);
  m["devirt.mbit_per_s"] = ratio(stream_bits * 1e-6, devirt_s);

  m["cache.hit_rate"] = ratio(tp.cache_hits, tp.cache_hits + tp.cache_misses);
  m["cache.insertions"] = static_cast<double>(tp.cache_insertions);
  m["cache.evictions"] = static_cast<double>(tp.cache_evictions);
  m["service.loads_per_batch"] = ratio(tp.loads, drains);
  m["server.frames_in"] = static_cast<double>(tp.server.frames_in);
  m["server.frames_out"] = static_cast<double>(tp.server.frames_out);
  m["server.door_sheds"] = static_cast<double>(tp.server.door_sheds);
  m["server.reads_paused"] = static_cast<double>(tp.server.reads_paused);
  m["loadgen.p99_ms"] = percentile(latencies, 0.99);
  m["loadgen.samples"] = static_cast<double>(latencies.size());
  m["trace.overhead_pct"] =
      100.0 * (ratio(median(traced_p50s), median(p50s)) - 1.0);
  add_layer_metrics(m, rep);
  write_checked_trace(events, ro, rep);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"--workload", "--seed", "--netlist-seed", "--seconds",
                        "--trace", "--work-dir"},
                       {});
    RunOptions ro;
    ro.workload = args.value_or("--workload", "");
    ro.seed = seed_or(args);
    ro.netlist_seed =
        static_cast<std::uint64_t>(args.int_or("--netlist-seed", 1));
    ro.seconds = args.double_or("--seconds", 10.0);
    ro.trace = args.int_or("--trace", 0) != 0;
    ro.work_dir = args.value_or("--work-dir", "perfbench-work");
    fs::create_directories(ro.work_dir);

    Report rep;
    if (ro.workload == "compile") {
      run_compile(ro, rep);
    } else if (ro.workload == "serve_hot" || ro.workload == "serve_cold") {
      run_serve(ro, ro.workload == "serve_hot", rep);
    } else {
      std::fprintf(stderr, "vbsperf: unknown workload '%s'\n",
                   ro.workload.c_str());
      return 2;
    }
    rep.print();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbsperf: %s\n", e.what());
    return 1;
  }
}
