// FlowPipeline and artifact-I/O tests: per-stage artifact round trips,
// container corruption/version/fingerprint rejection, lazy stage execution
// and invalidation, and the bit-exact resume contract — checkpointing
// after any prefix and resuming must reproduce the uninterrupted flow's
// placements, routing trees, stats and final VBS bytes byte for byte
// across the 5-circuit perf suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>
#include <utility>

#include "flow/artifact_io.h"
#include "flow/flow.h"
#include "flow/pipeline.h"
#include "errc.h"
#include "hex.h"
#include "netlist/generator.h"
#include "netlist/mcnc.h"
#include "util/fault.h"
#include "util/io.h"
#include "vbs/encoder.h"

namespace vbs {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("vbs_pipeline_" + tag + "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

Netlist small_netlist(std::uint64_t seed = 11) {
  GenParams p;
  p.n_lut = 30;
  p.n_pi = 6;
  p.n_po = 6;
  p.seed = seed;
  return generate_netlist(p);
}

FlowOptions small_opts() {
  FlowOptions o;
  o.arch.chan_width = 8;
  o.seed = 5;
  return o;
}

void expect_identical_placement(const Placement& a, const Placement& b) {
  EXPECT_EQ(a.grid_w, b.grid_w);
  EXPECT_EQ(a.grid_h, b.grid_h);
  EXPECT_EQ(a.lut_loc, b.lut_loc);
  ASSERT_EQ(a.io_loc.size(), b.io_loc.size());
  for (std::size_t i = 0; i < a.io_loc.size(); ++i) {
    EXPECT_EQ(a.io_loc[i], b.io_loc[i]) << "I/O " << i;
  }
}

void expect_identical_routing(const RoutingResult& a, const RoutingResult& b) {
  ASSERT_EQ(a.success, b.success);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.heap_pops, b.heap_pops);
  EXPECT_EQ(a.bbox_retries, b.bbox_retries);
  EXPECT_EQ(a.total_wire_nodes, b.total_wire_nodes);
  EXPECT_EQ(a.overused_nodes, b.overused_nodes);
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t n = 0; n < a.routes.size(); ++n) {
    const auto& ra = a.routes[n].nodes;
    const auto& rb = b.routes[n].nodes;
    ASSERT_EQ(ra.size(), rb.size()) << "net " << n;
    for (std::size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k].rr, rb[k].rr) << "net " << n << " node " << k;
      EXPECT_EQ(ra[k].parent, rb[k].parent) << "net " << n << " node " << k;
      EXPECT_EQ(ra[k].fabric_edge, rb[k].fabric_edge)
          << "net " << n << " node " << k;
    }
  }
}

// --- artifact payload round trips -------------------------------------------

TEST(ArtifactIo, PackedRoundTripsByteExact) {
  const Netlist nl = small_netlist();
  ArchSpec spec;
  spec.chan_width = 8;
  const PackedDesign pd = pack_netlist(nl, spec);
  const BitVector bits = serialize_packed(pd);
  const PackedDesign back = deserialize_packed(bits);
  EXPECT_EQ(back.luts, pd.luts);
  EXPECT_EQ(back.ios, pd.ios);
  EXPECT_EQ(back.lut_pins, pd.lut_pins);
  EXPECT_EQ(serialize_packed(back), bits);  // byte equality both ways
}

TEST(ArtifactIo, PlacementRoundTripsByteExact) {
  const Netlist nl = small_netlist();
  ArchSpec spec;
  spec.chan_width = 8;
  const PackedDesign pd = pack_netlist(nl, spec);
  PlaceOptions popts;
  popts.seed = 5;
  PlaceStats stats;
  const Placement pl = place_design(nl, pd, spec, 7, 7, popts, &stats);
  const BitVector bits = serialize_placement(pl, stats);
  Placement back;
  PlaceStats back_stats;
  deserialize_placement(bits, &back, &back_stats);
  expect_identical_placement(back, pl);
  EXPECT_EQ(back_stats.initial_cost, stats.initial_cost);
  EXPECT_EQ(back_stats.final_cost, stats.final_cost);
  EXPECT_EQ(back_stats.moves, stats.moves);
  EXPECT_EQ(back_stats.accepted, stats.accepted);
  EXPECT_EQ(back_stats.temperatures, stats.temperatures);
  EXPECT_EQ(back_stats.cost_drift, stats.cost_drift);
  EXPECT_EQ(serialize_placement(back, back_stats), bits);
}

TEST(ArtifactIo, RoutingRoundTripsByteExact) {
  FlowResult r = run_flow(small_netlist(), 7, 7, small_opts());
  ASSERT_TRUE(r.routed());
  const BitVector bits = serialize_routing(r.routing);
  const RoutingResult back = deserialize_routing(bits);
  expect_identical_routing(back, r.routing);
  EXPECT_EQ(serialize_routing(back), bits);
}

// Pins one vbs.artifact.v1 container byte for byte (header, fingerprint,
// content hash, payload), so a hashing change that would orphan existing
// checkpoints fails here rather than only on disk.
TEST(ArtifactIo, ContainerBytesArePinned) {
  BitVector payload;
  payload.append_bits(0x5a5a5, 20);
  payload.append_bits(0x1f, 17);
  EXPECT_EQ(hex_of(artifact_container_bytes(ArtifactStage::kRoute,
                                            0x0123456789abcdefull, payload)),
            "5641523102efcdab89674523012ae25e897f7e6ff025000000000000005a5a50"
            "00f8");
}

// --- container rejection -----------------------------------------------------

TEST(ArtifactIo, FileRoundTripAndRejection) {
  TempDir dir("artifact");
  fs::create_directories(dir.path);
  const std::string path = dir.path + "/test.art";
  BitVector payload;
  payload.append_bits(0xdeadbeefcafe, 48);
  write_artifact_file(path, ArtifactStage::kPack, 42, payload);

  const std::uint64_t good_fp = 42;
  EXPECT_EQ(read_artifact_file(path, ArtifactStage::kPack, &good_fp), payload);

  const auto read_errc = [&](ArtifactStage stage, const std::uint64_t* fp) {
    return errc_of([&] { read_artifact_file(path, stage, fp); });
  };
  // Wrong expected stage tag.
  EXPECT_EQ(read_errc(ArtifactStage::kRoute, &good_fp),
            VbsErrc::kBadContainer);
  // Fingerprint mismatch (stale / foreign checkpoint).
  const std::uint64_t bad_fp = 43;
  EXPECT_EQ(read_errc(ArtifactStage::kPack, &bad_fp), VbsErrc::kBadContainer);

  const auto read_bytes = [&] {
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  const auto write_bytes = [&](const std::string& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const std::string original = read_bytes();

  // Version/magic mismatch: a future "VAR2" file must be rejected.
  std::string bad = original;
  bad[3] = '2';
  write_bytes(bad);
  EXPECT_EQ(read_errc(ArtifactStage::kPack, &good_fp), VbsErrc::kBadContainer);

  // Corrupted payload: content hash catches a flipped byte.
  bad = original;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x40);
  write_bytes(bad);
  EXPECT_EQ(read_errc(ArtifactStage::kPack, &good_fp), VbsErrc::kBadContainer);

  // Truncated payload and truncated header.
  write_bytes(original.substr(0, original.size() - 2));
  EXPECT_EQ(read_errc(ArtifactStage::kPack, &good_fp), VbsErrc::kBadContainer);
  write_bytes(original.substr(0, 10));
  EXPECT_EQ(read_errc(ArtifactStage::kPack, &good_fp), VbsErrc::kTruncated);
}

// Systematic single-bit corruption of the whole vbs.artifact.v1 header
// (magic, stage, fingerprint, content hash, bit count — 29 bytes): every
// one of the 232 possible flips must be rejected as kBadContainer.
// No header bit is slack; none silently decodes to garbage.
TEST(ArtifactIo, EveryHeaderBitFlipIsRejected) {
  TempDir dir("artifact_flip");
  fs::create_directories(dir.path);
  const std::string path = dir.path + "/flip.art";
  BitVector payload;
  payload.append_bits(0xdeadbeefcafe, 48);
  payload.append_bits(0x123456789, 33);  // odd length: padding in play
  write_artifact_file(path, ArtifactStage::kPack, 42, payload);
  const std::uint64_t good_fp = 42;
  ASSERT_EQ(read_artifact_file(path, ArtifactStage::kPack, &good_fp), payload);

  std::string original;
  {
    std::ifstream is(path, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(is), {});
  }
  constexpr std::size_t kHeaderBytes = 29;
  ASSERT_GT(original.size(), kHeaderBytes);
  for (std::size_t byte = 0; byte < kHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = original;
      bad[byte] = static_cast<char>(bad[byte] ^ (1u << bit));
      {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bad.data(), static_cast<std::streamsize>(bad.size()));
      }
      EXPECT_EQ(errc_of([&] {
                  read_artifact_file(path, ArtifactStage::kPack, &good_fp);
                }),
                VbsErrc::kBadContainer)
          << "header byte " << byte << " bit " << bit;
    }
  }
}

// --- pipeline semantics ------------------------------------------------------

TEST(Pipeline, StagesRunLazilyAndObserversReport) {
  FlowPipeline pipe(small_netlist(), 7, 7, small_opts());
  std::vector<Stage> seen;
  pipe.add_observer([&](const FlowPipeline&, const StageReport& r) {
    seen.push_back(r.stage);
  });
  EXPECT_FALSE(pipe.completed(Stage::kPack));
  pipe.run_to(Stage::kPlace);
  EXPECT_TRUE(pipe.completed(Stage::kPack));
  EXPECT_TRUE(pipe.completed(Stage::kPlace));
  EXPECT_FALSE(pipe.completed(Stage::kRoute));
  // Accessors run their producing stage on demand.
  EXPECT_TRUE(pipe.routing().success);
  EXPECT_TRUE(pipe.completed(Stage::kRoute));
  EXPECT_GT(pipe.vbs_stream().size(), 0u);
  EXPECT_TRUE(pipe.completed(Stage::kEncode));
  EXPECT_EQ(seen, (std::vector<Stage>{Stage::kPack, Stage::kPlace,
                                      Stage::kRoute, Stage::kEncode}));
}

TEST(Pipeline, RerunFromInvalidatesOnlyDownstream) {
  FlowPipeline pipe(small_netlist(), 7, 7, small_opts());
  pipe.run_to(Stage::kEncode);
  const Placement before_place = pipe.placement();
  const RoutingResult before_route = pipe.routing();
  const BitVector before_stream = pipe.vbs_stream();

  int place_runs = 0, route_runs = 0;
  pipe.add_observer([&](const FlowPipeline&, const StageReport& r) {
    place_runs += r.stage == Stage::kPlace;
    route_runs += r.stage == Stage::kRoute;
    EXPECT_TRUE(r.rerun);  // everything ran once already
  });
  pipe.rerun_from(Stage::kRoute);
  EXPECT_EQ(place_runs, 0) << "upstream placement must stay frozen";
  EXPECT_EQ(route_runs, 1);
  EXPECT_TRUE(pipe.completed(Stage::kEncode)) << "encode had run: rerun too";
  // Deterministic engines: the rerun reproduces the first run exactly.
  expect_identical_placement(pipe.placement(), before_place);
  expect_identical_routing(pipe.routing(), before_route);
  EXPECT_EQ(pipe.vbs_stream(), before_stream);
}

TEST(Pipeline, MatchesRunFlow) {
  const Netlist nl = small_netlist();
  const FlowOptions opts = small_opts();
  FlowResult direct = run_flow(nl, 7, 7, opts);
  ASSERT_TRUE(direct.routed());
  FlowPipeline pipe(nl, 7, 7, opts);
  expect_identical_placement(pipe.placement(), direct.placement);
  expect_identical_routing(pipe.routing(), direct.routing);
  // And the legacy conversion gives back the same shape.
  FlowResult converted = std::move(pipe).take_flow_result();
  expect_identical_routing(converted.routing, direct.routing);
  ASSERT_NE(converted.fabric, nullptr);
  EXPECT_EQ(converted.fabric->width(), 7);
}

TEST(Pipeline, EncodeThrowsOnUnroutedDesign) {
  GenParams p;
  p.n_lut = 90;
  p.n_pi = 8;
  p.n_po = 8;
  p.seed = 3;
  FlowOptions o;
  o.arch.chan_width = 3;  // far below feasible
  o.route.max_iterations = 5;
  FlowPipeline pipe(generate_netlist(p), 10, 10, o);
  pipe.run_to(Stage::kRoute);
  EXPECT_FALSE(pipe.routing().success);
  EXPECT_THROW(pipe.run_to(Stage::kEncode), std::runtime_error);
}

// --- checkpoint / resume -----------------------------------------------------

TEST(Pipeline, ResumeRejectsForeignArtifacts) {
  TempDir dir_a("ckpt_a");
  TempDir dir_b("ckpt_b");
  FlowOptions opts_a = small_opts();
  FlowOptions opts_b = small_opts();
  opts_b.seed = opts_a.seed + 1;  // different placement seed
  FlowPipeline a(small_netlist(), 7, 7, opts_a);
  a.run_to(Stage::kPlace);
  a.save_checkpoint(dir_a.path);
  FlowPipeline b(small_netlist(), 7, 7, opts_b);
  b.run_to(Stage::kPlace);
  b.save_checkpoint(dir_b.path);

  // A clean resume works...
  EXPECT_TRUE(FlowPipeline::resume_from(dir_a.path).completed(Stage::kPlace));
  // ...but a place artifact produced under another seed is rejected by its
  // fingerprint, even though the file itself is intact.
  fs::copy_file(fs::path(dir_b.path) / "place.art",
                fs::path(dir_a.path) / "place.art",
                fs::copy_options::overwrite_existing);
  EXPECT_EQ(errc_of([&] { FlowPipeline::resume_from(dir_a.path); }),
            VbsErrc::kBadContainer);
}

// Route checkpoints of the router that aimed with Manhattan distance alone
// must not resume under the lookahead router, whatever astar_fac their
// flow.meta names. These are the route fingerprints that router wrote for
// this design: at its default astar_fac 1.5, and with 1.0 (the lookahead
// router's default) given explicitly. Re-stamping this run's route.art
// with them stands in for such a checkpoint.
TEST(Pipeline, ResumeRejectsManhattanRoutedCheckpoints) {
  const std::pair<double, std::uint64_t> manhattan[] = {
      {1.5, 0x63ffe89519acc1a7ull}, {1.0, 0x9e24f8008f74d5dfull}};
  for (const auto& [astar_fac, fingerprint] : manhattan) {
    SCOPED_TRACE(astar_fac);
    TempDir dir("ckpt_manhattan");
    FlowOptions o = small_opts();
    o.route.astar_fac = astar_fac;
    FlowPipeline pipe(small_netlist(), 7, 7, o);
    pipe.run_to(Stage::kRoute);
    pipe.save_checkpoint(dir.path, Stage::kRoute);
    EXPECT_TRUE(FlowPipeline::resume_from(dir.path).completed(Stage::kRoute));

    const std::string route = (fs::path(dir.path) / "route.art").string();
    std::uint64_t written = 0;
    const BitVector payload =
        read_artifact_file(route, ArtifactStage::kRoute, nullptr, &written);
    EXPECT_NE(written, fingerprint);
    write_artifact_file(route, ArtifactStage::kRoute, fingerprint, payload);
    EXPECT_EQ(errc_of([&] { FlowPipeline::resume_from(dir.path); }),
            VbsErrc::kBadContainer);
  }
}

TEST(Pipeline, SaveDropsStaleDownstreamArtifacts) {
  TempDir dir("ckpt_stale");
  FlowPipeline pipe(small_netlist(), 7, 7, small_opts());
  pipe.run_to(Stage::kEncode);
  pipe.save_checkpoint(dir.path);
  EXPECT_TRUE(fs::exists(fs::path(dir.path) / "route.art"));
  // Saving only the pack+place prefix must remove the deeper artifacts, so
  // a reused directory never mixes checkpoint generations.
  pipe.save_checkpoint(dir.path, Stage::kPlace);
  EXPECT_TRUE(fs::exists(fs::path(dir.path) / "place.art"));
  EXPECT_FALSE(fs::exists(fs::path(dir.path) / "route.art"));
  EXPECT_FALSE(fs::exists(fs::path(dir.path) / "encode.art"));
  FlowPipeline re = FlowPipeline::resume_from(dir.path);
  EXPECT_TRUE(re.completed(Stage::kPlace));
  EXPECT_FALSE(re.completed(Stage::kRoute));
}

bool has_tmp_files(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") return true;
  }
  return false;
}

// flow.meta keeps four slots of the retired parallel engines (a flow, a
// placer and a router thread count, and a router batch size). Resume reads
// and ignores them: a checkpoint whose slots hold INT32_MAX must resume to
// the same artifacts as an unpatched one, not size a thread pool from them.
TEST(Pipeline, ResumeIgnoresRetiredThreadSlots) {
  TempDir clean("meta_clean");
  TempDir patched("meta_patched");
  FlowPipeline pipe(small_netlist(), 7, 7, small_opts());
  pipe.run_to(Stage::kPack);
  pipe.save_checkpoint(clean.path);
  pipe.save_checkpoint(patched.path);

  // Bit offsets of the retired slots in the flow.meta payload: the flow
  // thread count, the placer's incremental-bbox bit and thread count; the
  // router's negotiation schedule (first-
  // iteration, initial and growth present-congestion factors, history
  // factor), stall restarts, bounding-box margin, thread count and batch
  // size; the encoder's reorder attempts and shuffle seed, its retired
  // fan-out coding flag and size fallback flag. Each is patched from the
  // value a default run writes to one no run ever used.
  const std::string meta = (fs::path(patched.path) / "flow.meta").string();
  std::uint64_t fingerprint = 0;
  BitVector payload =
      read_artifact_file(meta, ArtifactStage::kMeta, nullptr, &fingerprint);
  const auto f64 = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const struct {
    std::size_t pos;
    unsigned bits;
    std::uint64_t written, patched;
  } slots[] = {
      {200, 32, 1, 0x7fffffff},           {392, 1, 1, 0},
      {393, 32, 0, 0x7fffffff},
      {457, 64, f64(0.0), f64(7.5)},      {521, 64, f64(0.5), f64(7.5)},
      {585, 64, f64(1.8), f64(7.5)},      {649, 64, f64(1.0), f64(7.5)},
      {809, 32, 0, 0x7fffffff},           {842, 32, 3, 0x7fffffff},
      {875, 32, 0, 0x7fffffff},           {907, 32, 1, 0x7fffffff},
      {971, 32, 24, 0x7fffffff},          {1003, 64, 0x5eed, ~0ull},
      {1099, 1, 0, 1},                    {1102, 1, 1, 0},
  };
  for (const auto& s : slots) {
    EXPECT_EQ(payload.get_bits(s.pos, s.bits), s.written)
        << "slot at bit " << s.pos;
    BitVector v;
    v.append_bits(s.patched, s.bits);
    payload.overwrite(s.pos, v);
  }
  write_artifact_file(meta, ArtifactStage::kMeta, fingerprint, payload);

  for (const std::string* dir : {&clean.path, &patched.path}) {
    FlowPipeline re = FlowPipeline::resume_from(*dir);
    re.run_to(Stage::kRoute);
    ASSERT_TRUE(re.routing().success);
    re.save_checkpoint(*dir, Stage::kRoute);
  }
  const auto read_bytes = [](const std::string& dir, const char* file) {
    std::ifstream is(fs::path(dir) / file, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  for (const char* file : {"pack.art", "place.art", "route.art"}) {
    const std::string want = read_bytes(clean.path, file);
    ASSERT_FALSE(want.empty()) << file;
    EXPECT_EQ(read_bytes(patched.path, file), want) << file;
  }
}

// The placer's effort is outside input on resume: flow.meta's effort slot
// (bit 296) holding a value place_design refuses must fail as a bad
// container, not reach the annealer's moves-per-temperature cast.
TEST(Pipeline, ResumeRejectsBadPlacerEffort) {
  TempDir dir("meta_effort");
  FlowPipeline pipe(small_netlist(), 7, 7, small_opts());
  pipe.run_to(Stage::kPack);
  pipe.save_checkpoint(dir.path);
  const std::string meta = (fs::path(dir.path) / "flow.meta").string();
  std::uint64_t fingerprint = 0;
  const BitVector clean =
      read_artifact_file(meta, ArtifactStage::kMeta, nullptr, &fingerprint);
  ASSERT_EQ(clean.get_bits(296, 64), std::bit_cast<std::uint64_t>(1.0));
  for (const double effort : {std::nan(""), HUGE_VAL, -1.0, 0.0}) {
    SCOPED_TRACE(effort);
    BitVector payload = clean;
    BitVector v;
    v.append_bits(std::bit_cast<std::uint64_t>(effort), 64);
    payload.overwrite(296, v);
    // Re-wrapped under the netlist-hash fingerprint: the container is
    // sound, only the value is wrong.
    write_artifact_file(meta, ArtifactStage::kMeta, fingerprint, payload);
    EXPECT_EQ(errc_of([&] { FlowPipeline::resume_from(dir.path); }),
              VbsErrc::kBadContainer);
  }
}

TEST(Pipeline, CheckpointSurvivesCrashAtEveryIoSite) {
  TempDir dir("ckpt_crash");
  FlowPipeline pipe(small_netlist(), 7, 7, small_opts());
  pipe.run_to(Stage::kPlace);
  pipe.save_checkpoint(dir.path);  // the old generation on disk
  pipe.run_to(Stage::kEncode);

  // Kill the deeper re-save at its Nth I/O operation, for every N. After
  // each kill the directory must still resume — to at least the old
  // generation's prefix (atomic replacement: a half-written artifact is
  // never visible under its final name) — and resume sweeps the orphaned
  // "*.tmp" the crash left behind.
  long long kills = 0;
  for (long long n = 0;; ++n) {
    const FaultPlan plan = FaultPlan::parse("crash=" + std::to_string(n));
    IoFaultInjector inj(&plan);
    bool crashed = false;
    try {
      ScopedIoFaults scope(&inj);
      pipe.save_checkpoint(dir.path);
    } catch (const CrashInjected&) {
      crashed = true;
      ++kills;
    }
    if (!crashed) break;  // past the last I/O op: the save completed
    FlowPipeline re = FlowPipeline::resume_from(dir.path);
    EXPECT_TRUE(re.completed(Stage::kPlace)) << "killed at io op " << n;
    EXPECT_FALSE(has_tmp_files(dir.path)) << "killed at io op " << n;
  }
  EXPECT_GT(kills, 3);  // the save really has several distinct crash sites
  FlowPipeline re = FlowPipeline::resume_from(dir.path);
  EXPECT_TRUE(re.completed(Stage::kEncode));
  EXPECT_EQ(re.vbs_stream(), pipe.vbs_stream());
  // The size breakdown is not stored; the resume recounts it.
  EXPECT_EQ(re.encode_stats().size.list, pipe.encode_stats().size.list);
  EXPECT_EQ(re.encode_stats().size.total(), re.encode_stats().vbs_bits);
}

// The acceptance bar of the redesign: for every circuit of the perf suite,
// checkpointing after pack/place/route and resuming produces placements,
// routing trees, stats and final VBS bytes identical to the uninterrupted
// run — pipeline vs run_flow, and rerun_from(route) on a loaded placement
// matches the full flow's routing byte for byte.
TEST(Pipeline, ResumeIsBitExactAcrossSuite) {
  std::vector<McncCircuit> cs = mcnc20();
  std::sort(cs.begin(), cs.end(),
            [](const McncCircuit& a, const McncCircuit& b) {
              return a.lbs < b.lbs;
            });
  cs.resize(5);
  for (const McncCircuit& c : cs) {
    SCOPED_TRACE(c.name);
    const Netlist nl = make_mcnc_like(c, 1);
    FlowOptions opts;
    opts.arch.chan_width = 20;
    opts.seed = 1;
    opts.place.effort = 0.25;  // resume identity is under test, not quality
    FlowResult direct = run_flow(nl, c.size, c.size, opts);
    ASSERT_TRUE(direct.routed());

    TempDir dir("suite_" + c.name);
    // Stage by stage with a save/resume round trip at every boundary: the
    // remainder after each resume must reproduce the direct run.
    FlowPipeline p0(nl, c.size, c.size, opts);
    p0.run_to(Stage::kPack);
    p0.save_checkpoint(dir.path);

    FlowPipeline p1 = FlowPipeline::resume_from(dir.path);
    EXPECT_TRUE(p1.completed(Stage::kPack));
    EXPECT_FALSE(p1.completed(Stage::kPlace));
    p1.run_to(Stage::kPlace);
    expect_identical_placement(p1.placement(), direct.placement);
    const PlaceStats run_stats = p1.place_stats();
    p1.save_checkpoint(dir.path);

    FlowPipeline p2 = FlowPipeline::resume_from(dir.path);
    EXPECT_TRUE(p2.completed(Stage::kPlace));
    // rerun_from(route) on the loaded, frozen placement == full flow.
    p2.rerun_from(Stage::kRoute);
    expect_identical_routing(p2.routing(), direct.routing);
    p2.save_checkpoint(dir.path);

    FlowPipeline p3 = FlowPipeline::resume_from(dir.path);
    EXPECT_TRUE(p3.completed(Stage::kRoute));
    expect_identical_placement(p3.placement(), direct.placement);
    expect_identical_routing(p3.routing(), direct.routing);
    EXPECT_GT(p3.vbs_stream().size(), 0u);
    // The deterministic place stats survive the checkpoint chain.
    EXPECT_EQ(p3.place_stats().moves, run_stats.moves);
    EXPECT_EQ(p3.place_stats().accepted, run_stats.accepted);
    EXPECT_EQ(p3.place_stats().final_cost, run_stats.final_cost);
    EXPECT_EQ(p3.place_stats().cost_drift, run_stats.cost_drift);
  }
}

}  // namespace
}  // namespace vbs
