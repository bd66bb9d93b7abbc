#include "flow/pipeline.h"

#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "flow/artifact_io.h"
#include "netlist/netlist_io.h"
#include "route/route_request.h"
#include "util/bitio.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "vbs/encoder.h"
#include "vbs/vbs_file.h"

namespace vbs {

using namespace artio;  // the artifact format's field primitives

namespace {

constexpr const char* kStageNames[kNumStages] = {"pack", "place", "route",
                                                 "encode"};
constexpr const char* kNetlistFile = "netlist.netl";
constexpr const char* kMetaFile = "flow.meta";
constexpr const char* kArtifactFiles[kNumStages] = {"pack.art", "place.art",
                                                    "route.art", "encode.art"};

std::string join(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

std::uint64_t hash_bool(std::uint64_t h, bool v) {
  return hash_u64(h, v ? 1 : 0);
}

// Retired flow.meta slots and route/encode fingerprint terms: router and
// encoder settings that were options once. Those that are constants now
// are written and folded from the live constants (router.h, encoder.h),
// so changing one moves flow.meta and the stage fingerprint, and
// checkpoints made under the old value no longer resume. The rest hold the
// value a default run wrote, in their old order: the stall restarts, and
// the encoder's retired fan-out coding (false) and size fallback (true).
constexpr double kNegotiation[4] = {kFirstIterPres, kInitialPres, kPresMult,
                                    kHistFac};
constexpr int kRetiredStallRestarts = 0;
constexpr bool kRetiredCompactFanout = false;
constexpr bool kRetiredSizeFallback = true;

}  // namespace

const char* stage_name(Stage s) { return kStageNames[static_cast<int>(s)]; }

FlowPipeline::FlowPipeline(Netlist nl, int grid_w, int grid_h,
                           FlowOptions opts, EncodeOptions encode_opts)
    : nl_(std::move(nl)),
      grid_w_(grid_w),
      grid_h_(grid_h),
      opts_(std::move(opts)),
      encode_opts_(encode_opts) {}

std::uint64_t FlowPipeline::netlist_hash() const {
  if (!netlist_hash_) {
    const std::string text = netlist_to_string(nl_);
    netlist_hash_ = fnv1a64(text.data(), text.size());
  }
  return *netlist_hash_;
}

PlaceOptions FlowPipeline::resolved_place_options() const {
  PlaceOptions popts = opts_.place;
  if (popts.seed == 0) popts.seed = opts_.seed;  // 0 = inherit the flow seed
  return popts;
}

std::uint64_t FlowPipeline::base_fingerprint() const {
  std::uint64_t h = netlist_hash();
  h = hash_u64(h, static_cast<std::uint64_t>(grid_w_));
  h = hash_u64(h, static_cast<std::uint64_t>(grid_h_));
  h = hash_u64(h, static_cast<std::uint64_t>(opts_.arch.chan_width));
  h = hash_u64(h, static_cast<std::uint64_t>(opts_.arch.lut_k));
  h = hash_u64(h, static_cast<std::uint64_t>(opts_.arch.sb_pattern));
  return h;
}

std::uint64_t FlowPipeline::stage_fingerprint(Stage s) const {
  // Chain: every stage's fingerprint covers its own result-relevant
  // options plus everything upstream.
  std::uint64_t h = hash_u64(base_fingerprint(), static_cast<std::uint64_t>(s));
  if (s == Stage::kPack) return h;
  h = hash_u64(h, stage_fingerprint(Stage::kPack));
  if (s == Stage::kPlace) {
    const PlaceOptions p = resolved_place_options();
    h = hash_u64(h, p.seed);
    h = hash_double(h, p.effort);
    h = hash_u64(h, static_cast<std::uint64_t>(p.io_per_tile));
    // Never folded: the retired incremental-bbox bit, whose two settings
    // placed identically.
    return h;
  }
  h = hash_u64(h, stage_fingerprint(Stage::kPlace));
  if (s == Stage::kRoute) {
    const RouterOptions& r = opts_.route;
    h = hash_u64(h, kRouterHeuristicTag);
    h = hash_u64(h, static_cast<std::uint64_t>(r.max_iterations));
    for (const double v : kNegotiation) h = hash_double(h, v);
    h = hash_double(h, r.astar_fac);
    h = hash_u64(h, static_cast<std::uint64_t>(r.stall_abort));
    h = hash_u64(h, static_cast<std::uint64_t>(kRetiredStallRestarts));
    h = hash_bool(h, r.bounded_box);
    h = hash_u64(h, static_cast<std::uint64_t>(kBbMargin));
    h = hash_bool(h, r.incremental_reroute);
    return h;
  }
  h = hash_u64(h, stage_fingerprint(Stage::kRoute));
  const EncodeOptions& e = encode_opts_;
  h = hash_u64(h, static_cast<std::uint64_t>(e.cluster));
  h = hash_u64(h, static_cast<std::uint64_t>(kReorderAttempts));
  h = hash_u64(h, kReorderSeed);
  h = hash_u64(h, static_cast<std::uint64_t>(e.decode_iterations));
  h = hash_bool(h, kRetiredCompactFanout);
  h = hash_bool(h, e.force_raw);
  h = hash_bool(h, e.no_reorder);
  h = hash_bool(h, kRetiredSizeFallback);
  // The stream coding the encoder writes: an encode checkpointed under
  // another version no longer matches, so resume rejects it, not reuses it.
  h = hash_u64(h, kVbsVersion);
  return h;
}

void FlowPipeline::run_to(Stage s) {
  for (int i = 0; i <= static_cast<int>(s); ++i) {
    if (!done_[i]) run_stage(static_cast<Stage>(i));
  }
}

void FlowPipeline::invalidate_from(Stage s) {
  for (int i = static_cast<int>(s); i < kNumStages; ++i) done_[i] = false;
  // The fabric/request pair is derived from the placement; invalidating
  // pack or place must rebuild it (a route-only rerun reuses it).
  if (s < Stage::kRoute) {
    fabric_.reset();
    request_built_ = false;
  }
}

void FlowPipeline::rerun_from(Stage s) {
  int top = static_cast<int>(s);
  for (int i = 0; i < kNumStages; ++i) {
    if (done_[i]) top = std::max(top, i);
  }
  invalidate_from(s);
  run_to(static_cast<Stage>(top));
}

void FlowPipeline::set_encode_options(const EncodeOptions& eopts) {
  encode_opts_ = eopts;
  invalidate_from(Stage::kEncode);
}

void FlowPipeline::ensure_fabric() {
  if (fabric_ == nullptr) {
    fabric_ = std::make_unique<Fabric>(opts_.arch, grid_w_, grid_h_);
    request_built_ = false;
  }
  if (!request_built_) {
    request_ = build_route_request(*fabric_, nl_, packed_, placement_);
    request_built_ = true;
  }
}

void FlowPipeline::run_stage(Stage s) {
  telem::Span span("flow", kStageNames[static_cast<int>(s)]);
  const std::uint64_t t0 = telem::now_ns();
  switch (s) {
    case Stage::kPack:
      packed_ = pack_netlist(nl_, opts_.arch);
      break;
    case Stage::kPlace: {
      log_info("placing " + nl_.name + " (" +
               std::to_string(packed_.num_luts()) + " LBs on " +
               std::to_string(grid_w_) + "x" + std::to_string(grid_h_) + ")");
      place_stats_ = {};
      placement_ = place_design(nl_, packed_, opts_.arch, grid_w_, grid_h_,
                                resolved_place_options(), &place_stats_);
      break;
    }
    case Stage::kRoute: {
      ensure_fabric();
      log_info("routing " + nl_.name + " at W=" +
               std::to_string(opts_.arch.chan_width));
      PathfinderRouter router(*fabric_, request_);
      routing_ = router.route(opts_.route);
      log_info("routing " +
               std::string(routing_.success ? "converged" : "FAILED") +
               " after " + std::to_string(routing_.iterations) +
               " iterations");
      break;
    }
    case Stage::kEncode: {
      if (!routing_.success) {
        throw std::runtime_error(
            "flow pipeline: cannot encode an unrouted design (routing "
            "failed)");
      }
      ensure_fabric();
      encode_stats_ = {};
      image_ = encode_vbs(*fabric_, nl_, packed_, placement_, routing_.routes,
                          encode_opts_, &encode_stats_);
      stream_ = serialize_vbs(image_);
      break;
    }
  }
  done_[static_cast<int>(s)] = true;
  StageReport report;
  report.stage = s;
  report.seconds = telem::seconds_since(t0);
  report.rerun = ran_before_[static_cast<int>(s)];
  ran_before_[static_cast<int>(s)] = true;
  span.arg("circuit", nl_.name.c_str()).arg("rerun", (long long)report.rerun);
  telem::counter_add("flow.stage.runs");
  telem::histogram_record("flow.stage.seconds", report.seconds);
  for (const Observer& cb : observers_) cb(*this, report);
}

const PackedDesign& FlowPipeline::packed() {
  run_to(Stage::kPack);
  return packed_;
}

const Placement& FlowPipeline::placement() {
  run_to(Stage::kPlace);
  return placement_;
}

const PlaceStats& FlowPipeline::place_stats() {
  run_to(Stage::kPlace);
  return place_stats_;
}

const Fabric& FlowPipeline::fabric() {
  run_to(Stage::kPlace);
  ensure_fabric();
  return *fabric_;
}

const RouteRequest& FlowPipeline::route_request() {
  run_to(Stage::kPlace);
  ensure_fabric();
  return request_;
}

const RoutingResult& FlowPipeline::routing() {
  run_to(Stage::kRoute);
  return routing_;
}

const VbsImage& FlowPipeline::vbs_image() {
  run_to(Stage::kEncode);
  return image_;
}

const BitVector& FlowPipeline::vbs_stream() {
  run_to(Stage::kEncode);
  return stream_;
}

const EncodeStats& FlowPipeline::encode_stats() {
  run_to(Stage::kEncode);
  return encode_stats_;
}

BitVector FlowPipeline::serialize_meta() const {
  // The "retired" slots belonged to removed options: the parallel engines'
  // thread counts, the placer's incremental-bbox switch, and the router and
  // encoder settings named above kNegotiation. A default run's bytes are
  // unchanged; parse_meta reads and ignores them.
  BitWriter w;
  put_i32(w, grid_w_);
  put_i32(w, grid_h_);
  put_i32(w, opts_.arch.chan_width);
  put_i32(w, opts_.arch.lut_k);
  w.write(static_cast<std::uint64_t>(opts_.arch.sb_pattern), 8);
  w.write(opts_.seed, 64);
  put_i32(w, 1);  // retired: flow thread count
  w.write(opts_.place.seed, 64);
  put_f64(w, opts_.place.effort);
  put_i32(w, opts_.place.io_per_tile);
  w.write_bit(true);  // retired: placer incremental_bbox
  put_i32(w, 0);  // retired: placer thread count
  put_i32(w, opts_.route.max_iterations);
  for (const double v : kNegotiation) put_f64(w, v);
  put_f64(w, opts_.route.astar_fac);
  put_i32(w, opts_.route.stall_abort);
  put_i32(w, kRetiredStallRestarts);
  w.write_bit(opts_.route.bounded_box);
  put_i32(w, kBbMargin);
  w.write_bit(opts_.route.incremental_reroute);
  put_i32(w, 0);  // retired: router thread count
  put_i32(w, 1);  // retired: router batch size
  put_i32(w, encode_opts_.cluster);
  put_i32(w, kReorderAttempts);
  w.write(kReorderSeed, 64);
  put_i32(w, encode_opts_.decode_iterations);
  w.write_bit(kRetiredCompactFanout);
  w.write_bit(encode_opts_.force_raw);
  w.write_bit(encode_opts_.no_reorder);
  w.write_bit(kRetiredSizeFallback);
  return w.take();
}

namespace {

struct MetaContents {
  int grid_w = 0, grid_h = 0;
  FlowOptions opts;
  EncodeOptions eopts;
};

MetaContents parse_meta(const BitVector& bits) {
  BitReader r(bits);
  MetaContents m;
  m.grid_w = get_i32(r);
  m.grid_h = get_i32(r);
  m.opts.arch.chan_width = get_i32(r);
  m.opts.arch.lut_k = get_i32(r);
  const auto sb = r.read(8);
  if (sb > 1) bad_artifact("flow.meta: bad sb_pattern");
  m.opts.arch.sb_pattern = static_cast<SbPattern>(sb);
  m.opts.seed = r.read(64);
  get_i32(r);  // retired: flow thread count
  m.opts.place.seed = r.read(64);
  m.opts.place.effort = get_f64(r);
  if (!std::isfinite(m.opts.place.effort) || m.opts.place.effort <= 0) {
    bad_artifact("flow.meta: bad placer effort");
  }
  m.opts.place.io_per_tile = get_i32(r);
  r.read_bit();  // retired: placer incremental_bbox
  get_i32(r);  // retired: placer thread count
  m.opts.route.max_iterations = get_i32(r);
  for (int i = 0; i < 4; ++i) get_f64(r);  // retired: negotiation schedule
  m.opts.route.astar_fac = get_f64(r);
  m.opts.route.stall_abort = get_i32(r);
  get_i32(r);  // retired: stall restarts
  m.opts.route.bounded_box = r.read_bit();
  get_i32(r);  // retired: bounding-box margin
  m.opts.route.incremental_reroute = r.read_bit();
  get_i32(r);  // retired: router thread count
  get_i32(r);  // retired: router batch size
  m.eopts.cluster = get_i32(r);
  get_i32(r);  // retired: encoder reorder attempts
  r.read(64);  // retired: encoder shuffle seed
  m.eopts.decode_iterations = get_i32(r);
  r.read_bit();  // retired: fan-out coding
  m.eopts.force_raw = r.read_bit();
  m.eopts.no_reorder = r.read_bit();
  r.read_bit();  // retired: size fallback
  if (!r.at_end()) bad_artifact("flow.meta: trailing bits");
  return m;
}

}  // namespace

void FlowPipeline::save_checkpoint(const std::string& dir, Stage up_to) const {
  std::filesystem::create_directories(dir);
  write_netlist_file(join(dir, kNetlistFile), nl_);
  write_artifact_file(join(dir, kMetaFile), ArtifactStage::kMeta,
                      netlist_hash(), serialize_meta());
  for (int i = 0; i < kNumStages; ++i) {
    const Stage s = static_cast<Stage>(i);
    const std::string path = join(dir, kArtifactFiles[i]);
    if (!done_[i] || s > up_to) {
      // Drop stale files so a reused directory never mixes checkpoint
      // generations (resume stops at the first missing stage). Injectable
      // remove: the crash sweep counts this as an I/O site too.
      checked_remove(path, current_io_faults());
      continue;
    }
    BitVector payload;
    switch (s) {
      case Stage::kPack:
        payload = serialize_packed(packed_);
        break;
      case Stage::kPlace:
        payload = serialize_placement(placement_, place_stats_);
        break;
      case Stage::kRoute:
        payload = serialize_routing(routing_);
        break;
      case Stage::kEncode: {
        BitWriter w;
        w.write(stream_.size(), 64);
        w.write_vector(stream_);
        put_i32(w, encode_stats_.entries);
        put_i32(w, encode_stats_.raw_entries);
        put_i32(w, encode_stats_.conflict_fallbacks);
        put_i32(w, encode_stats_.size_fallbacks);
        put_i32(w, encode_stats_.overflow_fallbacks);
        put_i32(w, encode_stats_.reordered_entries);
        put_i64(w, encode_stats_.connections);
        w.write(encode_stats_.vbs_bits, 64);
        w.write(encode_stats_.raw_bits, 64);
        payload = w.take();
        break;
      }
    }
    write_artifact_file(path, static_cast<ArtifactStage>(i),
                        stage_fingerprint(s), payload);
  }
}

FlowPipeline FlowPipeline::resume_from(const std::string& dir) {
  // A crash mid-save (or mid-AtomicFile-commit) can orphan "*.tmp" files;
  // they are not part of any checkpoint generation — ignore and clean them.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tmp") {
      std::filesystem::remove(entry.path());
    }
  }
  Netlist nl = read_netlist_file(join(dir, kNetlistFile));
  const std::string text = netlist_to_string(nl);
  const std::uint64_t expected_meta = fnv1a64(text.data(), text.size());
  const BitVector meta_bits = read_artifact_file(
      join(dir, kMetaFile), ArtifactStage::kMeta, &expected_meta);
  const MetaContents meta = parse_meta(meta_bits);
  FlowPipeline pipe(std::move(nl), meta.grid_w, meta.grid_h, meta.opts,
                    meta.eopts);
  pipe.netlist_hash_ = expected_meta;  // just computed above
  for (int i = 0; i < kNumStages; ++i) {
    const Stage s = static_cast<Stage>(i);
    const std::string path = join(dir, kArtifactFiles[i]);
    if (!std::filesystem::exists(path)) break;
    const std::uint64_t expected = pipe.stage_fingerprint(s);
    const BitVector payload =
        read_artifact_file(path, static_cast<ArtifactStage>(i), &expected);
    switch (s) {
      case Stage::kPack:
        pipe.packed_ = deserialize_packed(payload);
        break;
      case Stage::kPlace:
        deserialize_placement(payload, &pipe.placement_, &pipe.place_stats_);
        break;
      case Stage::kRoute:
        pipe.routing_ = deserialize_routing(payload);
        break;
      case Stage::kEncode: {
        BitReader r(payload);
        const std::uint64_t nbits = r.read(64);
        pipe.stream_ = r.read_vector(static_cast<std::size_t>(nbits));
        pipe.encode_stats_ = {};
        pipe.encode_stats_.entries = get_i32(r);
        pipe.encode_stats_.raw_entries = get_i32(r);
        pipe.encode_stats_.conflict_fallbacks = get_i32(r);
        pipe.encode_stats_.size_fallbacks = get_i32(r);
        pipe.encode_stats_.overflow_fallbacks = get_i32(r);
        pipe.encode_stats_.reordered_entries = get_i32(r);
        pipe.encode_stats_.connections = get_i64(r);
        pipe.encode_stats_.vbs_bits = static_cast<std::size_t>(r.read(64));
        pipe.encode_stats_.raw_bits = static_cast<std::size_t>(r.read(64));
        if (!r.at_end()) bad_artifact("encode artifact: trailing bits");
        pipe.image_ = deserialize_vbs(pipe.stream_);
        pipe.encode_stats_.size = vbs_size(pipe.image_);
        break;
      }
    }
    pipe.done_[i] = true;
    pipe.ran_before_[i] = true;
  }
  return pipe;
}

FlowResult FlowPipeline::take_flow_result() && {
  run_to(Stage::kRoute);
  ensure_fabric();  // FlowResult carries the fabric even after a resume
  FlowResult r;
  r.netlist = std::move(nl_);
  r.packed = std::move(packed_);
  r.placement = std::move(placement_);
  r.fabric = std::move(fabric_);
  r.routing = std::move(routing_);
  return r;
}

}  // namespace vbs
