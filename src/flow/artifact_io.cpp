#include "flow/artifact_io.h"

#include "util/bitio.h"
#include "util/bytes.h"
#include "util/io.h"

namespace vbs {

using namespace artio;

namespace {

constexpr std::string_view kMagic = "VAR1";
// magic(4) + stage(1) + fingerprint(8) + content hash(8) + bit count(8)
constexpr std::size_t kHeaderBytes = 29;

}  // namespace

void bad_artifact(const std::string& what) {
  throw VbsError(VbsErrc::kBadContainer, what);
}

BitVector serialize_packed(const PackedDesign& pd) {
  BitWriter w;
  put_i32(w, pd.num_luts());
  put_i32(w, pd.num_ios());
  for (const BlockId b : pd.luts) put_i32(w, b);
  for (const BlockId b : pd.ios) put_i32(w, b);
  for (const auto& pins : pd.lut_pins) {
    for (const NetId n : pins) put_i32(w, n);
  }
  return w.take();
}

PackedDesign deserialize_packed(const BitVector& bits) {
  BitReader r(bits);
  PackedDesign pd;
  const int num_luts = get_i32(r);
  const int num_ios = get_i32(r);
  if (num_luts < 0 || num_ios < 0) {
    bad_artifact("pack artifact: negative instance count");
  }
  pd.luts.resize(static_cast<std::size_t>(num_luts));
  pd.ios.resize(static_cast<std::size_t>(num_ios));
  pd.lut_pins.resize(static_cast<std::size_t>(num_luts));
  for (BlockId& b : pd.luts) b = get_i32(r);
  for (BlockId& b : pd.ios) b = get_i32(r);
  for (auto& pins : pd.lut_pins) {
    for (NetId& n : pins) n = get_i32(r);
  }
  if (!r.at_end()) bad_artifact("pack artifact: trailing bits");
  return pd;
}

BitVector serialize_placement(const Placement& pl, const PlaceStats& stats) {
  BitWriter w;
  put_i32(w, pl.grid_w);
  put_i32(w, pl.grid_h);
  put_i32(w, static_cast<std::int32_t>(pl.lut_loc.size()));
  for (const Point p : pl.lut_loc) {
    put_i32(w, p.x);
    put_i32(w, p.y);
  }
  put_i32(w, static_cast<std::int32_t>(pl.io_loc.size()));
  for (const IoSlot& s : pl.io_loc) {
    w.write(static_cast<std::uint64_t>(s.side), 8);
    put_i32(w, s.tile);
    put_i32(w, s.track);
  }
  put_f64(w, stats.initial_cost);
  put_f64(w, stats.final_cost);
  put_i64(w, stats.moves);
  put_i64(w, stats.accepted);
  put_i32(w, stats.temperatures);
  put_f64(w, stats.cost_drift);
  return w.take();
}

void deserialize_placement(const BitVector& bits, Placement* pl,
                           PlaceStats* stats) {
  BitReader r(bits);
  Placement out;
  out.grid_w = get_i32(r);
  out.grid_h = get_i32(r);
  const int luts = get_i32(r);
  if (luts < 0) bad_artifact("place artifact: negative LUT count");
  out.lut_loc.resize(static_cast<std::size_t>(luts));
  for (Point& p : out.lut_loc) {
    p.x = get_i32(r);
    p.y = get_i32(r);
  }
  const int ios = get_i32(r);
  if (ios < 0) bad_artifact("place artifact: negative I/O count");
  out.io_loc.resize(static_cast<std::size_t>(ios));
  for (IoSlot& s : out.io_loc) {
    const auto side = r.read(8);
    if (side > 3) bad_artifact("place artifact: bad I/O side");
    s.side = static_cast<Side>(side);
    s.tile = get_i32(r);
    s.track = get_i32(r);
  }
  PlaceStats st;
  st.initial_cost = get_f64(r);
  st.final_cost = get_f64(r);
  st.moves = get_i64(r);
  st.accepted = get_i64(r);
  st.temperatures = get_i32(r);
  st.cost_drift = get_f64(r);
  if (!r.at_end()) bad_artifact("place artifact: trailing bits");
  *pl = std::move(out);
  if (stats != nullptr) *stats = st;
}

BitVector serialize_routing(const RoutingResult& rr) {
  BitWriter w;
  w.write_bit(rr.success);
  put_i32(w, rr.iterations);
  put_i64(w, static_cast<std::int64_t>(rr.total_wire_nodes));
  put_i64(w, static_cast<std::int64_t>(rr.overused_nodes));
  put_i64(w, rr.heap_pops);
  put_i64(w, rr.bbox_retries);
  put_i32(w, static_cast<std::int32_t>(rr.routes.size()));
  for (const NetRoute& net : rr.routes) {
    put_i32(w, static_cast<std::int32_t>(net.nodes.size()));
    for (const NetRoute::TreeNode& n : net.nodes) {
      put_i32(w, n.rr);
      put_i32(w, n.parent);
      put_i64(w, n.fabric_edge);
    }
  }
  return w.take();
}

RoutingResult deserialize_routing(const BitVector& bits) {
  BitReader r(bits);
  RoutingResult rr;
  rr.success = r.read_bit();
  rr.iterations = get_i32(r);
  rr.total_wire_nodes = static_cast<std::size_t>(get_i64(r));
  rr.overused_nodes = static_cast<std::size_t>(get_i64(r));
  rr.heap_pops = get_i64(r);
  rr.bbox_retries = get_i64(r);
  const int nets = get_i32(r);
  if (nets < 0) bad_artifact("route artifact: negative net count");
  rr.routes.resize(static_cast<std::size_t>(nets));
  for (NetRoute& net : rr.routes) {
    const int nodes = get_i32(r);
    if (nodes < 0) bad_artifact("route artifact: negative node count");
    net.nodes.resize(static_cast<std::size_t>(nodes));
    for (NetRoute::TreeNode& n : net.nodes) {
      n.rr = get_i32(r);
      n.parent = get_i32(r);
      n.fabric_edge = get_i64(r);
    }
  }
  if (!r.at_end()) bad_artifact("route artifact: trailing bits");
  return rr;
}

std::string artifact_container_bytes(ArtifactStage stage,
                                     std::uint64_t fingerprint,
                                     const BitVector& payload) {
  const std::string bytes = pack_bits(payload);
  std::string file(kMagic);
  file.reserve(kHeaderBytes + bytes.size());
  put_u8(file, static_cast<std::uint8_t>(stage));
  put_u64(file, fingerprint);
  put_u64(file, content_hash(bytes, payload.size()));
  put_u64(file, payload.size());
  file.append(bytes);
  return file;
}

BitVector parse_artifact_container(std::string_view bytes,
                                   ArtifactStage stage,
                                   const std::uint64_t* expected_fingerprint,
                                   std::uint64_t* fingerprint_out,
                                   const std::string& context) {
  if (bytes.size() < kHeaderBytes) {
    throw VbsError(VbsErrc::kTruncated,
                   "truncated artifact header: " + context);
  }
  ByteReader r(bytes, VbsErrc::kTruncated, "artifact");
  if (r.take(kMagic.size()) != kMagic) {
    bad_artifact("not a vbs.artifact.v1 container: " + context);
  }
  if (r.u8() != static_cast<std::uint8_t>(stage)) {
    bad_artifact("artifact stage mismatch: " + context);
  }
  const std::uint64_t fingerprint = r.u64();
  const std::uint64_t stored_hash = r.u64();
  const std::uint64_t bit_count = r.u64();
  if (expected_fingerprint != nullptr && fingerprint != *expected_fingerprint) {
    bad_artifact(
        "artifact fingerprint mismatch (stale or foreign checkpoint): " +
        context);
  }
  // The declared bit count is untrusted: require it to match the actual
  // byte count before allocating, so a corrupted length field can neither
  // demand exabytes nor smuggle trailing bytes past the content hash.
  if (packed_size(bit_count) != r.remaining()) {
    bad_artifact("artifact size mismatch (corrupted length): " + context);
  }
  const std::string_view payload = r.take(r.remaining());
  if (content_hash(payload, bit_count) != stored_hash) {
    bad_artifact("artifact content-hash mismatch (corrupted): " + context);
  }
  if (fingerprint_out != nullptr) *fingerprint_out = fingerprint;
  return unpack_bits(payload, static_cast<std::size_t>(bit_count));
}

void write_artifact_file(const std::string& path, ArtifactStage stage,
                         std::uint64_t fingerprint, const BitVector& payload) {
  // Atomic replacement: a crash mid-save leaves the previous artifact (or
  // no artifact) plus at worst an orphaned *.tmp, never a torn container.
  AtomicFile out(path);
  out.write(artifact_container_bytes(stage, fingerprint, payload));
  out.commit();
}

BitVector read_artifact_file(const std::string& path, ArtifactStage stage,
                             const std::uint64_t* expected_fingerprint,
                             std::uint64_t* fingerprint_out) {
  return parse_artifact_container(read_file(path), stage,
                                  expected_fingerprint, fingerprint_out, path);
}

}  // namespace vbs
