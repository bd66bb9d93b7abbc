#include "flow/artifact_io.h"

#include <fstream>

#include "util/bitio.h"
#include "util/hash.h"
#include "util/io.h"
#include "vbs/vbs_file.h"

namespace vbs {

using namespace artio;

namespace {

constexpr char kMagic[4] = {'V', 'A', 'R', '1'};

void put_le64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t take_le64(const std::string& bytes, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) |
        static_cast<unsigned char>(bytes[pos + static_cast<std::size_t>(i)]);
  }
  return v;
}

std::uint64_t content_hash(const std::string& payload_bytes,
                           std::uint64_t bit_count) {
  return hash_u64(fnv1a64(payload_bytes.data(), payload_bytes.size()),
                  bit_count);
}

}  // namespace

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
    throw ArtifactError("pack artifact: negative instance count");
  }
  pd.luts.resize(static_cast<std::size_t>(num_luts));
  pd.ios.resize(static_cast<std::size_t>(num_ios));
  pd.lut_pins.resize(static_cast<std::size_t>(num_luts));
  for (BlockId& b : pd.luts) b = get_i32(r);
  for (BlockId& b : pd.ios) b = get_i32(r);
  for (auto& pins : pd.lut_pins) {
    for (NetId& n : pins) n = get_i32(r);
  }
  if (!r.at_end()) throw ArtifactError("pack artifact: trailing bits");
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
  if (luts < 0) throw ArtifactError("place artifact: negative LUT count");
  out.lut_loc.resize(static_cast<std::size_t>(luts));
  for (Point& p : out.lut_loc) {
    p.x = get_i32(r);
    p.y = get_i32(r);
  }
  const int ios = get_i32(r);
  if (ios < 0) throw ArtifactError("place artifact: negative I/O count");
  out.io_loc.resize(static_cast<std::size_t>(ios));
  for (IoSlot& s : out.io_loc) {
    const auto side = r.read(8);
    if (side > 3) throw ArtifactError("place artifact: bad I/O side");
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
  if (!r.at_end()) throw ArtifactError("place artifact: trailing bits");
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
  if (nets < 0) throw ArtifactError("route artifact: negative net count");
  rr.routes.resize(static_cast<std::size_t>(nets));
  for (NetRoute& net : rr.routes) {
    const int nodes = get_i32(r);
    if (nodes < 0) throw ArtifactError("route artifact: negative node count");
    net.nodes.resize(static_cast<std::size_t>(nodes));
    for (NetRoute::TreeNode& n : net.nodes) {
      n.rr = get_i32(r);
      n.parent = get_i32(r);
      n.fabric_edge = get_i64(r);
    }
  }
  if (!r.at_end()) throw ArtifactError("route artifact: trailing bits");
  return rr;
}

std::string artifact_container_bytes(ArtifactStage stage,
                                     std::uint64_t fingerprint,
                                     const BitVector& payload) {
  const std::string bytes = pack_bits(payload);
  std::string file;
  file.reserve(29 + bytes.size());
  file.append(kMagic, sizeof kMagic);
  file.push_back(static_cast<char>(stage));
  put_le64(file, fingerprint);
  put_le64(file, content_hash(bytes, payload.size()));
  put_le64(file, payload.size());
  file.append(bytes);
  return file;
}

BitVector parse_artifact_container(const std::string& bytes,
                                   ArtifactStage stage,
                                   const std::uint64_t* expected_fingerprint,
                                   std::uint64_t* fingerprint_out,
                                   const std::string& context) {
  if (bytes.size() < 29) {
    throw ArtifactError("truncated artifact header: " + context,
                        VbsErrc::kTruncated);
  }
  for (int i = 0; i < 4; ++i) {
    if (bytes[static_cast<std::size_t>(i)] != kMagic[i]) {
      throw ArtifactError("not a vbs.artifact.v1 container: " + context);
    }
  }
  if (static_cast<std::uint8_t>(bytes[4]) != static_cast<std::uint8_t>(stage)) {
    throw ArtifactError("artifact stage mismatch: " + context);
  }
  const std::uint64_t fingerprint = take_le64(bytes, 5);
  const std::uint64_t stored_hash = take_le64(bytes, 13);
  const std::uint64_t bit_count = take_le64(bytes, 21);
  if (expected_fingerprint != nullptr && fingerprint != *expected_fingerprint) {
    throw ArtifactError(
        "artifact fingerprint mismatch (stale or foreign checkpoint): " +
        context);
  }
  // The declared bit count is untrusted: require it to match the actual
  // byte count before allocating, so a corrupted length field can neither
  // demand exabytes nor smuggle trailing bytes past the content hash.
  const std::uint64_t nbytes64 = bit_count / 8 + (bit_count % 8 != 0 ? 1 : 0);
  if (nbytes64 != bytes.size() - 29) {
    throw ArtifactError("artifact size mismatch (corrupted length): " +
                        context);
  }
  const std::string payload = bytes.substr(29);
  if (content_hash(payload, bit_count) != stored_hash) {
    throw ArtifactError("artifact content-hash mismatch (corrupted): " +
                        context);
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
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  is.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0, std::ios::beg);
  char head[29];
  if (!is.read(head, sizeof head)) {
    throw ArtifactError("truncated artifact header: " + path,
                        VbsErrc::kTruncated);
  }
  for (int i = 0; i < 4; ++i) {
    if (head[i] != kMagic[i]) {
      throw ArtifactError("not a vbs.artifact.v1 file: " + path);
    }
  }
  if (static_cast<std::uint8_t>(head[4]) != static_cast<std::uint8_t>(stage)) {
    throw ArtifactError("artifact stage mismatch: " + path);
  }
  const std::string header(head + 5, 24);
  const std::uint64_t fingerprint = take_le64(header, 0);
  const std::uint64_t stored_hash = take_le64(header, 8);
  const std::uint64_t bit_count = take_le64(header, 16);
  if (expected_fingerprint != nullptr && fingerprint != *expected_fingerprint) {
    throw ArtifactError(
        "artifact fingerprint mismatch (stale or foreign checkpoint): " +
        path);
  }
  // The declared bit count is untrusted: require it to match the actual
  // file size before allocating, so a corrupted length field can neither
  // demand exabytes nor smuggle trailing bytes past the content hash.
  const std::uint64_t nbytes64 = bit_count / 8 + (bit_count % 8 != 0 ? 1 : 0);
  if (nbytes64 != file_size - sizeof head) {
    throw ArtifactError("artifact size mismatch (corrupted length): " + path);
  }
  const auto nbytes = static_cast<std::size_t>(nbytes64);
  std::string bytes(nbytes, '\0');
  if (!is.read(bytes.data(), static_cast<std::streamsize>(nbytes))) {
    throw ArtifactError("truncated artifact payload: " + path,
                        VbsErrc::kTruncated);
  }
  if (content_hash(bytes, bit_count) != stored_hash) {
    throw ArtifactError("artifact content-hash mismatch (corrupted): " + path);
  }
  if (fingerprint_out != nullptr) *fingerprint_out = fingerprint;
  return unpack_bits(bytes, static_cast<std::size_t>(bit_count));
}

}  // namespace vbs
