#include "vbs/vbs_format.h"

#include <algorithm>
#include <stdexcept>

#include "arch/lookahead.h"
#include "util/bitio.h"
#include "vbs/region_model.h"

namespace vbs {

namespace {

struct FieldWidths {
  unsigned dim;       // D
  unsigned entry;     // E
  unsigned route;     // RC
  unsigned port;      // M
  int nlb;
  int route_bits;     // per-macro raw routing payload
};

FieldWidths widths_of(const VbsImage& img) {
  FieldWidths fw{};
  fw.dim = bits_for(static_cast<std::uint64_t>(
                        std::max(img.task_w, img.task_h)) +
                    1);
  fw.entry = bits_for(static_cast<std::uint64_t>(img.cluster_grid_w()) *
                          img.cluster_grid_h() +
                      1);
  const int c = img.cluster;
  const ArchSpec& s = img.spec;
  fw.port = bits_for(static_cast<std::uint64_t>(4 * c * s.chan_width) +
                     static_cast<std::uint64_t>(c) * c * s.lb_pins() + 1);
  // Matches RegionModel::route_count_bits: Table I's ceil(log2(2W)) at the
  // finest grain, endpoint-field width for clusters.
  fw.route = c == 1 ? bits_for(static_cast<std::uint64_t>(2 * s.chan_width))
                    : fw.port;
  fw.nlb = s.nlb_bits();
  fw.route_bits = s.nroute_bits();
  return fw;
}

}  // namespace

std::size_t raw_size_bits(const ArchSpec& spec, int task_w, int task_h) {
  return static_cast<std::size_t>(task_w) * static_cast<std::size_t>(task_h) *
         static_cast<std::size_t>(spec.nraw_bits());
}

BitVector serialize_vbs(const VbsImage& img) {
  const FieldWidths fw = widths_of(img);
  const int c = img.cluster;
  BitWriter w;
  w.write(kVbsVersion, 4);
  w.write(static_cast<std::uint64_t>(img.spec.chan_width), 8);
  w.write(static_cast<std::uint64_t>(img.spec.lut_k), 4);
  w.write(static_cast<std::uint64_t>(img.spec.sb_pattern), 2);
  w.write_bit(false);  // compact: always 0
  w.write(static_cast<std::uint64_t>(c), 6);
  w.write(fw.dim, 6);
  w.write(static_cast<std::uint64_t>(img.task_w), fw.dim);
  w.write(static_cast<std::uint64_t>(img.task_h), fw.dim);
  w.write(img.entries.size(), fw.entry);

  for (const VbsEntry& e : img.entries) {
    if (e.cx >= img.cluster_grid_w() || e.cy >= img.cluster_grid_h()) {
      throw std::invalid_argument("serialize_vbs: entry position out of range");
    }
    w.write_bit(e.raw);
    w.write(e.cx, fw.dim);
    w.write(e.cy, fw.dim);
    if (static_cast<int>(e.logic.size()) != c * c) {
      throw std::invalid_argument("serialize_vbs: bad logic vector size");
    }
    if (c == 1) {
      BitVector lb;
      append_logic_bits(lb, e.logic[0], img.spec);
      w.write_vector(lb);
    } else {
      for (const LogicConfig& lc : e.logic) w.write_bit(lc.used);
      for (const LogicConfig& lc : e.logic) {
        if (!lc.used) continue;
        BitVector lb;
        append_logic_bits(lb, lc, img.spec);
        w.write_vector(lb);
      }
    }
    if (e.raw) {
      if (static_cast<int>(e.raw_routing.size()) != c * c * fw.route_bits) {
        throw std::invalid_argument("serialize_vbs: bad raw payload size");
      }
      w.write_vector(e.raw_routing);
      continue;
    }
    if (e.conns.size() >= (std::uint64_t{1} << fw.route)) {
      throw std::invalid_argument(
          "serialize_vbs: connection list exceeds route-count field");
    }
    w.write(e.conns.size(), fw.route);
    for (const VbsConnection& conn : e.conns) {
      w.write(conn.in, fw.port);
      w.write(conn.out, fw.port);
    }
  }
  return w.take();
}

std::size_t vbs_size_bits(const VbsImage& img) {
  const FieldWidths fw = widths_of(img);
  const int c = img.cluster;
  std::size_t bits = 4 + 8 + 4 + 2 + 1 + 6 + 6 + 2 * fw.dim + fw.entry;
  for (const VbsEntry& e : img.entries) {
    bits += 1 + 2 * fw.dim;
    if (c == 1) {
      bits += static_cast<std::size_t>(fw.nlb);
    } else {
      bits += static_cast<std::size_t>(c) * c;
      for (const LogicConfig& lc : e.logic) {
        if (lc.used) bits += static_cast<std::size_t>(fw.nlb);
      }
    }
    if (e.raw) {
      bits += static_cast<std::size_t>(c) * c * fw.route_bits;
      continue;
    }
    bits += fw.route + e.conns.size() * 2 * fw.port;
  }
  return bits;
}

VbsImage deserialize_vbs(const BitVector& bits) {
  BitReader r(bits);
  if (r.read(4) != kVbsVersion) {
    throw VbsError(VbsErrc::kBadVersion, "VBS: unsupported format version");
  }
  VbsImage img;
  img.spec.chan_width = static_cast<int>(r.read(8));
  img.spec.lut_k = static_cast<int>(r.read(4));
  const auto pattern = r.read(2);
  if (pattern > 1) {
    throw VbsError(VbsErrc::kBadHeader, "VBS: unknown switch-box pattern");
  }
  img.spec.sb_pattern = static_cast<SbPattern>(pattern);
  if (r.read_bit()) {
    throw VbsError(VbsErrc::kBadHeader, "VBS: compact coding bit set");
  }
  try {
    img.spec.validate();
  } catch (const std::exception& ex) {
    throw VbsError(VbsErrc::kBadHeader,
                   std::string("VBS: bad architecture: ") + ex.what());
  }
  img.cluster = static_cast<int>(r.read(6));
  if (img.cluster < 1) {
    throw VbsError(VbsErrc::kBadHeader, "VBS: bad cluster size");
  }
  const unsigned dim = static_cast<unsigned>(r.read(6));
  if (dim == 0 || dim > 16) {
    throw VbsError(VbsErrc::kBadHeader, "VBS: bad dimension width");
  }
  img.task_w = static_cast<int>(r.read(dim));
  img.task_h = static_cast<int>(r.read(dim));
  if (img.task_w < 1 || img.task_h < 1) {
    throw VbsError(VbsErrc::kBadHeader, "VBS: bad task dimensions");
  }
  // Resource guards: a well-formed header may still describe a task whose
  // decode-time footprint (region models, per-entry raw payloads) would be
  // absurd. Hostile streams are rejected here with a typed code instead of
  // exhausting memory later; the limits are far above anything the paper's
  // fabrics (or this repo's encoder) produce.
  if (static_cast<std::uint64_t>(img.task_w) * img.task_h >
      kMaxTaskMacros) {
    throw VbsError(VbsErrc::kResourceLimit,
                   "VBS: task area exceeds resource limit");
  }
  if (static_cast<std::uint64_t>(img.cluster) * img.cluster *
          static_cast<std::uint64_t>(img.spec.nraw_bits()) >
      kMaxEntryConfigBits) {
    throw VbsError(VbsErrc::kResourceLimit,
                   "VBS: per-entry region exceeds resource limit");
  }
  if (Lookahead::table_bytes(img.spec) > kMaxLookaheadBytes) {
    throw VbsError(VbsErrc::kResourceLimit,
                   "VBS: lookahead table exceeds resource limit");
  }
  const FieldWidths fw = widths_of(img);
  if (fw.dim != dim) {
    throw VbsError(VbsErrc::kBadHeader, "VBS: inconsistent dimension width");
  }
  const auto n_entries = r.read(fw.entry);
  const int c = img.cluster;
  const std::uint64_t grid_cells =
      static_cast<std::uint64_t>(img.cluster_grid_w()) * img.cluster_grid_h();
  if (n_entries > grid_cells) {
    throw VbsError(VbsErrc::kBadEntry,
                   "VBS: more entries than cluster positions");
  }
  std::vector<bool> seen_pos(static_cast<std::size_t>(grid_cells), false);

  for (std::uint64_t i = 0; i < n_entries; ++i) {
    VbsEntry e;
    e.raw = r.read_bit();
    e.cx = static_cast<std::uint16_t>(r.read(fw.dim));
    e.cy = static_cast<std::uint16_t>(r.read(fw.dim));
    if (e.cx >= img.cluster_grid_w() || e.cy >= img.cluster_grid_h()) {
      throw VbsError(VbsErrc::kBadEntry, "VBS: entry position out of range");
    }
    const std::size_t pos =
        static_cast<std::size_t>(e.cy) * img.cluster_grid_w() + e.cx;
    if (seen_pos[pos]) {
      throw VbsError(VbsErrc::kBadEntry, "VBS: duplicate entry position");
    }
    seen_pos[pos] = true;
    e.logic.resize(static_cast<std::size_t>(c) * c);
    if (c == 1) {
      const BitVector lb = r.read_vector(static_cast<std::size_t>(fw.nlb));
      e.logic[0] = parse_logic_bits(lb, 0, img.spec);
    } else {
      for (LogicConfig& lc : e.logic) lc.used = r.read_bit();
      for (LogicConfig& lc : e.logic) {
        if (!lc.used) continue;
        const BitVector lb = r.read_vector(static_cast<std::size_t>(fw.nlb));
        const bool used = lc.used;
        lc = parse_logic_bits(lb, 0, img.spec);
        lc.used = used;
      }
    }
    if (e.raw) {
      e.raw_routing =
          r.read_vector(static_cast<std::size_t>(c) * c * fw.route_bits);
    } else {
      const std::uint64_t max_port =
          static_cast<std::uint64_t>(4 * c * img.spec.chan_width) +
          static_cast<std::uint64_t>(c) * c * img.spec.lb_pins();
      auto checked = [&](std::uint64_t v) {
        if (v >= max_port) {
          throw VbsError(VbsErrc::kBadConnection,
                         "VBS: connection endpoint out of range");
        }
        return static_cast<std::uint16_t>(v);
      };
      const auto n_conns = r.read(fw.route);
      // Each connection claims a distinct output port, so any valid list
      // has at most num_ports entries; rejecting larger counts up front
      // also bounds the reserve below by the region size.
      if (n_conns > max_port) {
        throw VbsError(VbsErrc::kBadConnection,
                       "VBS: connection count exceeds region ports");
      }
      e.conns.reserve(static_cast<std::size_t>(n_conns));
      for (std::uint64_t k = 0; k < n_conns; ++k) {
        VbsConnection conn;
        conn.in = checked(r.read(fw.port));
        conn.out = checked(r.read(fw.port));
        if (conn.in == conn.out) {
          throw VbsError(VbsErrc::kBadConnection, "VBS: connection to itself");
        }
        e.conns.push_back(conn);
      }
    }
    img.entries.push_back(std::move(e));
  }
  if (!r.at_end()) {
    throw VbsError(VbsErrc::kTrailingBits, "VBS: trailing bits");
  }
  return img;
}

}  // namespace vbs
