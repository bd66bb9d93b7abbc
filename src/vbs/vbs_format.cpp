#include "vbs/vbs_format.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "arch/lookahead.h"
#include "util/bitio.h"

namespace vbs {

VbsFieldWidths vbs_field_widths(const ArchSpec& spec, int cluster, int task_w,
                                int task_h) {
  const auto c = static_cast<std::uint64_t>(cluster);
  const auto grid = [&](int side) {
    return static_cast<std::uint64_t>((side + cluster - 1) / cluster);
  };
  VbsFieldWidths fw{};
  fw.dim = bits_for(static_cast<std::uint64_t>(std::max(task_w, task_h)) + 1);
  fw.entry = bits_for(grid(task_w) * grid(task_h) + 1);
  fw.ports = 4 * c * static_cast<std::uint64_t>(spec.chan_width) +
             c * c * static_cast<std::uint64_t>(spec.lb_pins());
  fw.port = bits_for(fw.ports + 1);
  fw.count = cluster == 1
                 ? bits_for(static_cast<std::uint64_t>(2 * spec.chan_width))
                 : fw.port;
  fw.raw = static_cast<std::size_t>(c * c) *
           static_cast<std::size_t>(spec.nroute_bits());
  return fw;
}

std::size_t raw_size_bits(const ArchSpec& spec, int task_w, int task_h) {
  return static_cast<std::size_t>(task_w) * static_cast<std::size_t>(task_h) *
         static_cast<std::size_t>(spec.nraw_bits());
}

namespace {

// walk_vbs and walk_entry list the stream's fields in order. Three
// archives drive them: Writer (serialize_vbs), Reader (deserialize_vbs,
// which rejects a malformed stream with VbsError) and Counter (vbs_size,
// which adds each field's width to its Part of a VbsSizeBreakdown). Writer
// and Counter walk a const image and throw std::invalid_argument on one
// the format cannot carry.
using Part = std::size_t VbsSizeBreakdown::*;
constexpr Part kHeader = &VbsSizeBreakdown::header;
constexpr Part kPosition = &VbsSizeBreakdown::position;
constexpr Part kOccupancy = &VbsSizeBreakdown::occupancy;
constexpr Part kCount = &VbsSizeBreakdown::count;
constexpr Part kList = &VbsSizeBreakdown::list;

struct Writer {
  static constexpr bool kReading = false;
  BitWriter w;

  template <class T>
  void field(Part, T v, unsigned nbits) {
    w.write(static_cast<std::uint64_t>(v), nbits);
  }
  void logic(const LogicConfig& lc, const ArchSpec& spec) {
    BitVector lb;
    append_logic_bits(lb, lc, spec);
    w.write_vector(lb);
  }
  void payload(const BitVector& v, std::size_t) { w.write_vector(v); }
  [[noreturn]] void fail(VbsErrc, const std::string& what) {
    throw std::invalid_argument("serialize_vbs: " + what);
  }
};

struct Counter {
  static constexpr bool kReading = false;
  VbsSizeBreakdown sizes;

  template <class T>
  void field(Part part, const T&, unsigned nbits) {
    sizes.*part += nbits;
  }
  void logic(const LogicConfig&, const ArchSpec& spec) {
    sizes.logic += static_cast<std::size_t>(spec.nlb_bits());
  }
  void payload(const BitVector&, std::size_t nbits) { sizes.raw += nbits; }
  [[noreturn]] void fail(VbsErrc, const std::string& what) {
    throw std::invalid_argument("vbs_size: " + what);
  }
};

struct Reader {
  static constexpr bool kReading = true;
  BitReader r;
  std::vector<bool> seen;  ///< cluster positions read so far, row-major

  template <class T>
  void field(Part, T& v, unsigned nbits) {
    v = static_cast<T>(r.read(nbits));
  }
  void logic(LogicConfig& lc, const ArchSpec& spec) {
    lc = parse_logic_bits(
        r.read_vector(static_cast<std::size_t>(spec.nlb_bits())), 0, spec);
  }
  void payload(BitVector& v, std::size_t nbits) { v = r.read_vector(nbits); }
  [[noreturn]] void fail(VbsErrc code, const std::string& what) {
    throw VbsError(code, "VBS: " + what);
  }
};

/// A check every archive makes.
template <class Ar>
void check(Ar& ar, bool ok, VbsErrc code, const char* what) {
  if (!ok) ar.fail(code, what);
}

/// A check only the reader makes: writer and counter trust their image.
template <class Ar>
void check_read(Ar& ar, bool ok, VbsErrc code, const char* what) {
  if constexpr (Ar::kReading) check(ar, ok, code, what);
}

/// One entry: flag, position, logic, then its list or raw payload. A
/// writer checks a value before writing it, so BitWriter never sees one
/// wider than its field; a fresh reader entry passes those checks.
template <class Ar, class Entry>
void walk_entry(Ar& ar, const VbsImage& img, const VbsFieldWidths& fw,
                Entry& e) {
  const int c = img.cluster;
  const auto check_position = [&] {
    check(ar, e.cx < img.cluster_grid_w() && e.cy < img.cluster_grid_h(),
          VbsErrc::kBadEntry, "entry position out of range");
  };
  if constexpr (!Ar::kReading) check_position();
  ar.field(kPosition, e.raw, 1);
  ar.field(kPosition, e.cx, fw.dim);
  ar.field(kPosition, e.cy, fw.dim);
  if constexpr (Ar::kReading) {
    check_position();
    const std::size_t pos =
        static_cast<std::size_t>(e.cy) * img.cluster_grid_w() + e.cx;
    check(ar, !ar.seen[pos], VbsErrc::kBadEntry, "duplicate entry position");
    ar.seen[pos] = true;
    e.logic.resize(static_cast<std::size_t>(c) * c);
  }
  check(ar, e.logic.size() == static_cast<std::size_t>(c) * c,
        VbsErrc::kBadEntry, "bad logic vector size");
  if (c == 1) {
    ar.logic(e.logic[0], img.spec);  // NLB bits, used or not
  } else {
    for (auto& lc : e.logic) ar.field(kOccupancy, lc.used, 1);
    for (auto& lc : e.logic) {
      if (!lc.used) continue;
      ar.logic(lc, img.spec);
      if constexpr (Ar::kReading) lc.used = true;  // the bitmap says so
    }
  }
  if (e.raw) {
    ar.payload(e.raw_routing, fw.raw);
    check(ar, e.raw_routing.size() == fw.raw, VbsErrc::kBadEntry,
          "bad raw payload size");
    return;
  }
  std::uint64_t n_conns = e.conns.size();
  check(ar, n_conns <= fw.max_conns(), VbsErrc::kBadConnection,
        "connection list exceeds route-count field");
  ar.field(kCount, n_conns, fw.count);
  if constexpr (Ar::kReading) {
    // Each connection claims a distinct output port, so any valid list
    // has at most `ports` entries; rejecting larger counts up front also
    // bounds the allocation by the region size.
    check(ar, n_conns <= fw.ports, VbsErrc::kBadConnection,
          "connection count exceeds region ports");
    e.conns.resize(static_cast<std::size_t>(n_conns));
  }
  // The header's resource guards keep `ports` below 2^16, so M <= 16 and
  // every endpoint read fits its uint16_t.
  const VbsConnection* prev = nullptr;
  for (auto& conn : e.conns) {
    if (img.version == kVbsVersion) {
      // same_in(1), then in(M) only when it differs from the previous in;
      // a reader overwrites the value computed here.
      bool same_in = prev && conn.in == prev->in;
      ar.field(kList, same_in, 1);
      check_read(ar, prev || !same_in, VbsErrc::kBadConnection,
                 "same-in bit on an entry's first connection");
      if (!same_in) {
        ar.field(kList, conn.in, fw.port);
        check_read(ar, !prev || conn.in != prev->in, VbsErrc::kBadConnection,
                   "repeated in port coded in full");
      } else if constexpr (Ar::kReading) {
        conn.in = prev->in;
      }
    } else {
      ar.field(kList, conn.in, fw.port);
    }
    check_read(ar, conn.in < fw.ports, VbsErrc::kBadConnection,
               "connection endpoint out of range");
    ar.field(kList, conn.out, fw.port);
    check_read(ar, conn.out < fw.ports, VbsErrc::kBadConnection,
               "connection endpoint out of range");
    check_read(ar, conn.in != conn.out, VbsErrc::kBadConnection,
               "connection to itself");
    prev = &conn;
  }
}

/// The whole stream: preamble, header, then the entries.
template <class Ar, class Img>
void walk_vbs(Ar& ar, Img& img) {
  const auto check_version = [&] {
    check(ar,
          img.version == kVbsVersion || img.version == kVbsVersionFullPairs,
          VbsErrc::kBadVersion, "unsupported format version");
  };
  if constexpr (!Ar::kReading) check_version();
  ar.field(kHeader, img.version, 4);
  if constexpr (Ar::kReading) check_version();
  ar.field(kHeader, img.spec.chan_width, 8);
  ar.field(kHeader, img.spec.lut_k, 4);
  ar.field(kHeader, img.spec.sb_pattern, 2);
  check_read(ar, static_cast<unsigned>(img.spec.sb_pattern) <= 1,
             VbsErrc::kBadHeader, "unknown switch-box pattern");
  bool compact = false;  // the retired fan-out coding's bit
  ar.field(kHeader, compact, 1);
  check_read(ar, !compact, VbsErrc::kBadHeader, "compact coding bit set");
  if constexpr (Ar::kReading) {
    try {
      img.spec.validate();
    } catch (const std::exception& ex) {
      ar.fail(VbsErrc::kBadHeader,
              std::string("bad architecture: ") + ex.what());
    }
  }
  ar.field(kHeader, img.cluster, 6);
  check_read(ar, img.cluster >= 1, VbsErrc::kBadHeader, "bad cluster size");
  unsigned dim = 0;
  if constexpr (!Ar::kReading) {
    dim = vbs_field_widths(img.spec, img.cluster, img.task_w, img.task_h).dim;
  }
  ar.field(kHeader, dim, 6);
  check_read(ar, dim != 0 && dim <= 16, VbsErrc::kBadHeader,
             "bad dimension width");
  ar.field(kHeader, img.task_w, dim);
  ar.field(kHeader, img.task_h, dim);
  check_read(ar, img.task_w >= 1 && img.task_h >= 1, VbsErrc::kBadHeader,
             "bad task dimensions");
  if constexpr (Ar::kReading) {
    // Resource guards (vbs_format.h): a well-formed header whose decode
    // footprint would be absurd is rejected before anything is allocated.
    const auto c = static_cast<std::uint64_t>(img.cluster);
    const auto area = static_cast<std::uint64_t>(img.task_w) * img.task_h;
    check(ar, area <= kMaxTaskMacros, VbsErrc::kResourceLimit,
          "task area exceeds resource limit");
    check(ar, c * c * img.spec.nraw_bits() <= kMaxEntryConfigBits,
          VbsErrc::kResourceLimit, "per-entry region exceeds resource limit");
    check(ar, Lookahead::table_bytes(img.spec) <= kMaxLookaheadBytes,
          VbsErrc::kResourceLimit, "lookahead table exceeds resource limit");
  }
  const VbsFieldWidths fw =
      vbs_field_widths(img.spec, img.cluster, img.task_w, img.task_h);
  check_read(ar, fw.dim == dim, VbsErrc::kBadHeader,
             "inconsistent dimension width");
  std::uint64_t n_entries = img.entries.size();
  ar.field(kHeader, n_entries, fw.entry);
  if constexpr (Ar::kReading) {
    const std::uint64_t cells =
        static_cast<std::uint64_t>(img.cluster_grid_w()) *
        img.cluster_grid_h();
    check(ar, n_entries <= cells, VbsErrc::kBadEntry,
          "more entries than cluster positions");
    ar.seen.assign(static_cast<std::size_t>(cells), false);
  }
  for (std::uint64_t i = 0; i < n_entries; ++i) {
    if constexpr (Ar::kReading) img.entries.emplace_back();
    walk_entry(ar, img, fw, img.entries[static_cast<std::size_t>(i)]);
  }
  if constexpr (Ar::kReading) {
    check(ar, ar.r.at_end(), VbsErrc::kTrailingBits, "trailing bits");
  }
}

}  // namespace

BitVector serialize_vbs(const VbsImage& img) {
  Writer ar;
  walk_vbs(ar, img);
  return ar.w.take();
}

VbsImage deserialize_vbs(const BitVector& bits) {
  Reader ar{BitReader(bits), {}};
  VbsImage img;
  walk_vbs(ar, img);
  return img;
}

VbsSizeBreakdown vbs_size(const VbsImage& img) {
  Counter ar;
  walk_vbs(ar, img);
  return ar.sizes;
}

VbsSizeBreakdown vbs_entry_size(const VbsImage& img, const VbsEntry& e) {
  Counter ar;
  walk_entry(ar, img,
             vbs_field_widths(img.spec, img.cluster, img.task_w, img.task_h),
             e);
  return ar.sizes;
}

}  // namespace vbs
