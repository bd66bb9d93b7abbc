// vbsinfo — inspects a .vbs stream: header fields, per-entry statistics,
// field-width accounting and a size breakdown. Useful for debugging
// streams and for understanding where the bits go.
//
// Usage:  vbsinfo <task.vbs> [--entries] [--json]
//
// --json replaces the human-readable report with a single JSON object
// (stable keys, suitable for traces and CI scripting); --entries adds the
// per-entry table / array in either mode.
#include <cstdio>

#include "util/build_info.h"
#include "util/cli.h"
#include "util/table.h"
#include "vbs/vbs_file.h"
#include "vbs/vbs_format.h"

using namespace vbs;

namespace {

struct StreamSummary {
  std::size_t conns = 0, raw_entries = 0, logic_used = 0, max_conns = 0;
  /// Pairs whose in port repeats the previous pair's in the same entry:
  /// version 3 codes each such in with one same_in bit.
  std::size_t same_in = 0;
  VbsFieldWidths widths{};
  VbsSizeBreakdown bits;
  /// Everything but logic, connection list and raw payload: header,
  /// entry positions, occupancy bitmaps and route-count fields.
  std::size_t framing_bits() const {
    return bits.header + bits.position + bits.occupancy + bits.count;
  }
};

StreamSummary summarize(const VbsImage& img) {
  StreamSummary s;
  for (const VbsEntry& e : img.entries) {
    s.conns += e.conns.size();
    s.max_conns = std::max(s.max_conns, e.conns.size());
    for (std::size_t i = 1; i < e.conns.size(); ++i) {
      s.same_in += e.conns[i].in == e.conns[i - 1].in;
    }
    s.raw_entries += e.raw;
    for (const LogicConfig& lc : e.logic) s.logic_used += lc.used;
  }
  s.widths = vbs_field_widths(img.spec, img.cluster, img.task_w, img.task_h);
  s.bits = vbs_size(img);
  return s;
}

std::size_t entry_used_lbs(const VbsEntry& e) {
  std::size_t used = 0;
  for (const LogicConfig& lc : e.logic) used += lc.used;
  return used;
}

void print_json(const BitVector& stream, const VbsImage& img,
                const StreamSummary& s,
                bool with_entries) {
  const ArchSpec& spec = img.spec;
  const std::size_t raw_bits = raw_size_bits(spec, img.task_w, img.task_h);
  std::printf("{\n");
  std::printf("  \"stream_bits\": %zu,\n", stream.size());
  std::printf("  \"stream_bytes\": %zu,\n", (stream.size() + 7) / 8);
  std::printf("  \"version\": %u,\n", img.version);
  std::printf(
      "  \"arch\": {\"chan_width\": %d, \"lut_k\": %d, \"sb_pattern\": "
      "\"%s\"},\n",
      spec.chan_width, spec.lut_k,
      spec.sb_pattern == SbPattern::kWilton ? "wilton" : "disjoint");
  std::printf(
      "  \"task\": {\"w\": %d, \"h\": %d, \"cluster\": %d, \"grid_w\": %d, "
      "\"grid_h\": %d},\n",
      img.task_w, img.task_h, img.cluster, img.cluster_grid_w(),
      img.cluster_grid_h());
  std::printf(
      "  \"field_bits\": {\"endpoint\": %u, \"route_count\": %u},\n",
      s.widths.port, s.widths.count);
  std::printf(
      "  \"raw\": {\"bits\": %zu, \"bits_per_macro\": %d, \"ratio\": "
      "%.4f},\n",
      raw_bits, spec.nraw_bits(),
      static_cast<double>(stream.size()) / static_cast<double>(raw_bits));
  std::printf(
      "  \"entries\": {\"count\": %zu, \"raw_coded\": %zu, \"used_lbs\": "
      "%zu},\n",
      img.entries.size(), s.raw_entries, s.logic_used);
  std::printf(
      "  \"connections\": {\"total\": %zu, \"max_per_entry\": %zu, "
      "\"same_in\": %zu},\n",
      s.conns, s.max_conns, s.same_in);
  std::printf(
      "  \"size_breakdown\": {\"logic\": %zu, \"connections\": %zu, "
      "\"raw_payload\": %zu, \"framing\": %zu},\n",
      s.bits.logic, s.bits.list, s.bits.raw, s.framing_bits());
  std::printf("  \"build\": %s,\n", build_info_json(2).c_str());
  std::printf("  \"metrics\": %s%s\n",
              telem::snapshot().to_json(2).c_str(), with_entries ? "," : "");
  if (with_entries) {
    std::printf("  \"entry_list\": [\n");
    for (std::size_t i = 0; i < img.entries.size(); ++i) {
      const VbsEntry& e = img.entries[i];
      std::printf(
          "    {\"cx\": %u, \"cy\": %u, \"coding\": \"%s\", \"used_lbs\": "
          "%zu, \"conns\": %zu}%s\n",
          e.cx, e.cy, e.raw ? "raw" : "list", entry_used_lbs(e),
          e.conns.size(), i + 1 < img.entries.size() ? "," : "");
    }
    std::printf("  ]\n");
  }
  std::printf("}\n");
}

void print_text(const BitVector& stream, const VbsImage& img,
                const StreamSummary& s,
                bool with_entries) {
  const ArchSpec& spec = img.spec;
  std::printf("stream           : %zu bits (%zu bytes on disk)\n",
              stream.size(), (stream.size() + 7) / 8);
  std::printf("format version   : %u (%s list, lookahead decoder heuristic)\n",
              img.version,
              img.version == kVbsVersion ? "same-in" : "full-pair");
  std::printf("architecture     : W=%d, K=%d, %s switch boxes\n",
              spec.chan_width, spec.lut_k,
              spec.sb_pattern == SbPattern::kWilton ? "wilton" : "disjoint");
  std::printf("task             : %dx%d macros, cluster size %d (%dx%d grid)\n",
              img.task_w, img.task_h, img.cluster, img.cluster_grid_w(),
              img.cluster_grid_h());
  std::printf("field widths     : M=%u bits/endpoint, route count %u bits\n",
              s.widths.port, s.widths.count);
  std::printf("raw equivalent   : %zu bits (%d bits/macro) -> ratio %.1f%%\n",
              raw_size_bits(spec, img.task_w, img.task_h), spec.nraw_bits(),
              100.0 * static_cast<double>(stream.size()) /
                  static_cast<double>(
                      raw_size_bits(spec, img.task_w, img.task_h)));
  std::printf("entries          : %zu (%zu raw-coded), %zu used LBs\n",
              img.entries.size(), s.raw_entries, s.logic_used);
  std::printf("connections      : %zu total, %zu max per entry, %zu repeat "
              "the previous in port\n",
              s.conns, s.max_conns, s.same_in);
  std::printf("size breakdown   : logic %zu, connections %zu, raw payload "
              "%zu, framing %zu bits\n",
              s.bits.logic, s.bits.list, s.bits.raw, s.framing_bits());
  if (with_entries) {
    TablePrinter table({"cx", "cy", "coding", "used LBs", "conns"});
    for (const VbsEntry& e : img.entries) {
      table.add_row({TablePrinter::fmt_int(e.cx), TablePrinter::fmt_int(e.cy),
                     e.raw ? "raw" : "list",
                     TablePrinter::fmt_int(
                         static_cast<long long>(entry_used_lbs(e))),
                     TablePrinter::fmt_int(
                         static_cast<long long>(e.conns.size()))});
    }
    table.print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage = "vbsinfo <task.vbs> [--entries] [--json]";
  return tool_main("vbsinfo", kUsage, [&] {
    const CliArgs args(argc, argv, {}, {"--entries", "--json", "--help"});
    if (args.has_flag("--help") || args.positional().size() != 1) {
      std::fprintf(stderr, "usage: %s\n", kUsage);
      return args.has_flag("--help") ? 0 : 1;
    }
    const BitVector stream = read_vbs_file(args.positional()[0]);
    const VbsImage img = deserialize_vbs(stream);
    const StreamSummary summary = summarize(img);
    if (args.has_flag("--json")) {
      print_json(stream, img, summary, args.has_flag("--entries"));
    } else {
      print_text(stream, img, summary, args.has_flag("--entries"));
    }
    return 0;
  });
}
