// vbsdecode — the run-time de-virtualization step as a command-line tool:
// reads a .vbs stream, decodes it at a chosen origin of a chosen fabric
// and writes the raw configuration image (what the reconfiguration
// controller would shift into the configuration memory).
//
// Usage:
//   vbsdecode <task.vbs> --out config.bin [--fabric WxH] [--origin X,Y]
//             [--json]
//
// The fabric defaults to exactly the task footprint at origin 0,0.
// --json replaces the human-readable report with a single JSON object
// (stable keys, same conventions as vbsinfo --json; suitable for traces
// and CI scripting).
//
// Hostile input exits typed: a VbsError maps to exit code
// exit_code_for(code) (10 + the numeric VbsErrc), and with --json the
// tool prints {"error": {"code": ..., "errc": N, "message": ...}} on
// stdout so scripted callers can dispatch without parsing stderr. Exit
// code 1 stays reserved for untyped errors (bad CLI usage, I/O).
#include <cstdio>
#include <optional>
#include <string>

#include "rtc/controller.h"
#include "util/build_info.h"
#include "util/cli.h"
#include "util/error.h"
#include "vbs/devirtualizer.h"
#include "vbs/vbs_file.h"

using namespace vbs;

namespace {

constexpr const char* kUsage =
    "vbsdecode <task.vbs> --out config.bin [--fabric WxH] [--origin X,Y] "
    "[--trace-out trace.json] [--metrics] [--json]";

}  // namespace

int main(int argc, char** argv) {
  return tool_main("vbsdecode", kUsage, [&] {
    const CliArgs args(argc, argv,
                       {"--out", "--fabric", "--origin", "--trace-out"},
                       {"--json", "--metrics", "--help"});
    if (args.has_flag("--help") || args.positional().size() != 1 ||
        !args.value("--out")) {
      std::fprintf(stderr, "usage: %s\n", kUsage);
      return args.has_flag("--help") ? 0 : 1;
    }
    // CLI mistakes keep the untyped exit 1; everything past this point
    // consumes hostile bytes and exits typed on rejection.
    int fw = 0, fh = 0;
    const bool have_fabric = args.value("--fabric").has_value();
    if (have_fabric) {
      std::tie(fw, fh) = parse_pair(*args.value("--fabric"), 'x');
    }
    Point origin{0, 0};
    if (const auto o = args.value("--origin")) {
      std::tie(origin.x, origin.y) = parse_pair(*o, ',');
    }
    const bool json = args.has_flag("--json");
    const TelemetryCli telemetry(args);

    BitVector stream;
    VbsImage img;
    std::optional<ReconfigController> rtc_opt;
    TaskId id = kNoTask;
    try {
      stream = read_vbs_file(args.positional()[0]);
      img = deserialize_vbs(stream);
      if (!have_fabric) {
        fw = img.task_w;
        fh = img.task_h;
      }
      // Route the load through the controller so the tool measures
      // exactly what the runtime would do.
      rtc_opt.emplace(img.spec, fw, fh);
      id = rtc_opt->load_at(stream, origin);
    } catch (const VbsError& ex) {
      return typed_error_exit("vbsdecode", ex, json);
    }
    ReconfigController& rtc = *rtc_opt;
    const TaskRecord& rec = rtc.record(id);
    write_vbs_file(args.value_or("--out", ""), rtc.config_memory());

    const double mbits_per_sec =
        static_cast<double>(rtc.fabric().config_bits_total()) / 1e6 /
        rec.decode_seconds;
    if (args.has_flag("--json")) {
      std::printf("{\n");
      std::printf("  \"stream_bits\": %zu,\n", stream.size());
      std::printf(
          "  \"task\": {\"w\": %d, \"h\": %d, \"cluster\": %d},\n",
          img.task_w, img.task_h, img.cluster);
      std::printf("  \"fabric\": {\"w\": %d, \"h\": %d},\n", fw, fh);
      std::printf("  \"origin\": {\"x\": %d, \"y\": %d},\n", origin.x,
                  origin.y);
      std::printf(
          "  \"decode\": {\"entries\": %lld, \"raw_entries\": %lld, "
          "\"pairs_routed\": %lld, \"nodes_expanded\": %lld},\n",
          rec.decode.entries_decoded, rec.decode.raw_entries,
          rec.decode.pairs_routed, rec.decode.nodes_expanded);
      std::printf("  \"config_bits\": %zu,\n",
                  rtc.fabric().config_bits_total());
      std::printf(
          "  \"timing\": {\"seconds\": %.6f, \"mbits_per_sec\": %.2f},\n",
          rec.decode_seconds, mbits_per_sec);
      std::printf("  \"build\": %s,\n", build_info_json(2).c_str());
      std::printf("  \"metrics\": %s\n",
                  telem::snapshot().to_json(2).c_str());
      std::printf("}\n");
      telemetry.finish();
      return 0;
    }
    std::printf("vbsdecode: task %dx%d (cluster %d) at (%d,%d) on %dx%d\n",
                img.task_w, img.task_h, img.cluster, origin.x, origin.y, fw,
                fh);
    std::printf(
        "vbsdecode: %lld entries (%lld raw), %lld connections re-routed, "
        "%lld nodes expanded\n",
        rec.decode.entries_decoded, rec.decode.raw_entries,
        rec.decode.pairs_routed, rec.decode.nodes_expanded);
    std::printf(
        "vbsdecode: %.3f s: %.2f Mb of configuration per second\n",
        rec.decode_seconds, mbits_per_sec);
    telemetry.finish();
    return 0;
  });
}
