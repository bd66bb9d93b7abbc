// vbsgen — the Virtual Bit-Stream generation backend as a command-line
// tool (paper Section III-B names the tool; Fig. 3 shows its place in the
// flow): takes a technology-mapped netlist and an architecture
// description, runs the pack/place/route/encode pipeline, and writes the
// compressed, relocatable stream.
//
// Usage:
//   vbsgen <netlist.netl> --out task.vbs [--arch arch.txt] [--grid N]
//          [--cluster C] [--seed S] [--raw-out raw.bin]
//          [--save-checkpoint DIR] [--trace-out trace.json] [--metrics]
//          [--verbose]
//   vbsgen --from-checkpoint DIR --out task.vbs [--cluster C]
//          [--raw-out raw.bin] [--save-checkpoint DIR]
//          [--trace-out trace.json] [--metrics] [--verbose]
//
// --trace-out writes a Chrome trace-event JSON of the flow stages (open in
// chrome://tracing or Perfetto); --metrics dumps the telemetry counters
// and histograms as JSON to stderr. Neither changes the stream: the
// output is byte-identical with telemetry on or off.
//
// --save-checkpoint persists every completed flow stage (FlowPipeline
// checkpoint directory); --from-checkpoint resumes one and runs only the
// missing stages — resuming a full checkpoint re-emits the identical
// stream without re-running anything, and a changed --cluster re-encodes
// the frozen routing only. --arch/--grid/--seed come from the checkpoint
// and cannot be overridden.
//
// Exit status: 0 on success, 1 on unroutable design or bad input.
#include <cmath>
#include <cstdio>
#include <optional>

#include "arch/arch_io.h"
#include "bitstream/bitstream.h"
#include "bitstream/connectivity.h"
#include "flow/pipeline.h"
#include "netlist/netlist_io.h"
#include "util/cli.h"
#include "util/logging.h"
#include "vbs/encoder.h"
#include "vbs/vbs_file.h"

using namespace vbs;

namespace {

constexpr const char* kUsage =
    "vbsgen <netlist.netl> --out task.vbs [--arch arch.txt] [--grid N] "
    "[--cluster C] [--seed S] [--raw-out raw.bin] "
    "[--save-checkpoint DIR] [--trace-out trace.json] [--metrics] "
    "[--verbose]\n"
    "       vbsgen --from-checkpoint DIR --out task.vbs [--cluster C] "
    "[--raw-out raw.bin] [--save-checkpoint DIR] "
    "[--trace-out trace.json] [--metrics] [--verbose]";

}  // namespace

int main(int argc, char** argv) {
  return tool_main("vbsgen", kUsage, [&] {
    const CliArgs args(
        argc, argv,
        {"--out", "--arch", "--grid", "--cluster", "--seed", "--raw-out",
         "--save-checkpoint", "--from-checkpoint", "--trace-out"},
        {"--verbose", "--metrics", "--help"});
    const auto from_ckpt = args.value("--from-checkpoint");
    const std::size_t want_positional = from_ckpt ? 0 : 1;
    if (args.has_flag("--help") ||
        args.positional().size() != want_positional || !args.value("--out")) {
      std::fprintf(stderr, "usage: %s\n", kUsage);
      return args.has_flag("--help") ? 0 : 1;
    }
    if (args.has_flag("--verbose")) set_log_level(LogLevel::kInfo);
    const TelemetryCli telemetry(args);

    std::optional<FlowPipeline> pipe;
    if (from_ckpt) {
      if (args.value("--arch") || args.value("--grid") ||
          args.value("--seed")) {
        throw std::runtime_error(
            "--arch/--grid/--seed are fixed by the checkpoint and cannot be "
            "combined with --from-checkpoint");
      }
      pipe.emplace(FlowPipeline::resume_from(*from_ckpt));
      if (args.value("--cluster")) {
        EncodeOptions eo = pipe->encode_options();
        const int cluster = static_cast<int>(args.int_or("--cluster", 1));
        if (cluster != eo.cluster) {
          eo.cluster = cluster;
          pipe->set_encode_options(eo);  // re-encode the frozen routing
        }
      }
      std::string have;
      for (int i = 0; i < kNumStages; ++i) {
        if (pipe->completed(static_cast<Stage>(i))) {
          have += std::string(have.empty() ? "" : " ") +
                  stage_name(static_cast<Stage>(i));
        }
      }
      std::printf("vbsgen: resumed %s (completed: %s)\n", from_ckpt->c_str(),
                  have.empty() ? "nothing" : have.c_str());
    } else {
      Netlist nl = read_netlist_file(args.positional()[0]);
      FlowOptions opts;
      if (const auto arch = args.value("--arch")) {
        opts.arch = read_arch_file(*arch);
      }
      opts.seed = seed_or(args);
      int grid = static_cast<int>(args.int_or("--grid", -1));
      if (grid < 0) {
        grid = static_cast<int>(
            std::ceil(std::sqrt(static_cast<double>(nl.num_luts()) * 1.1)));
        grid = std::max(grid, 2);
      }
      EncodeOptions eo;
      eo.cluster = static_cast<int>(args.int_or("--cluster", 1));
      std::printf(
          "vbsgen: %s (%d LUTs, %d PIs, %d POs) on %dx%d, W=%d, K=%d\n",
          nl.name.c_str(), nl.num_luts(), nl.num_inputs(), nl.num_outputs(),
          grid, grid, opts.arch.chan_width, opts.arch.lut_k);
      pipe.emplace(std::move(nl), grid, grid, opts, eo);
    }

    pipe->run_to(Stage::kRoute);
    if (!pipe->routing().success) {
      std::fprintf(stderr,
                   "vbsgen: routing failed (try a wider channel or a larger "
                   "--grid)\n");
      return 1;
    }

    const BitVector& stream = pipe->vbs_stream();
    const EncodeStats& stats = pipe->encode_stats();
    write_vbs_file(args.value_or("--out", ""), stream);
    std::printf(
        "vbsgen: wrote %zu bits (%.1f%% of the %zu-bit raw stream, %.2fx)\n",
        stream.size(), 100.0 * stats.compression_ratio(), stats.raw_bits,
        1.0 / stats.compression_ratio());
    std::printf("vbsgen: %d entries (%d raw-coded), %lld connections\n",
                stats.entries, stats.raw_entries, stats.connections);

    if (const auto raw_out = args.value("--raw-out")) {
      const BitVector raw = generate_raw_bitstream(
          pipe->fabric(), pipe->netlist(), pipe->packed(), pipe->placement(),
          pipe->routing().routes);
      write_vbs_file(*raw_out, raw);  // same container, raw payload
      std::printf("vbsgen: wrote raw configuration to %s\n",
                  raw_out->c_str());
    }
    if (const auto ckpt = args.value("--save-checkpoint")) {
      pipe->save_checkpoint(*ckpt);
      std::printf("vbsgen: saved checkpoint to %s\n", ckpt->c_str());
    }
    telemetry.finish();
    return 0;
  });
}
