// Multi-tenant scenario: the run-time management the paper motivates —
// "multiple applications on the same reconfigurable fabric at the same
// time" (Section I).
//
// A stream of task arrivals and departures hits one chip: the controller
// places each task's VBS wherever it fits, evicts finished ones, and
// defragments when external fragmentation blocks an arrival.
//
// Build & run:  ./build/examples/multi_tenant
#include <cstdio>
#include <vector>

#include "flow/flow.h"
#include "netlist/generator.h"
#include "rtc/controller.h"
#include "vbs/encoder.h"

using namespace vbs;

namespace {

BitVector make_task(int n_lut, int grid, std::uint64_t seed,
                    const ArchSpec& arch) {
  GenParams gp;
  gp.n_lut = n_lut;
  gp.n_pi = 3;
  gp.n_po = 3;
  gp.seed = seed;
  FlowOptions opts;
  opts.arch = arch;
  opts.seed = seed;
  FlowResult flow = run_flow(generate_netlist(gp), grid, grid, opts);
  if (!flow.routed()) throw std::runtime_error("task unroutable");
  EncodeOptions eo;
  eo.cluster = 2;  // coarser coding: smaller streams in external memory
  return serialize_vbs(encode_vbs(*flow.fabric, flow.netlist, flow.packed,
                                  flow.placement, flow.routing.routes, eo));
}

}  // namespace

int main() {
  ArchSpec arch;
  arch.chan_width = 8;

  // Offline: a small library of hardware tasks of different footprints.
  std::printf("building task library (offline flow)...\n");
  struct TaskKind {
    const char* name;
    int grid;
    BitVector stream;
  };
  std::vector<TaskKind> kinds;
  kinds.push_back({"fir4  (4x4)", 4, make_task(13, 4, 1001, arch)});
  kinds.push_back({"crc   (5x5)", 5, make_task(21, 5, 1002, arch)});
  kinds.push_back({"aes   (6x6)", 6, make_task(31, 6, 1003, arch)});
  for (const TaskKind& k : kinds) {
    std::printf("  %s  VBS %6zu bits (raw would be %zu)\n", k.name,
                k.stream.size(),
                raw_size_bits(arch, k.grid, k.grid));
  }

  // Online: one 14x10 chip.
  ReconfigController rtc(arch, 14, 10);
  std::printf("\nchip 14x10, %zu-bit configuration layer\n",
              rtc.fabric().config_bits_total());

  auto show = [&](const char* when) {
    std::printf("%-28s tasks=%d occupancy=%4.0f%%  regions:", when,
                rtc.num_tasks(), 100.0 * rtc.occupancy());
    for (const TaskId id : rtc.task_ids()) {
      std::printf(" %s", to_string(rtc.record(id).rect).c_str());
    }
    std::printf("\n");
  };

  // Arrivals until the first rejection.
  std::vector<TaskId> loaded;
  const int sequence[] = {2, 1, 0, 1, 0, 2};
  for (const int k : sequence) {
    const TaskId id = rtc.load(kinds[static_cast<std::size_t>(k)].stream);
    if (id == kNoTask) {
      std::printf("  -> %s rejected (no contiguous free rectangle)\n",
                  kinds[static_cast<std::size_t>(k)].name);
      continue;
    }
    loaded.push_back(id);
  }
  show("after arrival burst:");

  // Departures create fragmentation: the survivors sit at opposite corners.
  rtc.unload(loaded[1]);
  rtc.unload(loaded[2]);
  show("after two departures:");

  // A big task does not fit although total free area suffices...
  const auto slot = rtc.find_free_slot(6, 6);
  std::printf("6x6 arrival fits? %s\n", slot ? "yes" : "no (fragmented)");

  // ...until the controller defragments by migrating tasks (each move is a
  // decode of the retained VBS at a new origin).
  rtc.defragment();
  show("after defragmentation:");
  const auto slot2 = rtc.find_free_slot(6, 6);
  std::printf("6x6 arrival fits now? %s\n", slot2 ? "yes" : "no");
  if (slot2) {
    rtc.load(kinds[2].stream);
    show("after loading the 6x6:");
  }

  // Decode statistics accumulated by the controller.
  const DecodeStats& ds = rtc.total_decode_stats();
  std::printf(
      "\ncontroller decode totals: %lld regions (%lld raw-coded), %lld "
      "connections routed, %lld nodes expanded\n",
      ds.entries_decoded, ds.raw_entries, ds.pairs_routed, ds.nodes_expanded);
  return 0;
}
