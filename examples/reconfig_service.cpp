// Reconfiguration-service scenario: the multi-tenant example one level up
// from examples/multi_tenant.cpp — instead of driving the controller
// synchronously, tenants enqueue requests and the service batches the
// devirtualization, serves repeated loads from the decoded-stream cache,
// and evicts the least-valuable task when a load does not fit.
//
// Build & run:  ./build/reconfig_service
#include <cstdio>
#include <vector>

#include "flow/flow.h"
#include "netlist/generator.h"
#include "rtc/service/service.h"
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
  eo.cluster = 2;
  return serialize_vbs(encode_vbs(*flow.fabric, flow.netlist, flow.packed,
                                  flow.placement, flow.routing.routes, eo));
}

}  // namespace

int main() {
  ArchSpec arch;
  arch.chan_width = 8;

  std::printf("building task library (offline flow)...\n");
  const BitVector fir = make_task(13, 4, 2001, arch);   // 4x4
  const BitVector crc = make_task(21, 5, 2002, arch);   // 5x5
  const BitVector aes = make_task(31, 6, 2003, arch);   // 6x6

  ServiceOptions opts;
  opts.threads = 2;
  ReconfigService svc(arch, 12, 8, opts);
  std::printf("service on a 12x8 chip, threads=%d\n\n", opts.threads);

  // A burst of tenants arrives; the four loads decode as one batch and the
  // repeated fir/crc streams hit the decoded-stream cache.
  std::vector<RequestId> reqs;
  reqs.push_back(svc.submit_load(fir));
  reqs.push_back(svc.submit_load(crc));
  reqs.push_back(svc.submit_load(fir));  // same content: warm load
  reqs.push_back(svc.submit_load(crc));  // same content: warm load
  auto show = [&](const std::vector<RequestResult>& results) {
    for (const RequestResult& r : results) {
      std::printf("  req %lld %-8s %-8s task=%d %s%s%s\n", r.request,
                  r.kind == RequestKind::kLoad       ? "load"
                  : r.kind == RequestKind::kUnload   ? "unload"
                                                     : "relocate",
                  to_string(r.status), r.task, to_string(r.rect).c_str(),
                  r.cache_hit ? " [cache hit]" : "",
                  r.evicted_tasks > 0 ? " [evicted victims]" : "");
    }
  };
  std::printf("arrival burst (4 loads, one decode batch):\n");
  show(svc.drain());

  // The fabric is crowded; a 6x6 arrival forces the eviction planner to
  // clear the cheapest region (the least-recently-used overlap).
  std::printf("\n6x6 arrival under pressure (evict-to-fit):\n");
  svc.submit_load(aes);
  show(svc.drain());

  // A departure frees a corner; the relocation that follows copies cached
  // payloads instead of re-routing, and the returning tenant's load is a
  // pure cache hit across drains.
  std::printf("\ndeparture, cached relocation, returning tenant:\n");
  svc.submit_unload(reqs[0]);
  svc.submit_relocate(reqs[2]);
  svc.submit_load(fir);
  show(svc.drain());

  const ServiceStats& st = svc.stats();
  std::printf(
      "\nservice totals: %lld loads (%lld warm / %lld cold), %lld unloads, "
      "%lld relocates (%lld from cache), %lld task evictions\n",
      st.loads, st.warm_loads, st.cold_loads, st.unloads, st.relocates,
      st.relocates_cached, st.task_evictions);
  std::printf(
      "decoded-stream cache: %lld hits / %lld misses, %zu entries, %zu bits\n",
      svc.cache().hits(), svc.cache().misses(), svc.cache().entries(),
      svc.cache().size_bits());
  std::printf("decode performed: %lld connections, %lld node expansions\n",
              svc.stats().decode.pairs_routed,
              svc.stats().decode.nodes_expanded);
  std::printf("occupancy %.0f%%, fragmentation %.2f, eviction log: %zu\n",
              100.0 * svc.controller().occupancy(), svc.fragmentation(),
              svc.eviction_log().size());
  for (const EvictionEvent& ev : svc.eviction_log()) {
    std::printf("  evicted task %d at %s (caused by request %lld)\n", ev.task,
                to_string(ev.rect).c_str(), ev.cause);
  }
  return 0;
}
