// End-to-end design flow driver (paper Fig. 3): netlist -> pack -> place ->
// route -> raw bit-stream / Virtual Bit-Stream. run_flow/run_mcnc_flow are
// the one-shot convenience entry points; they are thin wrappers over the
// stage-graph FlowPipeline (flow/pipeline.h), which additionally offers
// per-stage artifacts, observers, checkpoint/resume and partial reruns.
#pragma once

#include <memory>

#include "arch/arch_spec.h"
#include "fabric/fabric.h"
#include "netlist/mcnc.h"
#include "netlist/netlist.h"
#include "pack/pack.h"
#include "place/annealer.h"
#include "route/route_request.h"
#include "route/router.h"
#include "vbs/encoder.h"

namespace vbs {

struct FlowOptions {
  ArchSpec arch;  ///< chan_width is the normalized width (paper uses 20)
  std::uint64_t seed = 1;
  /// place.seed == 0 (the default) means "inherit FlowOptions::seed"; any
  /// nonzero placer seed — including 1 — is honored verbatim.
  PlaceOptions place;
  RouterOptions route;
};

struct FlowResult {
  Netlist netlist;
  PackedDesign packed;
  Placement placement;
  std::unique_ptr<Fabric> fabric;
  RoutingResult routing;

  bool routed() const { return routing.success; }
};

/// Packs, places and routes `nl` on a grid_w x grid_h fabric.
FlowResult run_flow(Netlist nl, int grid_w, int grid_h,
                    const FlowOptions& opts = {});

/// Full flow for a Table II circuit: calibrated synthetic netlist on the
/// published array size.
FlowResult run_mcnc_flow(const McncCircuit& circuit,
                         const FlowOptions& opts = {});

}  // namespace vbs
