// Raw configuration bit-stream generation.
//
// The raw format is the flat configuration-memory image the paper compares
// against: macros in row-major order, Nraw bits each — NLB logic bits (LUT
// mask LSB-first, then the FF-select bit) followed by the routing switch
// bits in MacroModel's canonical switch-point order. A task occupying a
// w x h region therefore costs exactly w*h*Nraw bits (paper Section II-B).
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/fabric.h"
#include "netlist/netlist.h"
#include "pack/pack.h"
#include "place/placement.h"
#include "route/router.h"
#include "util/bitvector.h"

namespace vbs {

/// Logic configuration of one macro, extracted from the packed design.
struct LogicConfig {
  bool used = false;
  std::uint64_t lut_mask = 0;
  bool has_ff = false;
};

/// Per-macro logic configuration for a placed design, row-major.
std::vector<LogicConfig> extract_logic_configs(const Netlist& nl,
                                               const PackedDesign& pd,
                                               const Placement& pl);

/// Overwrites the NLB logic bits of one macro at `pos`: mask LSB-first,
/// then the FF bit.
void write_logic_bits(BitVector& out, std::size_t pos, const LogicConfig& lc,
                      const ArchSpec& spec);
/// Appends one macro's NLB logic bits in write_logic_bits' layout.
void append_logic_bits(BitVector& out, const LogicConfig& lc,
                       const ArchSpec& spec);
/// Parses NLB logic bits back (inverse of append_logic_bits).
LogicConfig parse_logic_bits(const BitVector& bits, std::size_t offset,
                             const ArchSpec& spec);

/// Generates the full raw bit-stream of a routed design on `fabric`.
/// Every switch used by a route tree is set; all other bits are 0.
BitVector generate_raw_bitstream(const Fabric& fabric, const Netlist& nl,
                                 const PackedDesign& pd, const Placement& pl,
                                 const std::vector<NetRoute>& routes);

/// The set of ON routing switches of one macro, as absolute bit indices
/// within the macro's routing region [0, Nraw-NLB).
using MacroSwitches = std::vector<int>;

/// Collects per-macro ON-switch lists from route trees (used by both the
/// raw generator and the VBS encoder's raw-fallback path).
std::vector<MacroSwitches> collect_switches(const Fabric& fabric,
                                            const std::vector<NetRoute>& routes);

}  // namespace vbs
