#include "bitstream/bitstream.h"

#include <cassert>

namespace vbs {

std::vector<LogicConfig> extract_logic_configs(const Netlist& nl,
                                               const PackedDesign& pd,
                                               const Placement& pl) {
  std::vector<LogicConfig> configs(
      static_cast<std::size_t>(pl.grid_w) * static_cast<std::size_t>(pl.grid_h));
  for (int i = 0; i < pd.num_luts(); ++i) {
    const Point at = pl.lut_loc[static_cast<std::size_t>(i)];
    const Block& b = nl.block(pd.luts[static_cast<std::size_t>(i)]);
    LogicConfig& lc =
        configs[static_cast<std::size_t>(at.y) * pl.grid_w + at.x];
    lc.used = true;
    lc.lut_mask = b.lut_mask;
    lc.has_ff = b.has_ff;
  }
  return configs;
}

void write_logic_bits(BitVector& out, std::size_t pos, const LogicConfig& lc,
                      const ArchSpec& spec) {
  const int mask_bits = 1 << spec.lut_k;
  for (int i = 0; i < mask_bits; ++i) {
    out.set(pos + static_cast<std::size_t>(i), (lc.lut_mask >> i) & 1u);
  }
  out.set(pos + static_cast<std::size_t>(mask_bits), lc.has_ff);
}

void append_logic_bits(BitVector& out, const LogicConfig& lc,
                       const ArchSpec& spec) {
  const std::size_t pos = out.size();
  out.resize(pos + static_cast<std::size_t>(spec.nlb_bits()));
  write_logic_bits(out, pos, lc, spec);
}

LogicConfig parse_logic_bits(const BitVector& bits, std::size_t offset,
                             const ArchSpec& spec) {
  LogicConfig lc;
  const int mask_bits = 1 << spec.lut_k;
  for (int i = 0; i < mask_bits; ++i) {
    if (bits.get(offset + static_cast<std::size_t>(i))) {
      lc.lut_mask |= std::uint64_t{1} << i;
    }
  }
  lc.has_ff = bits.get(offset + static_cast<std::size_t>(mask_bits));
  lc.used = lc.lut_mask != 0 || lc.has_ff;
  return lc;
}

std::vector<MacroSwitches> collect_switches(const Fabric& fabric,
                                            const std::vector<NetRoute>& routes) {
  std::vector<MacroSwitches> per_macro(
      static_cast<std::size_t>(fabric.num_macros()));
  for (const NetRoute& route : routes) {
    for (const NetRoute::TreeNode& tn : route.nodes) {
      if (tn.fabric_edge < 0) continue;
      const Fabric::Switch sw = fabric.edge_switch(
          fabric.edge_at(static_cast<std::size_t>(tn.fabric_edge)));
      per_macro[static_cast<std::size_t>(sw.macro)].push_back(sw.bit);
    }
  }
  return per_macro;
}

BitVector generate_raw_bitstream(const Fabric& fabric, const Netlist& nl,
                                 const PackedDesign& pd, const Placement& pl,
                                 const std::vector<NetRoute>& routes) {
  const ArchSpec& spec = fabric.spec();
  BitVector bits(fabric.config_bits_total());

  // Logic regions.
  const std::vector<LogicConfig> logic = extract_logic_configs(nl, pd, pl);
  for (int m = 0; m < fabric.num_macros(); ++m) {
    const LogicConfig& lc = logic[static_cast<std::size_t>(m)];
    if (lc.used) {
      write_logic_bits(bits, fabric.macro_config_offset(m), lc, spec);
    }
  }

  // Routing switches.
  const auto per_macro = collect_switches(fabric, routes);
  for (int m = 0; m < fabric.num_macros(); ++m) {
    const std::size_t base = fabric.macro_config_offset(m) +
                             static_cast<std::size_t>(spec.nlb_bits());
    for (const int bit : per_macro[static_cast<std::size_t>(m)]) {
      bits.set(base + static_cast<std::size_t>(bit), true);
    }
  }
  return bits;
}

}  // namespace vbs
