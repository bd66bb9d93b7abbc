// The 20 largest MCNC circuits as used by the paper (Table II), plus a
// factory producing a calibrated synthetic stand-in for each (the original
// BLIF files are not redistributable, so netlist/generator.h synthesizes a
// circuit from each Table II row).
//
// `size` is the logic array side, `mcw` the published minimum channel width
// found by VPR, `lbs` the number of occupied logic blocks. I/O counts are
// the classic MCNC values (they do not appear in Table II but are needed to
// build circuits; small deviations are harmless).
#pragma once

#include <string>
#include <vector>

#include "netlist/generator.h"
#include "netlist/netlist.h"

namespace vbs {

struct McncCircuit {
  std::string name;
  int size;  ///< logic array side (tiles)
  int mcw;   ///< published minimum channel width
  int lbs;   ///< published logic-block count
  int n_pi;
  int n_po;
};

/// The 20 benchmarks of Table II, in the paper's order.
const std::vector<McncCircuit>& mcnc20();

/// Looks a circuit up by name; throws std::out_of_range if unknown.
const McncCircuit& mcnc_by_name(const std::string& name);

/// Generator parameters calibrated so that the synthetic circuit matches
/// the published LB count exactly and approaches the published channel
/// demand (higher published MCW -> less local connectivity).
GenParams mcnc_gen_params(const McncCircuit& c, std::uint64_t seed = 1);

/// Convenience: build the calibrated synthetic netlist for a Table II row.
Netlist make_mcnc_like(const McncCircuit& c, std::uint64_t seed = 1);

}  // namespace vbs
