// Shared plumbing for the experiment harnesses that regenerate the paper's
// tables and figures.
//
// Environment knobs (all optional):
//   REPRO_CIRCUITS="alu4,seq"  restrict to a comma-separated circuit list
//   REPRO_FULL=1               all 20 Table II circuits (unfinished after 25 min)
//   REPRO_SEED=<n>             synthetic-netlist / flow seed (default 1)
//
// The default set is the 10 smallest circuits (it still spans 554..1301
// logic blocks and the full MCW range) and takes 25-33 s per figure on a
// 4-vCPU host. The full 20-circuit sweep is opt-in: REPRO_FULL=1
// fig5_clustering was still on clma, the fifth circuit, when stopped
// after 25 minutes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "flow/flow.h"
#include "netlist/mcnc.h"

namespace vbs::bench {

inline std::uint64_t env_seed() {
  const char* s = std::getenv("REPRO_SEED");
  return s ? std::strtoull(s, nullptr, 10) : 1;
}

/// Table II circuits selected by the environment, in paper order.
inline std::vector<McncCircuit> selected_circuits() {
  const auto& all = mcnc20();
  if (const char* list = std::getenv("REPRO_CIRCUITS")) {
    std::vector<McncCircuit> out;
    std::string names(list);
    std::size_t pos = 0;
    while (pos < names.size()) {
      const std::size_t comma = names.find(',', pos);
      const std::string name =
          names.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (!name.empty()) out.push_back(mcnc_by_name(name));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    return out;
  }
  if (const char* full = std::getenv("REPRO_FULL"); full && full[0] == '1') {
    return all;
  }
  std::vector<McncCircuit> out(all);
  std::sort(out.begin(), out.end(),
            [](const McncCircuit& a, const McncCircuit& b) {
              return a.lbs < b.lbs;
            });
  out.resize(10);
  // Restore paper order.
  std::sort(out.begin(), out.end(),
            [&](const McncCircuit& a, const McncCircuit& b) {
              auto idx = [&](const std::string& n) {
                for (std::size_t i = 0; i < all.size(); ++i) {
                  if (all[i].name == n) return i;
                }
                return all.size();
              };
              return idx(a.name) < idx(b.name);
            });
  return out;
}

/// One-line provenance note each harness prints first.
inline void print_subset_note() {
  const bool full = std::getenv("REPRO_FULL") != nullptr;
  const bool custom = std::getenv("REPRO_CIRCUITS") != nullptr;
  std::printf(
      "circuit set: %s (REPRO_FULL=1 for all 20 Table II circuits; "
      "REPRO_CIRCUITS=a,b to select)\n\n",
      custom ? "custom" : full ? "all 20" : "10 smallest of Table II");
}

/// The paper's evaluation setup: channel width normalized to 20 tracks.
inline FlowOptions paper_flow_options() {
  FlowOptions o;
  o.arch.chan_width = 20;
  o.seed = env_seed();
  return o;
}

}  // namespace vbs::bench
