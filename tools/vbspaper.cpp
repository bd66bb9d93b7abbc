// vbspaper — regenerates the paper's results on the synthetic MCNC
// stand-ins: Fig. 4 (raw bit-stream vs VBS size), Fig. 5 (VBS size vs
// macro cluster size), the feedback-loop ablation of Section III-B and
// Table II (logic-block count and minimum channel width, MCW).
//
// Usage:  vbspaper [circuit... | all] [--table2]
//
// Circuits are Table II names, run in the order given. None selects the 10
// smallest (554..1301 logic blocks, published MCW 8..15), `all` the 20;
// both run in paper order.
//
// By default each circuit is placed and routed once at the paper's
// normalized channel width of 20 and encoded at every size in kClusters.
// Every stream is serialized, parsed back, decoded and checked for
// electrical equivalence with the routed netlist: a size claim for a stream
// that does not decode would be meaningless. The ablation's "full" mode is
// that default encode; its other modes run at c = 1 and 2. --table2 instead
// binary-searches each circuit's MCW on its Table II array.
//
// Exit status: 0 when every circuit routes at W = 20 and every stream
// verifies (under --table2: every MCW search finds a width), else 1.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "bitstream/connectivity.h"
#include "flow/flow.h"
#include "netlist/mcnc.h"
#include "pack/pack.h"
#include "place/annealer.h"
#include "route/mcw.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "vbs/devirtualizer.h"
#include "vbs/vbs_format.h"

using namespace vbs;

namespace {

constexpr const char* kUsage = "vbspaper [circuit... | all] [--table2]";

constexpr int kClusters[] = {1, 2, 3, 4, 5, 8, 10};
constexpr std::size_t kNumClusters = std::size(kClusters);
/// The ablation runs at the first two cluster sizes, c = 1 and 2.
constexpr std::size_t kAblationClusters = 2;

/// The feedback-loop ablation's encoder modes besides the default ("full":
/// negotiation + re-ordering + raw fallback).
struct AblationMode {
  const char* name;
  bool greedy;      ///< pure greedy decoder (1 negotiation iteration)
  bool no_reorder;  ///< first-order-only feedback
  bool force_raw;   ///< no virtualization: raw coding per region
};
constexpr AblationMode kAblationModes[] = {
    {"greedy", true, false, false},
    {"no-reorder", false, true, false},
    {"greedy-only", true, true, false},  // the naive baseline
    {"force-raw", false, false, true},
};

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string percent(double ratio) {
  return TablePrinter::fmt(100.0 * ratio, 1) + "%";
}

/// Rounded to the nearest bit: the geomean of equal sizes is exp(mean log)
/// and can land a hair under them.
std::string bits(double v) {
  return TablePrinter::fmt_bits(
      static_cast<unsigned long long>(std::llround(v)));
}

/// The paper's evaluation setup: channel width normalized to 20 tracks.
FlowOptions paper_flow_options() {
  FlowOptions o;
  o.arch.chan_width = 20;
  return o;
}

std::vector<McncCircuit> select_circuits(const std::vector<std::string>& names) {
  const std::vector<McncCircuit>& all = mcnc20();
  if (names.size() == 1 && names[0] == "all") return all;
  std::vector<McncCircuit> out;
  if (names.empty()) {
    std::vector<int> lbs;
    for (const McncCircuit& c : all) lbs.push_back(c.lbs);
    std::nth_element(lbs.begin(), lbs.begin() + 9, lbs.end());
    std::copy_if(all.begin(), all.end(), std::back_inserter(out),
                 [&](const McncCircuit& c) { return c.lbs <= lbs[9]; });
    return out;
  }
  for (const std::string& name : names) out.push_back(mcnc_by_name(name));
  return out;
}

std::vector<std::string> ablation_row(const std::string& circuit,
                                      const char* mode, const EncodeStats& s) {
  return {circuit, mode, percent(s.compression_ratio()),
          TablePrinter::fmt_int(s.raw_entries) + "/" +
              TablePrinter::fmt_int(s.entries),
          TablePrinter::fmt_int(s.reordered_entries),
          TablePrinter::fmt_int(s.connections)};
}

/// Fig. 4, Fig. 5, the ablation and the per-circuit size/decode-time rows
/// from one place-and-route per circuit. Returns the number of failures.
int run_figures(const std::vector<McncCircuit>& circuits) {
  const FlowOptions opts = paper_flow_options();
  std::vector<Summary> sizes(kNumClusters), ratios(kNumClusters);
  // Per c, summed over circuits: stream, connection-list and logic bits.
  std::vector<double> vbs_bits(kNumClusters), list_bits(kNumClusters),
      logic_bits(kNumClusters);
  TablePrinter fig4({"Name", "BS (bits)", "VBS (bits)", "VBS/BS", "factor",
                     "raw-coded macros", "verified"});
  std::vector<TablePrinter> ablation(
      kAblationClusters, TablePrinter({"circuit", "mode", "VBS/BS",
                                       "raw-coded regions", "reordered",
                                       "connections"}));
  std::vector<std::pair<std::string, TablePrinter>> per_circuit;
  int failures = 0;

  for (const McncCircuit& c : circuits) {
    const FlowResult r = run_mcnc_flow(c, opts);
    if (!r.routed()) {
      std::printf("# %s unroutable at W=20, skipped\n", c.name.c_str());
      ++failures;
      continue;
    }
    const auto encode = [&](const EncodeOptions& eo, EncodeStats* s) {
      return encode_vbs(*r.fabric, r.netlist, r.packed, r.placement,
                        r.routing.routes, eo, s);
    };
    TablePrinter rows({"cluster", "entries", "connections", "VBS (bits)",
                       "VBS/BS", "encode (s)", "decode (s)", "verified"});
    std::printf("# %s:", c.name.c_str());
    for (std::size_t ci = 0; ci < kNumClusters; ++ci) {
      EncodeOptions eo;
      eo.cluster = kClusters[ci];
      EncodeStats s;
      const auto t0 = Clock::now();
      const VbsImage img = encode(eo, &s);
      const double encode_s = seconds_since(t0);
      const VbsImage parsed = deserialize_vbs(serialize_vbs(img));
      const auto t1 = Clock::now();
      const BitVector decoded = devirtualize_image(parsed, *r.fabric, {0, 0});
      const double decode_s = seconds_since(t1);
      std::string verdict = verify_connectivity(*r.fabric, decoded, r.netlist,
                                                r.packed, r.placement);
      failures += !verdict.empty();
      if (verdict.empty()) verdict = "ok";

      const double ratio = s.compression_ratio();
      sizes[ci].add(static_cast<double>(s.vbs_bits));
      vbs_bits[ci] += static_cast<double>(s.vbs_bits);
      list_bits[ci] += static_cast<double>(s.size.list);
      logic_bits[ci] += static_cast<double>(s.size.logic);
      ratios[ci].add(ratio);
      rows.add_row({TablePrinter::fmt_int(kClusters[ci]),
                    TablePrinter::fmt_int(s.entries),
                    TablePrinter::fmt_int(s.connections),
                    TablePrinter::fmt_bits(s.vbs_bits), percent(ratio),
                    TablePrinter::fmt(encode_s, 2),
                    TablePrinter::fmt(decode_s, 2), verdict});
      if (ci == 0) {
        fig4.add_row({c.name, TablePrinter::fmt_bits(s.raw_bits),
                      TablePrinter::fmt_bits(s.vbs_bits), percent(ratio),
                      TablePrinter::fmt(1.0 / ratio, 2) + "x",
                      TablePrinter::fmt_int(s.raw_entries), verdict});
      }
      if (ci < kAblationClusters) {
        ablation[ci].add_row(ablation_row(c.name, "full", s));
        for (const AblationMode& m : kAblationModes) {
          EncodeOptions mo = eo;
          if (m.greedy) mo.decode_iterations = 1;
          mo.no_reorder = m.no_reorder;
          mo.force_raw = m.force_raw;
          EncodeStats ms;
          encode(mo, &ms);
          ablation[ci].add_row(ablation_row(c.name, m.name, ms));
        }
      }
      std::printf(" c%d=%.1f%%", kClusters[ci], 100.0 * ratio);
      std::fflush(stdout);
    }
    std::printf("\n");
    per_circuit.emplace_back(c.name, std::move(rows));
  }
  if (ratios[0].count() == 0) return failures;

  std::printf(
      "\nFigure 4: raw bit-stream vs Virtual Bit-Stream size (W = 20, "
      "cluster = 1)\n");
  std::printf("Paper reports an average VBS size of 41%% of raw (~2.4x).\n\n");
  fig4.print();
  std::printf("\naverage VBS/BS ratio  : %.1f%%  (paper: 41%%)\n",
              100.0 * ratios[0].mean());
  std::printf("geomean compression   : %.2fx (paper: ~2.4x avg)\n",
              1.0 / ratios[0].geomean());
  std::printf("best / worst circuit  : %.1f%% / %.1f%%\n",
              100.0 * ratios[0].min(), 100.0 * ratios[0].max());

  std::printf(
      "\nFigure 5: effect of macro cluster size on the VBS size (W = 20)\n");
  std::printf(
      "Paper: ratio drops from 41%% (c=1) to 9-15%% for c>=2, with\n"
      "diminishing returns (or worse) at large sizes.\n\n");
  TablePrinter fig5({"cluster", "geomean VBS (bits)", "min (bits)",
                     "max (bits)", "avg ratio", "factor", "list share",
                     "logic share"});
  for (std::size_t ci = 0; ci < kNumClusters; ++ci) {
    fig5.add_row({TablePrinter::fmt_int(kClusters[ci]),
                  bits(sizes[ci].geomean()), bits(sizes[ci].min()),
                  bits(sizes[ci].max()), percent(ratios[ci].mean()),
                  TablePrinter::fmt(1.0 / ratios[ci].mean(), 2) + "x",
                  percent(list_bits[ci] / vbs_bits[ci]),
                  percent(logic_bits[ci] / vbs_bits[ci])});
  }
  fig5.print();
  std::printf(
      "\nlist share, logic share: connection-list and logic bits as a share\n"
      "of all circuits' VBS bits at that cluster size.\n");
  std::printf("\nc=1 -> c=2 compression gain: %.2fx (paper: ~4x)\n",
              ratios[0].mean() / ratios[1].mean());

  std::printf("\nFeedback-loop ablation (W = 20). Sizes as %% of raw BS.\n");
  for (std::size_t ci = 0; ci < kAblationClusters; ++ci) {
    std::printf("\ncluster size %d:\n", kClusters[ci]);
    ablation[ci].print();
  }

  std::printf(
      "\nPer circuit: size falls as clusters grow while decode time rises,\n"
      "the compression/runtime trade-off of paper Section IV-B.\n");
  for (const auto& [name, rows] : per_circuit) {
    std::printf("\n%s:\n", name.c_str());
    rows.print();
  }
  return failures;
}

/// Table II: published LB count and MCW next to this flow's. Returns the
/// number of circuits whose MCW search found no width.
int run_table2(const std::vector<McncCircuit>& circuits) {
  const FlowOptions base = paper_flow_options();
  std::printf("Table II: benchmark set (paper values vs this reproduction)\n");
  std::printf("Synthetic MCNC stand-ins, K=6 LUTs, MCW by binary search.\n\n");

  TablePrinter table({"Name", "Size", "LBs (paper)", "LBs (ours)",
                      "MCW (paper)", "MCW (ours)", "trials", "sec"});
  int mcw_diff_sum = 0;
  int measured = 0;
  for (const McncCircuit& c : circuits) {
    const auto t0 = Clock::now();
    const Netlist nl = make_mcnc_like(c, base.seed);
    const PackedDesign pd = pack_netlist(nl, base.arch);
    const Placement pl =
        place_design(nl, pd, base.arch, c.size, c.size, base.place);
    McwOptions mo;
    mo.router.max_iterations = 25;
    mo.router.stall_abort = 4;
    mo.hi = 40;
    mo.hint = c.mcw;  // probe the published value first
    const McwResult res = find_min_channel_width(base.arch, nl, pd, pl, mo);

    table.add_row({c.name, TablePrinter::fmt_int(c.size),
                   TablePrinter::fmt_int(c.lbs),
                   TablePrinter::fmt_int(nl.num_luts()),
                   TablePrinter::fmt_int(c.mcw),
                   res.mcw < 0 ? "unroutable" : TablePrinter::fmt_int(res.mcw),
                   TablePrinter::fmt_int(res.trials),
                   TablePrinter::fmt(seconds_since(t0), 1)});
    if (res.mcw > 0) {
      mcw_diff_sum += std::abs(res.mcw - c.mcw);
      ++measured;
    }
  }
  table.print();
  if (measured > 0) {
    std::printf("\nmean |MCW(ours) - MCW(paper)| = %.2f tracks over %d circuits\n",
                static_cast<double>(mcw_diff_sum) / measured, measured);
  }
  return static_cast<int>(circuits.size()) - measured;
}

}  // namespace

int main(int argc, char** argv) {
  return tool_main("vbspaper", kUsage, [&] {
    const CliArgs args(argc, argv, {}, {"--table2"});
    const std::vector<McncCircuit> circuits = select_circuits(args.positional());
    std::printf("circuits:");
    for (const McncCircuit& c : circuits) std::printf(" %s", c.name.c_str());
    std::printf("\n\n");
    std::fflush(stdout);

    const int failures = args.has_flag("--table2") ? run_table2(circuits)
                                                   : run_figures(circuits);
    if (failures == 0) return 0;
    std::fprintf(stderr, "vbspaper: %d check(s) failed\n", failures);
    return 1;
  });
}
