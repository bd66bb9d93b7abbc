// Quality gate for the router's A* heuristic: the paper's metric (VBS size)
// and Table II's channel demand on the largest compile-workload circuit.
//
// The bounds are upper bounds, not pins: a router change may shrink the
// streams or the minimum channel width, never grow them. The Manhattan
// bounds are des's version-2 stream sizes at the paper's W = 20 as routed
// with the Manhattan heuristic the lookahead router replaced, and hold the
// same images coded in version 2; the version-3 bounds are the sizes of
// the streams the encoder writes today. The MCW bound is what the
// Manhattan router's search found with vbspaper's Table II settings.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>

#include "flow/pipeline.h"
#include "netlist/mcnc.h"
#include "pack/pack.h"
#include "place/annealer.h"
#include "route/mcw.h"

namespace vbs {
namespace {

TEST(RouteQuality, DesVbsBitsAtW20NoLargerThanManhattanRoute) {
  struct Bound {
    int cluster;
    std::size_t manhattan_v2_bits;
    std::size_t v3_bits;
  };
  constexpr std::array<Bound, 4> kBounds = {{
      {1, 205476, 202350},
      {2, 135320, 128175},
      {4, 109382, 98887},
      {8, 102146, 87489},
  }};
  const McncCircuit& des = mcnc_by_name("des");
  FlowOptions o;
  o.arch.chan_width = 20;
  FlowPipeline pipe(make_mcnc_like(des, o.seed), des.size, des.size, o);
  ASSERT_TRUE(pipe.routing().success);
  for (const Bound& b : kBounds) {
    SCOPED_TRACE("cluster " + std::to_string(b.cluster));
    EncodeOptions eo;
    eo.cluster = b.cluster;
    pipe.set_encode_options(eo);
    VbsImage v2 = pipe.vbs_image();
    ASSERT_EQ(v2.version, kVbsVersion);
    v2.version = kVbsVersionFullPairs;
    const std::size_t v2_bits = serialize_vbs(v2).size();
    const std::size_t v3_bits = pipe.encode_stats().vbs_bits;
    EXPECT_LE(v2_bits, b.manhattan_v2_bits);
    EXPECT_LE(v3_bits, b.v3_bits);
    // The same_in bit never makes a stream longer than its version-2 twin.
    EXPECT_LE(v3_bits, v2_bits);
  }
}

TEST(RouteQuality, DesTable2McwNoWiderThanManhattanSearch) {
  const McncCircuit& des = mcnc_by_name("des");
  FlowOptions o;
  o.arch.chan_width = 20;
  const Netlist nl = make_mcnc_like(des, o.seed);
  const PackedDesign pd = pack_netlist(nl, o.arch);
  const Placement pl = place_design(nl, pd, o.arch, des.size, des.size, o.place);
  // vbspaper --table2's search settings.
  McwOptions mo;
  mo.router.max_iterations = 25;
  mo.router.stall_abort = 4;
  mo.hi = 40;
  mo.hint = des.mcw;
  const McwResult res = find_min_channel_width(o.arch, nl, pd, pl, mo);
  ASSERT_GT(res.mcw, 0);
  EXPECT_LE(res.mcw, 11);
}

}  // namespace
}  // namespace vbs
