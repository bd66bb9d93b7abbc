// Fabric tests: boundary-wire merging, global graph consistency, port maps.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "fabric/fabric.h"
#include "util/error.h"
#include "util/hash.h"

namespace vbs {
namespace {

ArchSpec small_spec() {
  ArchSpec s;
  s.chan_width = 4;
  s.lut_k = 4;
  return s;
}

TEST(Fabric, NodeCountAccountsForMerges) {
  const ArchSpec s = small_spec();
  const MacroModel mm(s);
  const int w = 3, h = 2;
  const Fabric f(s, w, h);
  // Each interior vertical boundary merges W x-wires; horizontal likewise.
  const int merges = s.chan_width * ((w - 1) * h + w * (h - 1));
  EXPECT_EQ(f.num_nodes(), w * h * mm.num_nodes() - merges);
}

TEST(Fabric, AbuttedWiresAreOneNode) {
  const ArchSpec s = small_spec();
  const Fabric f(s, 3, 3);
  const MacroModel& mm = f.macro();
  const int px = s.pins_on_x(), py = s.pins_on_y();
  for (int t = 0; t < s.chan_width; ++t) {
    // East wire of (0,1) == west wire of (1,1).
    EXPECT_EQ(f.global_node(0, 1, mm.x(t, px)), f.global_node(1, 1, mm.xw(t)));
    // North wire of (1,0) == south wire of (1,1).
    EXPECT_EQ(f.global_node(1, 0, mm.y(t, py)), f.global_node(1, 1, mm.ys(t)));
    // Distinct tracks stay distinct.
    if (t > 0) {
      EXPECT_NE(f.global_node(0, 1, mm.x(t, px)),
                f.global_node(0, 1, mm.x(t - 1, px)));
    }
  }
}

TEST(Fabric, FabricEdgeWiresAreNotMerged) {
  const ArchSpec s = small_spec();
  const Fabric f(s, 2, 2);
  const MacroModel& mm = f.macro();
  // West wires of column 0 dangle: single (macro, port) identity.
  const int g = f.global_node(0, 0, mm.xw(0));
  EXPECT_EQ(f.node_ports(g).size(), 1u);
  // An interior boundary wire has two identities.
  const int gi = f.global_node(0, 0, mm.x(0, s.pins_on_x()));
  ASSERT_EQ(f.node_ports(gi).size(), 2u);
  const auto ports = f.node_ports(gi);
  std::set<int> macros{ports[0].macro, ports[1].macro};
  EXPECT_EQ(macros, (std::set<int>{f.macro_index(0, 0), f.macro_index(1, 0)}));
}

TEST(Fabric, EdgeCountMatchesSwitchBudget) {
  const ArchSpec s = small_spec();
  const Fabric f(s, 2, 3);
  EXPECT_EQ(f.num_edges(),
            static_cast<std::size_t>(f.num_macros()) * s.nroute_bits());
}

// Every edge's switch lies in its macro's routing region and joins the
// edge's two nodes there, and the reverse edge names the same switch.
TEST(Fabric, EdgesAreSymmetricAndTagged) {
  const ArchSpec s = small_spec();
  const Fabric f(s, 2, 2);
  const auto& points = f.macro().switch_points();
  for (int g = 0; g < f.num_nodes(); ++g) {
    for (const Fabric::Edge& e : f.edges(g)) {
      const Fabric::Switch sw = f.edge_switch(e);
      ASSERT_GE(sw.macro, 0);
      ASSERT_LT(sw.macro, f.num_macros());
      ASSERT_GE(sw.bit, 0);
      ASSERT_LT(sw.bit, s.nroute_bits());
      std::size_t pi = 0;
      while (points[pi].bit_offset + points[pi].n_switches() <= sw.bit) ++pi;
      const SwitchPoint& pt = points[pi];
      const auto [ai, bi] = pt.pair_arms(sw.bit - pt.bit_offset);
      const Point mp = f.macro_pos(sw.macro);
      EXPECT_EQ((std::set<int>{g, e.to}),
                (std::set<int>{f.global_node(mp.x, mp.y, pt.arms[ai]),
                               f.global_node(mp.x, mp.y, pt.arms[bi])}));
      bool back = false;
      for (const Fabric::Edge& b : f.edges(e.to)) {
        const Fabric::Switch bs = f.edge_switch(b);
        back |= (b.to == g && bs.macro == sw.macro && bs.bit == sw.bit);
      }
      EXPECT_TRUE(back);
    }
  }
}

/// FNV-1a-64 over the graph in CSR order: every node's edge offset, each
/// edge's (to, macro, point, pair), then the edge count. The point and pair
/// of a switch come from its routing bit through the macro model.
std::uint64_t graph_hash(const Fabric& f) {
  const auto& points = f.macro().switch_points();
  std::vector<std::pair<int, int>> point_pair(
      static_cast<std::size_t>(f.spec().nroute_bits()), {-1, -1});
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    for (int pair = 0; pair < points[pi].n_switches(); ++pair) {
      point_pair[static_cast<std::size_t>(points[pi].bit_offset + pair)] = {
          static_cast<int>(pi), pair};
    }
  }
  std::uint64_t h = kFnvOffset64;
  for (int g = 0; g < f.num_nodes(); ++g) {
    h = hash_u64(h, f.edge_offset(g));
    for (const Fabric::Edge& e : f.edges(g)) {
      const Fabric::Switch sw = f.edge_switch(e);
      const auto [point, pair] =
          point_pair.at(static_cast<std::size_t>(sw.bit));
      for (const int v : {static_cast<int>(e.to), sw.macro, point, pair}) {
        h = hash_u64(h, static_cast<std::uint64_t>(v));
      }
    }
  }
  return hash_u64(h, f.num_edges());
}

// The graph's node numbering, CSR order and switch tags: route trees name
// switches by their index in this order (NetRoute::fabric_edge, route.art),
// so a layout change must leave every one of them where it was.
TEST(Fabric, GraphIsPinned) {
  const ArchSpec paper;  // W = 20, K = 6
  EXPECT_EQ(graph_hash(Fabric(paper, 6, 6)), 18033116760182886516ull);
  EXPECT_EQ(graph_hash(Fabric(paper, 28, 28)), 6647217861739617147ull);
  EXPECT_EQ(graph_hash(Fabric(small_spec(), 2, 3)), 16479732158274134940ull);
}

TEST(Fabric, SwitchConfigBitsUniqueAcrossFabric) {
  const ArchSpec s = small_spec();
  const Fabric f(s, 2, 2);
  std::set<std::size_t> seen;
  const auto& points = f.macro().switch_points();
  for (int m = 0; m < f.num_macros(); ++m) {
    for (std::size_t pi = 0; pi < points.size(); ++pi) {
      for (int pair = 0; pair < points[pi].n_switches(); ++pair) {
        const std::size_t bit = f.switch_config_bit(m, static_cast<int>(pi), pair);
        EXPECT_TRUE(seen.insert(bit).second);
        EXPECT_LT(bit, f.config_bits_total());
        // Never inside a logic region.
        EXPECT_GE(static_cast<int>(bit % s.nraw_bits()), s.nlb_bits());
      }
    }
  }
}

TEST(Fabric, PortGlobalMatchesLocalPortNodes) {
  const ArchSpec s = small_spec();
  const Fabric f(s, 3, 3);
  const MacroModel& mm = f.macro();
  for (int port = 0; port < mm.num_ports(); ++port) {
    EXPECT_EQ(f.port_global(1, 1, port),
              f.global_node(1, 1, mm.port_node(port)));
  }
  // Shared wire is the same port node seen from both sides.
  EXPECT_EQ(f.port_global(1, 1, mm.port_of_side(Side::kEast, 2)),
            f.port_global(2, 1, mm.port_of_side(Side::kWest, 2)));
}

TEST(Fabric, NodePositionsWithinGrid) {
  const ArchSpec s = small_spec();
  const Fabric f(s, 4, 3);
  for (int g = 0; g < f.num_nodes(); ++g) {
    const Point p = f.node_pos(g);
    EXPECT_GE(p.x, 0);
    EXPECT_LT(p.x, 4);
    EXPECT_GE(p.y, 0);
    EXPECT_LT(p.y, 3);
  }
}

// node_local names a node by its id in the macro at node_pos, the tile the
// router's lookahead measures from; an abutted wire keeps one of its two.
TEST(Fabric, NodeLocalIsTheNodesIdAtItsTile) {
  const ArchSpec s = small_spec();
  const Fabric f(s, 4, 3);
  for (int g = 0; g < f.num_nodes(); ++g) {
    const Point p = f.node_pos(g);
    EXPECT_EQ(f.global_node(p.x, p.y, f.node_local(g)), g) << "node " << g;
  }
  // The shared east/west wire is named from the eastern tile.
  const MacroModel& mm = f.macro();
  const int shared = f.global_node(1, 1, mm.x(2, s.pins_on_x()));
  EXPECT_EQ(f.node_pos(shared), (Point{2, 1}));
  EXPECT_EQ(f.node_local(shared), mm.xw(2));
}

// The graph costs 8 bytes per directed edge plus a fixed term per node:
// CSR offsets, positions, raw-id map and port identities.
TEST(Fabric, BytesStayWithinEightPerEdge) {
  const Fabric f(ArchSpec{}, 32, 32);  // W = 20, K = 6
  const std::size_t directed = 2 * f.num_edges();
  const auto nodes = static_cast<std::size_t>(f.num_nodes());
  EXPECT_GE(f.bytes(), 8 * directed + 8 * nodes);
  EXPECT_LE(f.bytes(), 8 * directed + 24 * nodes + f.macro().bytes());
}

// A fabric whose directed edges overflow int32 is refused before any graph
// array is allocated (the test_fabric_guard_ulimit ctest case runs this
// under an address-space limit), as is one whose macro count overflows int.
TEST(Fabric, RejectsGraphBeyondInt32Edges) {
  const ArchSpec s = small_spec();
  ASSERT_GT(std::int64_t{3000} * 3000 * 2 * s.nroute_bits(),
            std::int64_t{INT32_MAX});
  auto expect_limit = [&](int w, int h) {
    try {
      const Fabric f(s, w, h);
      ADD_FAILURE() << w << "x" << h << " fabric constructed";
    } catch (const VbsError& e) {
      EXPECT_EQ(e.code(), VbsErrc::kResourceLimit) << e.what();
    }
  };
  expect_limit(3000, 3000);
  expect_limit(100'000, 100'000);
}

TEST(Fabric, RejectsBadDimensions) {
  EXPECT_THROW(Fabric(small_spec(), 0, 3), std::invalid_argument);
  EXPECT_THROW(FabricLayout(small_spec(), 3, 0), std::invalid_argument);
}

}  // namespace
}  // namespace vbs
