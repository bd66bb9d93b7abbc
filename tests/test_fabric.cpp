// Fabric tests: boundary-wire merging, global graph consistency, port maps.
#include <gtest/gtest.h>

#include <set>

#include "fabric/fabric.h"

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

TEST(Fabric, EdgesAreSymmetricAndTagged) {
  const ArchSpec s = small_spec();
  const Fabric f(s, 2, 2);
  for (int g = 0; g < f.num_nodes(); ++g) {
    for (const Fabric::Edge& e : f.edges(g)) {
      EXPECT_GE(e.macro, 0);
      EXPECT_LT(e.macro, f.num_macros());
      bool back = false;
      for (const Fabric::Edge& b : f.edges(e.to)) {
        back |= (b.to == g && b.macro == e.macro && b.point == e.point &&
                 b.pair == e.pair);
      }
      EXPECT_TRUE(back);
    }
  }
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

TEST(Fabric, RejectsBadDimensions) {
  EXPECT_THROW(Fabric(small_spec(), 0, 3), std::invalid_argument);
  EXPECT_THROW(FabricLayout(small_spec(), 3, 0), std::invalid_argument);
}

}  // namespace
}  // namespace vbs
