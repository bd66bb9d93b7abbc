// Architecture-model tests: the paper's switch-budget formula (Eq. 1), the
// canonical configuration-bit layout, and structural invariants of the
// macro's internal routing graph.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "arch/arch_spec.h"
#include "arch/macro_model.h"

namespace vbs {
namespace {

TEST(ArchSpec, PaperExampleW5) {
  // Section II-B: W=5, 6-LUT: NLB=65, NC+=28, NCT=7, NS=5 -> Nraw=284.
  ArchSpec s;
  s.chan_width = 5;
  s.lut_k = 6;
  EXPECT_EQ(s.nlb_bits(), 65);
  EXPECT_EQ(s.lb_pins(), 7);
  EXPECT_EQ(s.cross_points(), 28);
  EXPECT_EQ(s.tee_points(), 7);
  EXPECT_EQ(s.sb_points(), 5);
  EXPECT_EQ(s.nraw_bits(), 284);
}

TEST(ArchSpec, NormalizedW20) {
  ArchSpec s;  // defaults: W=20, K=6
  EXPECT_EQ(s.nraw_bits(), 1004);
  EXPECT_EQ(s.ports_per_macro(), 87);
}

TEST(ArchSpec, ValidateRejectsBadValues) {
  ArchSpec s;
  s.chan_width = 1;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.chan_width = 20;
  s.lut_k = 7;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.lut_k = 1;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(ArchSpec, PinSplit) {
  ArchSpec s;
  EXPECT_EQ(s.pins_on_x(), 4);
  EXPECT_EQ(s.pins_on_y(), 3);
  EXPECT_EQ(s.pins_on_x() + s.pins_on_y(), s.lb_pins());
}

class MacroModelTest : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  ArchSpec spec() const {
    ArchSpec s;
    s.chan_width = GetParam().first;
    s.lut_k = GetParam().second;
    return s;
  }
};

TEST_P(MacroModelTest, ConfigBitsMatchEquationOne) {
  const MacroModel mm(spec());
  EXPECT_EQ(mm.num_route_bits(), spec().nroute_bits());
  // Sum over switch points must cover the routing region exactly, without
  // gaps or overlaps.
  std::set<int> bits;
  for (const SwitchPoint& pt : mm.switch_points()) {
    for (int i = 0; i < pt.n_switches(); ++i) {
      EXPECT_TRUE(bits.insert(pt.bit_offset + i).second);
    }
  }
  EXPECT_EQ(static_cast<int>(bits.size()), mm.num_route_bits());
  EXPECT_EQ(*bits.begin(), 0);
  EXPECT_EQ(*bits.rbegin(), mm.num_route_bits() - 1);
}

TEST_P(MacroModelTest, SwitchPointCounts) {
  const MacroModel mm(spec());
  int sb = 0, cross = 0, tee = 0;
  for (const SwitchPoint& pt : mm.switch_points()) {
    switch (pt.kind) {
      case SwitchPoint::Kind::kSwitchBox: ++sb; break;
      case SwitchPoint::Kind::kCross: ++cross; break;
      case SwitchPoint::Kind::kTee: ++tee; break;
    }
  }
  EXPECT_EQ(sb, spec().sb_points());
  EXPECT_EQ(cross, spec().cross_points());
  EXPECT_EQ(tee, spec().tee_points());
}

TEST_P(MacroModelTest, PortsAreBijective) {
  const MacroModel mm(spec());
  std::set<int> nodes;
  for (int port = 0; port < mm.num_ports(); ++port) {
    const int n = mm.port_node(port);
    EXPECT_TRUE(nodes.insert(n).second) << "two ports on one node";
    EXPECT_EQ(mm.node_port(n), port);
  }
  int port_nodes = 0;
  for (int n = 0; n < mm.num_nodes(); ++n) {
    port_nodes += (mm.node_port(n) >= 0);
  }
  EXPECT_EQ(port_nodes, mm.num_ports());
}

TEST_P(MacroModelTest, AdjacencyIsSymmetric) {
  const MacroModel mm(spec());
  for (int n = 0; n < mm.num_nodes(); ++n) {
    for (const MacroModel::Adj& a : mm.adjacency(n)) {
      bool back = false;
      for (const MacroModel::Adj& b : mm.adjacency(a.to)) {
        back |= (b.to == n && b.point == a.point && b.pair == a.pair);
      }
      EXPECT_TRUE(back) << mm.node_name(n) << " -> " << mm.node_name(a.to);
    }
  }
}

TEST_P(MacroModelTest, EveryNodeTouchesASwitch) {
  const MacroModel mm(spec());
  for (int n = 0; n < mm.num_nodes(); ++n) {
    EXPECT_FALSE(mm.adjacency(n).empty()) << mm.node_name(n);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MacroModelTest,
                         ::testing::Values(std::pair{5, 6}, std::pair{20, 6},
                                           std::pair{8, 4}, std::pair{12, 5},
                                           std::pair{3, 2}, std::pair{32, 6}));

TEST(MacroModel, PairIndexRoundTrip) {
  ArchSpec s;
  const MacroModel mm(s);
  for (const SwitchPoint& pt : mm.switch_points()) {
    for (int pair = 0; pair < pt.n_switches(); ++pair) {
      const auto [a, b] = pt.pair_arms(pair);
      EXPECT_EQ(pt.pair_index(a, b), pair);
    }
  }
}

TEST(MacroModel, WiltonPatternDiffersFromDisjoint) {
  ArchSpec dis;
  ArchSpec wil;
  wil.sb_pattern = SbPattern::kWilton;
  const MacroModel md(dis), mw(wil);
  // Same budget, different topology.
  EXPECT_EQ(md.num_route_bits(), mw.num_route_bits());
  bool any_diff = false;
  for (std::size_t i = 0; i < md.switch_points().size(); ++i) {
    if (md.switch_points()[i].kind == SwitchPoint::Kind::kSwitchBox) {
      any_diff |= md.switch_points()[i].arms != mw.switch_points()[i].arms;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(MacroModel, NodeNamesAreUnique) {
  ArchSpec s;
  s.chan_width = 6;
  const MacroModel mm(s);
  std::set<std::string> names;
  for (int n = 0; n < mm.num_nodes(); ++n) {
    EXPECT_TRUE(names.insert(mm.node_name(n)).second);
  }
}

}  // namespace
}  // namespace vbs
