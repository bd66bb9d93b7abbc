// De-virtualizer unit tests on hand-crafted connection lists: the stateful
// greedy decode, fan-out sharing, port reservation, failure modes. Plus
// golden pins through the whole flow: exact stream, config and search-count
// values that any change to the A* kernels must reproduce.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "arch/lookahead.h"
#include "bitstream/connectivity.h"
#include "flow/pipeline.h"
#include "netlist/generator.h"
#include "netlist/mcnc.h"
#include "errc.h"
#include "rtc/service/stream_cache.h"
#include "vbs/devirtualizer.h"
#include "vbs/vbs_file.h"
#include "vbs/region_model.h"

namespace vbs {
namespace {

ArchSpec spec5() {
  ArchSpec s;
  s.chan_width = 5;
  return s;
}

/// Union-find over region nodes given a decoded routing payload: the test's
/// independent model of what the switches connect.
class PayloadConn {
 public:
  PayloadConn(const RegionModel& rm, const BitVector& payload) : rm_(&rm) {
    parent_.resize(static_cast<std::size_t>(rm.num_nodes()));
    std::iota(parent_.begin(), parent_.end(), 0);
    const auto& points = rm.macro().switch_points();
    for (int m = 0; m < rm.num_macros(); ++m) {
      const int ux = m % rm.cluster(), uy = m / rm.cluster();
      for (std::size_t pi = 0; pi < points.size(); ++pi) {
        const SwitchPoint& pt = points[pi];
        for (int pair = 0; pair < pt.n_switches(); ++pair) {
          if (!payload.get(static_cast<std::size_t>(
                  rm.switch_bit(m, static_cast<int>(pi), pair)))) {
            continue;
          }
          const auto [ai, bi] = pt.pair_arms(pair);
          unite(rm.node_of(ux, uy, pt.arms[ai]),
                rm.node_of(ux, uy, pt.arms[bi]));
        }
      }
    }
  }

  bool connected(int port_a, int port_b) {
    return find(rm_->port_node(port_a)) == find(rm_->port_node(port_b));
  }

 private:
  int find(int a) {
    while (parent_[static_cast<std::size_t>(a)] != a) {
      a = parent_[static_cast<std::size_t>(a)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(a)])];
    }
    return a;
  }
  void unite(int a, int b) { parent_[static_cast<std::size_t>(find(a))] = find(b); }

  const RegionModel* rm_;
  std::vector<int> parent_;
};

VbsEntry entry_with(std::vector<VbsConnection> conns, int c = 1) {
  VbsEntry e;
  e.logic.resize(static_cast<std::size_t>(c) * c);
  e.conns = std::move(conns);
  return e;
}

TEST(Devirtualizer, StraightThroughTrack) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  // west track 2 -> east track 2.
  const int in = rm.port_of_side(Side::kWest, 0, 2);
  const int out = rm.port_of_side(Side::kEast, 0, 2);
  BitVector payload;
  ASSERT_TRUE(dv.decode_entry(entry_with({{static_cast<std::uint16_t>(in),
                                           static_cast<std::uint16_t>(out)}}),
                              kVbsVersion, payload));
  EXPECT_GT(payload.popcount(), 0u);
  PayloadConn pc(rm, payload);
  EXPECT_TRUE(pc.connected(in, out));
  // An undeclared port must stay isolated.
  EXPECT_FALSE(pc.connected(in, rm.port_of_side(Side::kNorth, 0, 2)));
}

TEST(Devirtualizer, TrackToPinAndFanout) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  const auto in = static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, 1));
  const auto pin = static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 2));
  const auto east = static_cast<std::uint16_t>(rm.port_of_side(Side::kEast, 0, 1));
  BitVector payload;
  DecodeStats stats;
  ASSERT_TRUE(
      dv.decode_entry(entry_with({{in, pin}, {in, east}}), kVbsVersion,
                      payload, &stats));
  EXPECT_EQ(stats.pairs_routed, 2);
  PayloadConn pc(rm, payload);
  EXPECT_TRUE(pc.connected(in, pin));
  EXPECT_TRUE(pc.connected(in, east));  // fan-out: same signal
}

TEST(Devirtualizer, PinToPinThroughChannel) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  // LUT output (pin L-1 = 6) feeding back to an input pin of the same LB.
  const auto out_pin = static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 6));
  const auto in_pin = static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 3));
  BitVector payload;
  ASSERT_TRUE(
      dv.decode_entry(entry_with({{out_pin, in_pin}}), kVbsVersion, payload));
  PayloadConn pc(rm, payload);
  EXPECT_TRUE(pc.connected(out_pin, in_pin));
}

TEST(Devirtualizer, TwoSignalsStayDisjoint) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  const auto in1 = static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, 0));
  const auto out1 = static_cast<std::uint16_t>(rm.port_of_side(Side::kEast, 0, 0));
  const auto in2 = static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, 3));
  const auto out2 = static_cast<std::uint16_t>(rm.port_of_side(Side::kEast, 0, 3));
  BitVector payload;
  ASSERT_TRUE(
      dv.decode_entry(entry_with({{in1, out1}, {in2, out2}}), kVbsVersion,
                      payload));
  PayloadConn pc(rm, payload);
  EXPECT_TRUE(pc.connected(in1, out1));
  EXPECT_TRUE(pc.connected(in2, out2));
  EXPECT_FALSE(pc.connected(in1, in2));
}

TEST(Devirtualizer, RejectsSharedOutAcrossSignals) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  const auto in1 = static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, 0));
  const auto in2 = static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, 1));
  const auto out = static_cast<std::uint16_t>(rm.port_of_side(Side::kEast, 0, 2));
  BitVector payload;
  EXPECT_FALSE(dv.decode_entry(entry_with({{in1, out}, {in2, out}}),
                               kVbsVersion, payload));
}

TEST(Devirtualizer, RejectsSelfLoop) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  BitVector payload;
  EXPECT_FALSE(dv.decode_entry(entry_with({{3, 3}}), kVbsVersion, payload));
}

TEST(Devirtualizer, RawEntryCopiedThrough) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  VbsEntry e = entry_with({});
  e.raw = true;
  e.raw_routing = BitVector(static_cast<std::size_t>(spec5().nroute_bits()));
  e.raw_routing.set(17, true);
  BitVector payload;
  DecodeStats stats;
  ASSERT_TRUE(dv.decode_entry(e, kVbsVersion, payload, &stats));
  EXPECT_EQ(payload, e.raw_routing);
  EXPECT_EQ(stats.raw_entries, 1);
}

TEST(Devirtualizer, DeterministicAcrossInstancesAndRepeats) {
  const RegionModel rm(spec5(), 1);
  const VbsEntry e = entry_with({
      {static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, 1)),
       static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 0))},
      {static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 6)),
       static_cast<std::uint16_t>(rm.port_of_side(Side::kNorth, 0, 4))},
  });
  Devirtualizer dv1(rm), dv2(rm);
  BitVector p1, p2, p3;
  ASSERT_TRUE(dv1.decode_entry(e, kVbsVersion, p1));
  ASSERT_TRUE(dv2.decode_entry(e, kVbsVersion, p2));
  // Reuse after a prior decode.
  ASSERT_TRUE(dv1.decode_entry(e, kVbsVersion, p3));
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1, p3);
}

TEST(Devirtualizer, ClusterCrossRegionRoute) {
  const RegionModel rm(spec5(), 2);
  Devirtualizer dv(rm);
  // West of the cluster, second row, to a pin in the far corner macro.
  const auto in = static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 1, 2));
  const auto pin = static_cast<std::uint16_t>(rm.port_of_pin(1, 0, 4));
  BitVector payload;
  ASSERT_TRUE(
      dv.decode_entry(entry_with({{in, pin}}, 2), kVbsVersion, payload));
  PayloadConn pc(rm, payload);
  EXPECT_TRUE(pc.connected(in, pin));

  // A fan-out signal across the cluster plus a disjoint pin-to-side one.
  const auto port = [](int p) { return static_cast<std::uint16_t>(p); };
  const std::vector<VbsConnection> conns = {
      {port(rm.port_of_side(Side::kWest, 0, 1)),
       port(rm.port_of_side(Side::kEast, 1, 3))},
      {port(rm.port_of_side(Side::kWest, 0, 1)),
       port(rm.port_of_pin(1, 0, 2))},
      {port(rm.port_of_pin(0, 1, 6)),
       port(rm.port_of_side(Side::kNorth, 1, 0))},
  };
  ASSERT_TRUE(dv.decode_entry(entry_with(conns, 2), kVbsVersion, payload));
  PayloadConn pc2(rm, payload);
  for (const VbsConnection& conn : conns) {
    EXPECT_TRUE(pc2.connected(conn.in, conn.out));
  }
  EXPECT_FALSE(pc2.connected(conns[0].in, conns[2].in));
}

TEST(Devirtualizer, SaturatedMacroFailsGracefully) {
  // Fill every track with straight-through signals (2W of them — each
  // switch-box point supports an E-W and an N-S crossing simultaneously),
  // then demand a pin-to-pin feedback route. Pin stubs can only meet
  // through track segments, which are all owned by other signals, so the
  // decode must fail rather than short anything together.
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  std::vector<VbsConnection> conns;
  for (int t = 0; t < 5; ++t) {
    conns.push_back({static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, t)),
                     static_cast<std::uint16_t>(rm.port_of_side(Side::kEast, 0, t))});
    conns.push_back({static_cast<std::uint16_t>(rm.port_of_side(Side::kNorth, 0, t)),
                     static_cast<std::uint16_t>(rm.port_of_side(Side::kSouth, 0, t))});
  }
  BitVector payload;
  // 2W signals fit
  ASSERT_TRUE(dv.decode_entry(entry_with(conns), kVbsVersion, payload));
  PayloadConn pc(rm, payload);
  EXPECT_TRUE(pc.connected(rm.port_of_side(Side::kWest, 0, 0),
                           rm.port_of_side(Side::kEast, 0, 0)));
  EXPECT_FALSE(pc.connected(rm.port_of_side(Side::kWest, 0, 0),
                            rm.port_of_side(Side::kNorth, 0, 0)));

  conns.push_back({static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 6)),
                   static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 0))});
  DecodeStats stats;
  EXPECT_FALSE(
      dv.decode_entry(entry_with(conns), kVbsVersion, payload, &stats));
  EXPECT_EQ(stats.pairs_failed, 1);
}

// Version 4's queue key holds a node id in 24 bits. The header guards
// (c <= 63, kMaxEntryConfigBits, kMaxLookaheadBytes and ArchSpec's K <= 6)
// keep every region a stream can name below that, and the decoder refuses
// a larger one; both checked without building a large region.
TEST(Devirtualizer, RegionsFitTheKeyNodeField) {
  EXPECT_NO_THROW(
      Devirtualizer::check_region_nodes(Devirtualizer::kMaxRegionNodes));
  EXPECT_EQ(errc_of([] {
              Devirtualizer::check_region_nodes(
                  Devirtualizer::kMaxRegionNodes + 1);
            }),
            VbsErrc::kResourceLimit);

  // A macro has W (4 + 2L) nodes, a region of c x c macros at most c^2
  // times that (merged wires only lower it).
  const auto macro_nodes = [](const ArchSpec& s) {
    return static_cast<long long>(s.chan_width) * (4 + 2 * s.lb_pins());
  };
  EXPECT_EQ(MacroModel::of(spec5())->num_nodes(), macro_nodes(spec5()));
  long long largest = 0;
  for (int k = 0; k < 16; ++k) {
    for (int w = 0; w < 256; ++w) {
      for (const SbPattern sb : {SbPattern::kDisjoint, SbPattern::kWilton}) {
        ArchSpec s;
        s.chan_width = w;
        s.lut_k = k;
        s.sb_pattern = sb;
        try {
          s.validate();
        } catch (const std::invalid_argument&) {
          continue;
        }
        if (Lookahead::table_bytes(s) > kMaxLookaheadBytes) continue;
        long long c = 63;
        while (c * c * s.nraw_bits() >
               static_cast<long long>(kMaxEntryConfigBits)) {
          --c;
        }
        largest = std::max(largest, c * c * macro_nodes(s));
      }
    }
  }
  EXPECT_GT(largest, 0);
  EXPECT_LT(largest, Devirtualizer::kMaxRegionNodes);
}

// Each call decodes under the tie rule of the version it names: the
// entries of tests/data/sample_v3.vbs, validated under version 3's rule,
// decode with the search counts VbsFormat.Version3FileStillDecodes pins
// when named version 3, and search differently (here with a third of the
// pops) when named version 4. A
// version deserialize_vbs does not take is refused.
TEST(Devirtualizer, TieRuleFollowsTheNamedVersion) {
  const VbsImage img = deserialize_vbs(
      read_vbs_file(std::string(VBS_TEST_DATA_DIR) + "/sample_v3.vbs"));
  ASSERT_EQ(img.version, kVbsVersionSameIn);
  RegionDecoderCache cache;
  DecodeStats v3, v4;
  BitVector payload;
  for (const VbsEntry& e : img.entries) {
    Devirtualizer& dv = cache.decoder_for(img, e);
    EXPECT_TRUE(dv.decode_entry(e, kVbsVersionSameIn, payload, &v3));
    dv.decode_entry(e, kVbsVersion, payload, &v4);
  }
  EXPECT_EQ(v3.nodes_expanded, 14005);
  EXPECT_EQ(v3.negotiation_iterations, 39);
  EXPECT_EQ(v4.nodes_expanded, 4745);
  EXPECT_EQ(v4.negotiation_iterations, 29);
  for (const unsigned version : {1u, 5u}) {
    EXPECT_EQ(errc_of([&] {
                cache.decoder_for(img, img.entries[0])
                    .decode_entry(img.entries[0], version, payload);
              }),
              VbsErrc::kBadVersion);
  }
}

// --- golden pins -------------------------------------------------------------
// A small generated design at W=5 goes through FlowPipeline and is encoded
// and decoded at every cluster size. Heap order, tie-breaks and the float
// cost arithmetic of both A* kernels (router and de-virtualizer) feed
// every number below, so a kernel change that is not exactly
// order-preserving fails here. Every decode must also implement the
// netlist.

struct GoldenCase {
  int cluster;
  std::uint64_t stream_hash;  ///< stream_content_hash of the stream
  std::uint64_t config_hash;  ///< stream_content_hash of the decoded config
  long long nodes_expanded;
  long long negotiation_iterations;
  long long pairs_routed;
};

ArchSpec golden_arch() {
  ArchSpec s;
  s.chan_width = 5;
  return s;
}

TEST(DevirtGolden, FlowPipelinePinsEveryClusterSize) {
  GenParams p;
  p.n_lut = 40;
  p.n_pi = 6;
  p.n_po = 6;
  p.seed = 3;
  FlowOptions o;
  o.arch = golden_arch();
  o.seed = 5;
  FlowPipeline pipe(generate_netlist(p), 8, 8, o);
  ASSERT_TRUE(pipe.routing().success);
  EXPECT_EQ(pipe.routing().heap_pops, 58636);
  EXPECT_EQ(pipe.routing().iterations, 9);

  const GoldenCase kCases[] = {
      {1, 0x7d6d2d971623887eull, 0xf2082a80c36462ceull, 5564, 140, 425},
      {2, 0x7c35e01ae6b98a4eull, 0xfead7fb69933ca9eull, 12757, 70, 290},
      {4, 0x4e74e41c64c04e68ull, 0xdf61befda6f99d5eull, 92671, 52, 192},
      {8, 0xba5413cc57fb8f50ull, 0x62ad3a9f36ff4d90ull, 32141, 7, 147},
  };
  bool negotiated = false;
  for (const GoldenCase& gc : kCases) {
    SCOPED_TRACE("cluster " + std::to_string(gc.cluster));
    EncodeOptions eo;
    eo.cluster = gc.cluster;
    pipe.set_encode_options(eo);
    EXPECT_EQ(pipe.vbs_stream().get_bits(0, 4), kVbsVersion);
    EXPECT_EQ(stream_content_hash(pipe.vbs_stream()), gc.stream_hash);
    DecodeStats st;
    const BitVector config =
        devirtualize_image(pipe.vbs_image(), pipe.fabric(), {0, 0}, &st);
    EXPECT_EQ(verify_connectivity(pipe.fabric(), config, pipe.netlist(),
                                  pipe.packed(), pipe.placement()),
              "");
    EXPECT_EQ(stream_content_hash(config), gc.config_hash);
    EXPECT_EQ(st.nodes_expanded, gc.nodes_expanded);
    EXPECT_EQ(st.negotiation_iterations, gc.negotiation_iterations);
    EXPECT_EQ(st.pairs_routed, gc.pairs_routed);
    negotiated |=
        st.negotiation_iterations > st.entries_decoded - st.raw_entries;
  }
  EXPECT_TRUE(negotiated);
}

// The same pins at the paper's W = 20 on des (seed 1), the compile
// workload's circuit: the decoded configuration and the decode's search
// counts, and the encoder's feedback-loop verdicts, at every cluster size.
// None of them reads a stream bit, so they hold across list codings; they
// move with the decoder contract the encoder writes (the tie rule of
// version 4).
TEST(DevirtGolden, W20PinsEveryClusterSize) {
  struct W20Case {
    int cluster;
    std::uint64_t config_hash;  ///< stream_content_hash of the decoded config
    long long nodes_expanded;
    long long negotiation_iterations;
    long long entries_decoded;
    int reordered_entries;
    int conflict_fallbacks;
  };
  const W20Case kCases[] = {
      {1, 0xe44265eda61fa582ull, 194712, 2035, 812, 2, 0},
      {2, 0x2358c84285e62b0dull, 468243, 839, 216, 1, 0},
      {4, 0x70d587583d35fd21ull, 520795, 249, 58, 0, 0},
      {8, 0xdb54b66c6e48541full, 788376, 87, 16, 0, 0},
  };
  const McncCircuit& des = mcnc_by_name("des");
  FlowOptions o;
  o.arch.chan_width = 20;
  FlowPipeline pipe(make_mcnc_like(des, o.seed), des.size, des.size, o);
  ASSERT_TRUE(pipe.routing().success);
  for (const W20Case& wc : kCases) {
    SCOPED_TRACE("cluster " + std::to_string(wc.cluster));
    EncodeOptions eo;
    eo.cluster = wc.cluster;
    pipe.set_encode_options(eo);
    DecodeStats st;
    const BitVector config =
        devirtualize_image(pipe.vbs_image(), pipe.fabric(), {0, 0}, &st);
    EXPECT_EQ(stream_content_hash(config), wc.config_hash);
    EXPECT_EQ(st.nodes_expanded, wc.nodes_expanded);
    EXPECT_EQ(st.negotiation_iterations, wc.negotiation_iterations);
    EXPECT_EQ(st.entries_decoded, wc.entries_decoded);
    EXPECT_EQ(pipe.encode_stats().reordered_entries, wc.reordered_entries);
    EXPECT_EQ(pipe.encode_stats().conflict_fallbacks, wc.conflict_fallbacks);
  }
}

// --- the lookahead heuristic ------------------------------------------------

/// Unit-cost hop counts from every region node to `target`, ignoring port
/// reservations: the distances A* with unit node costs would find.
std::vector<int> bfs_hops(const RegionModel& rm, int target) {
  std::vector<int> dist(static_cast<std::size_t>(rm.num_nodes()), -1);
  std::vector<int> queue{target};
  dist[static_cast<std::size_t>(target)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int node = queue[head];
    for (const RegionModel::Adj& adj : rm.adjacency(node)) {
      int& d = dist[static_cast<std::size_t>(adj.to)];
      if (d < 0) {
        d = dist[static_cast<std::size_t>(node)] + 1;
        queue.push_back(adj.to);
      }
    }
  }
  return dist;
}

/// Pairs (node, target port) where the bound exceeds the true distance.
long long admissibility_violations(const RegionModel& rm, const Lookahead& la,
                                   long long& pairs) {
  long long bad = 0;
  for (int port = 0; port < rm.num_ports(); ++port) {
    const int target = rm.port_node(port);
    if (target < 0) continue;
    const Point tp = rm.node_tile(target);
    const int tport = rm.macro().node_port(rm.node_local(target));
    EXPECT_GE(tport, 0);
    const std::vector<int> dist = bfs_hops(rm, target);
    for (int v = 0; v < rm.num_nodes(); ++v) {
      const int d = dist[static_cast<std::size_t>(v)];
      if (d < 0) continue;  // unreachable: any bound is admissible
      const Point p = rm.node_tile(v);
      ++pairs;
      bad += la.bound(tport, rm.node_local(v), p.x - tp.x, p.y - tp.y) > d;
    }
  }
  return bad;
}

TEST(Lookahead, NeverOverestimatesTheUnitCostDistance) {
  long long pairs = 0;
  for (const int w : {5, 20}) {
    for (const int k : {4, 6}) {
      for (const SbPattern sb : {SbPattern::kDisjoint, SbPattern::kWilton}) {
        ArchSpec spec;
        spec.chan_width = w;
        spec.lut_k = k;
        spec.sb_pattern = sb;
        const Lookahead la(spec);
        for (const int c : {1, 2, 4, 8}) {
          SCOPED_TRACE("W=" + std::to_string(w) + " K=" + std::to_string(k) +
                       " sb=" + std::to_string(static_cast<int>(sb)) +
                       " c=" + std::to_string(c));
          EXPECT_EQ(admissibility_violations(RegionModel(spec, c), la, pairs),
                    0);
        }
        SCOPED_TRACE("partial 3x2 extent of c=4");
        EXPECT_EQ(
            admissibility_violations(RegionModel(spec, 4, 3, 2), la, pairs), 0);
      }
    }
  }
  EXPECT_GT(pairs, 50000000);
}

TEST(Lookahead, IsTightAndSmall) {
  ArchSpec spec;  // the paper's W = 20, K = 6
  const Lookahead la(spec);
  EXPECT_LE(Lookahead::table_bytes(spec), std::size_t{1} << 20);
  // Inside one macro (c = 1), where a Manhattan tile-distance bound is 0
  // everywhere, the table is exact.
  const RegionModel rm(spec, 1);
  for (int port = 0; port < rm.num_ports(); ++port) {
    const int target = rm.port_node(port);
    const std::vector<int> dist = bfs_hops(rm, target);
    long long exact = 0, reachable = 0;
    for (int v = 0; v < rm.num_nodes(); ++v) {
      if (dist[static_cast<std::size_t>(v)] < 0) continue;
      ++reachable;
      exact += la.bound(port, rm.node_local(v), 0, 0) ==
               dist[static_cast<std::size_t>(v)];
    }
    EXPECT_GT(exact * 2, reachable) << "port " << port;
  }
  // The process-wide table is built once and shared.
  EXPECT_EQ(Lookahead::of(spec).get(), Lookahead::of(spec).get());
}

TEST(Devirtualizer, DecodesOnFourThreadsFromAColdTable) {
  // An architecture no other test in this binary uses, so the first
  // decoders to ask for its lookahead table race to build it.
  GenParams p;
  p.n_lut = 30;
  p.n_pi = 4;
  p.n_po = 4;
  p.seed = 9;
  p.lut_k = 5;
  FlowOptions o;
  o.arch.chan_width = 7;
  o.arch.lut_k = 5;
  o.arch.sb_pattern = SbPattern::kWilton;
  o.seed = 9;
  FlowPipeline pipe(generate_netlist(p), 7, 7, o);
  ASSERT_TRUE(pipe.routing().success);
  EncodeOptions eo;
  eo.cluster = 2;
  pipe.set_encode_options(eo);
  const VbsImage img = pipe.vbs_image();  // encoding builds the table...
  const BitVector stream = pipe.vbs_stream();
  // ...so evict it: the process cache keeps only a few architectures.
  for (const int w : {9, 10, 11, 12}) {
    ArchSpec other = o.arch;
    other.chan_width = w;
    Lookahead::of(other);
  }

  std::vector<BitVector> configs(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < configs.size(); ++t) {
    threads.emplace_back([&, t] {
      configs[t] = devirtualize_image(deserialize_vbs(stream), pipe.fabric(),
                                      {0, 0});
    });
  }
  for (std::thread& t : threads) t.join();
  const BitVector serial = devirtualize_image(img, pipe.fabric(), {0, 0});
  for (const BitVector& config : configs) EXPECT_EQ(config, serial);
  EXPECT_EQ(verify_connectivity(pipe.fabric(), serial, pipe.netlist(),
                                pipe.packed(), pipe.placement()),
            "");
}

}  // namespace
}  // namespace vbs
