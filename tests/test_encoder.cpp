// End-to-end Virtual Bit-Stream tests: encode -> serialize -> deserialize ->
// de-virtualize -> electrical equivalence with the original netlist. This is
// the paper's whole pipeline (Fig. 3) exercised as one property, plus
// compression-behaviour and relocation checks.
#include <gtest/gtest.h>

#include "bitstream/bitstream.h"
#include "bitstream/connectivity.h"
#include "flow/flow.h"
#include "netlist/generator.h"
#include "rtc/service/stream_cache.h"
#include "vbs/devirtualizer.h"
#include "vbs/encoder.h"

namespace vbs {
namespace {

struct Pipeline {
  FlowResult r;
  BitVector raw;

  explicit Pipeline(int n_lut = 50, std::uint64_t seed = 21, int w = 8,
                    int grid = 8) {
    GenParams p;
    p.n_lut = n_lut;
    p.n_pi = 5;
    p.n_po = 5;
    p.seed = seed;
    FlowOptions o;
    o.arch.chan_width = w;
    o.seed = seed;
    r = run_flow(generate_netlist(p), grid, grid, o);
    EXPECT_TRUE(r.routed());
    raw = generate_raw_bitstream(*r.fabric, r.netlist, r.packed, r.placement,
                                 r.routing.routes);
  }

  VbsImage encode(EncodeOptions opts = {}, EncodeStats* stats = nullptr) {
    return encode_vbs(*r.fabric, r.netlist, r.packed, r.placement,
                      r.routing.routes, opts, stats);
  }

  /// Full round trip through the wire format and the online decoder.
  std::string decode_and_verify(const VbsImage& img) {
    const VbsImage back = deserialize_vbs(serialize_vbs(img));
    const BitVector decoded = devirtualize_image(back, *r.fabric, {0, 0});
    return verify_connectivity(*r.fabric, decoded, r.netlist, r.packed,
                               r.placement);
  }
};

TEST(Encoder, EndToEndFineGrain) {
  Pipeline p;
  EncodeStats stats;
  const VbsImage img = p.encode({}, &stats);
  EXPECT_GT(stats.entries, 0);
  EXPECT_EQ(p.decode_and_verify(img), "");
}

TEST(Encoder, VbsNeverLargerThanRaw) {
  // Paper Section IV-A: "the VBS performs constantly better in terms of
  // size in comparison to the raw coding" (thanks to the raw fallback).
  Pipeline p;
  EncodeStats stats;
  p.encode({}, &stats);
  EXPECT_LT(stats.vbs_bits, stats.raw_bits);
}

TEST(Encoder, EmptyRegionsAreOmitted) {
  Pipeline p(12, 3, 8, 8);  // 12 LUTs on 64 tiles: mostly empty fabric
  EncodeStats stats;
  const VbsImage img = p.encode({}, &stats);
  EXPECT_LT(static_cast<int>(img.entries.size()), 64);
  EXPECT_EQ(p.decode_and_verify(img), "");
}

class ClusterSweep : public ::testing::TestWithParam<int> {};

TEST_P(ClusterSweep, EndToEndAtEveryGrain) {
  Pipeline p;
  EncodeOptions o;
  o.cluster = GetParam();
  EncodeStats stats;
  const VbsImage img = p.encode(o, &stats);
  EXPECT_EQ(img.cluster, GetParam());
  EXPECT_EQ(p.decode_and_verify(img), "");
  EXPECT_LE(stats.vbs_bits, stats.raw_bits);
}

INSTANTIATE_TEST_SUITE_P(Grains, ClusterSweep, ::testing::Values(1, 2, 3, 4, 8));

TEST(Encoder, ClusteringImprovesCompression) {
  // Paper Fig. 5: cluster size 2 compresses substantially better than the
  // finest grain.
  Pipeline p(60, 9, 8, 8);
  EncodeStats s1, s2;
  p.encode({}, &s1);
  EncodeOptions o;
  o.cluster = 2;
  p.encode(o, &s2);
  EXPECT_LT(s2.vbs_bits, s1.vbs_bits);
}

TEST(Encoder, ForceRawMatchesRawSizePlusOverhead) {
  Pipeline p;
  EncodeOptions o;
  o.force_raw = true;
  EncodeStats stats;
  const VbsImage img = p.encode(o, &stats);
  EXPECT_EQ(stats.raw_entries, stats.entries);
  // Still decodes correctly.
  EXPECT_EQ(p.decode_and_verify(img), "");
  // Raw coding per entry carries the full routing payload, so the stream
  // is at least the occupied fraction of the raw image.
  EXPECT_GT(stats.vbs_bits,
            static_cast<std::size_t>(stats.entries) *
                static_cast<std::size_t>(p.r.fabric->spec().nroute_bits()));
}

TEST(Encoder, SmartCodingBeatsForceRaw) {
  Pipeline p;
  EncodeStats smart, raw;
  p.encode({}, &smart);
  EncodeOptions o;
  o.force_raw = true;
  p.encode(o, &raw);
  EXPECT_LT(smart.vbs_bits, raw.vbs_bits);
}

TEST(Encoder, DeterministicInSeed) {
  Pipeline p;
  const BitVector a = serialize_vbs(p.encode());
  const BitVector b = serialize_vbs(p.encode());
  EXPECT_EQ(a, b);
}

TEST(Encoder, StatsAreConsistent) {
  Pipeline p;
  EncodeStats stats;
  const VbsImage img = p.encode({}, &stats);
  EXPECT_EQ(stats.entries, static_cast<int>(img.entries.size()));
  EXPECT_EQ(stats.raw_entries, stats.conflict_fallbacks +
                                   stats.size_fallbacks +
                                   stats.overflow_fallbacks);
  EXPECT_EQ(stats.vbs_bits, serialize_vbs(img).size());
  EXPECT_EQ(stats.vbs_bits, stats.size.total());
  EXPECT_EQ(stats.size.list, vbs_size(img).list);
  long long conns = 0;
  int raws = 0;
  for (const VbsEntry& e : img.entries) {
    conns += static_cast<long long>(e.conns.size());
    raws += e.raw;
  }
  EXPECT_EQ(stats.connections, conns);
  EXPECT_EQ(stats.raw_entries, raws);
}

TEST(Encoder, RelocationIsBitExact) {
  // The same stream decoded at two origins must produce identical per-tile
  // frames — the position-independence the paper builds the VBS for.
  Pipeline p(30, 4, 8, 6);
  const VbsImage img = p.encode();
  const Fabric big(p.r.fabric->spec(), 14, 13);
  const BitVector at11 = devirtualize_image(img, big, {1, 1});
  const BitVector at75 = devirtualize_image(img, big, {7, 5});
  const int nraw = big.spec().nraw_bits();
  for (int ty = 0; ty < img.task_h; ++ty) {
    for (int tx = 0; tx < img.task_w; ++tx) {
      const auto frame = [&](const BitVector& cfg, Point origin) {
        const std::size_t base = big.macro_config_offset(
            big.macro_index(origin.x + tx, origin.y + ty));
        return cfg.slice(base, base + static_cast<std::size_t>(nraw));
      };
      ASSERT_EQ(frame(at11, {1, 1}), frame(at75, {7, 5}))
          << "tile " << tx << "," << ty;
    }
  }
}

TEST(Encoder, RelocatedDecodeMatchesOriginDecode) {
  Pipeline p(30, 4, 8, 6);
  const VbsImage img = p.encode();
  const BitVector at_origin = devirtualize_image(img, *p.r.fabric, {0, 0});
  const Fabric big(p.r.fabric->spec(), 10, 10);
  const BitVector relocated = devirtualize_image(img, big, {3, 2});
  const int nraw = big.spec().nraw_bits();
  for (int ty = 0; ty < img.task_h; ++ty) {
    for (int tx = 0; tx < img.task_w; ++tx) {
      const std::size_t src = p.r.fabric->macro_config_offset(
          p.r.fabric->macro_index(tx, ty));
      const std::size_t dst =
          big.macro_config_offset(big.macro_index(3 + tx, 2 + ty));
      ASSERT_EQ(at_origin.slice(src, src + static_cast<std::size_t>(nraw)),
                relocated.slice(dst, dst + static_cast<std::size_t>(nraw)));
    }
  }
}

TEST(Encoder, DecodeOutOfBoundsThrows) {
  Pipeline p(20, 2, 8, 6);
  const VbsImage img = p.encode();
  const Fabric big(p.r.fabric->spec(), 8, 8);
  EXPECT_THROW(devirtualize_image(img, big, {4, 0}), std::runtime_error);
  EXPECT_THROW(devirtualize_image(img, big, {-1, 0}), std::runtime_error);
}

TEST(Encoder, WorksWithWiltonSwitchBoxes) {
  GenParams gp;
  gp.n_lut = 40;
  gp.seed = 15;
  FlowOptions o;
  o.arch.chan_width = 9;
  o.arch.sb_pattern = SbPattern::kWilton;
  FlowResult r = run_flow(generate_netlist(gp), 7, 7, o);
  ASSERT_TRUE(r.routed());
  EncodeStats stats;
  const VbsImage img = encode_vbs(*r.fabric, r.netlist, r.packed, r.placement,
                                  r.routing.routes, {}, &stats);
  const BitVector decoded =
      devirtualize_image(deserialize_vbs(serialize_vbs(img)), *r.fabric, {0, 0});
  EXPECT_EQ(verify_connectivity(*r.fabric, decoded, r.netlist, r.packed,
                                r.placement),
            "");
}

// Pins the feedback loop's output where it works hardest: a congested
// 250-LUT design on W = 8, encoded at the full negotiation budget and at
// decode_iterations 2. At 2 iterations the three fixed orders fail for
// dozens of entries at each c (at least the 40, 55 and 16 that end as
// conflict fallbacks at c = 1, 2 and 4), which then go through the seeded
// shuffles, so the pin also fixes the order in which the loop draws from
// its RNG.
TEST(Encoder, FeedbackLoopBytesArePinned) {
  struct Case {
    int iterations;
    int cluster;
    std::uint64_t stream_hash;  ///< stream_content_hash (FNV-1a 64)
    int reordered;
    int conflicts;
  };
  const Case kCases[] = {
      {24, 1, 0x9b24836b9d9b023aull, 1, 0},
      {24, 2, 0xc6596d5478c17940ull, 3, 0},
      {24, 4, 0xd6f8059375104ab8ull, 0, 0},
      {2, 1, 0x8bc00619658320beull, 64, 40},
      {2, 2, 0xcb15a4392c694adaull, 4, 55},
      {2, 4, 0xb0e909937d6fc1fbull, 0, 16},
  };
  Pipeline p(250, 7, 8, 16);
  for (const Case& k : kCases) {
    SCOPED_TRACE("iterations " + std::to_string(k.iterations) + " cluster " +
                 std::to_string(k.cluster));
    EncodeOptions o;
    o.cluster = k.cluster;
    o.decode_iterations = k.iterations;
    EncodeStats stats;
    const BitVector stream = serialize_vbs(p.encode(o, &stats));
    EXPECT_EQ(stream_content_hash(stream), k.stream_hash);
    EXPECT_EQ(stats.reordered_entries, k.reordered);
    EXPECT_EQ(stats.conflict_fallbacks, k.conflicts);
  }
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, EndToEndProperty) {
  // Property: for any routable design, encode -> wire -> decode preserves
  // electrical connectivity exactly.
  Pipeline p(45, GetParam(), 8, 8);
  EXPECT_EQ(p.decode_and_verify(p.encode()), "");
  EncodeOptions o;
  o.cluster = 2;
  EXPECT_EQ(p.decode_and_verify(p.encode(o)), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace vbs
