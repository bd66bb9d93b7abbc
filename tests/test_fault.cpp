// Fault-injection and error-taxonomy tests: FaultPlan determinism, spec
// parsing, rate accuracy, and the stability contract of the VbsErrc codes
// that tools expose as exit codes and --json error objects.
#include <gtest/gtest.h>

#include "util/error.h"
#include "util/fault.h"

namespace vbs {
namespace {

// --- error taxonomy ----------------------------------------------------------

TEST(ErrorTaxonomy, CodesAndExitCodesAreStable) {
  // These pairs are a frozen contract (CLI exit codes, --json "errc"):
  // append-only, never renumber. A failure here means an accidental break.
  EXPECT_EQ(static_cast<int>(VbsErrc::kNone), 0);
  EXPECT_EQ(static_cast<int>(VbsErrc::kTruncated), 1);
  EXPECT_EQ(static_cast<int>(VbsErrc::kBadVersion), 2);
  EXPECT_EQ(static_cast<int>(VbsErrc::kBadHeader), 3);
  EXPECT_EQ(static_cast<int>(VbsErrc::kBadEntry), 4);
  EXPECT_EQ(static_cast<int>(VbsErrc::kBadConnection), 5);
  EXPECT_EQ(static_cast<int>(VbsErrc::kTrailingBits), 6);
  EXPECT_EQ(static_cast<int>(VbsErrc::kResourceLimit), 7);
  EXPECT_EQ(static_cast<int>(VbsErrc::kBadContainer), 8);
  EXPECT_EQ(static_cast<int>(VbsErrc::kBadTrace), 9);
  EXPECT_EQ(static_cast<int>(VbsErrc::kArchMismatch), 10);
  EXPECT_EQ(static_cast<int>(VbsErrc::kDecodeFailed), 11);
  EXPECT_EQ(static_cast<int>(VbsErrc::kNoPlacement), 12);
  EXPECT_EQ(static_cast<int>(VbsErrc::kFaultInjected), 13);
  EXPECT_EQ(static_cast<int>(VbsErrc::kQueueFull), 14);
  EXPECT_EQ(static_cast<int>(VbsErrc::kDeadline), 15);
  EXPECT_EQ(static_cast<int>(VbsErrc::kBadJournal), 16);
  EXPECT_EQ(static_cast<int>(VbsErrc::kTornWrite), 17);
  EXPECT_EQ(static_cast<int>(VbsErrc::kNetFrame), 18);
  EXPECT_EQ(static_cast<int>(VbsErrc::kNetAuth), 19);
  EXPECT_EQ(static_cast<int>(VbsErrc::kNetProto), 20);
  EXPECT_EQ(static_cast<int>(VbsErrc::kNetClosed), 21);
  EXPECT_EQ(static_cast<int>(VbsErrc::kNetTimeout), 22);

  EXPECT_EQ(exit_code_for(VbsErrc::kNone), 0);
  EXPECT_EQ(exit_code_for(VbsErrc::kTruncated), 11);
  EXPECT_EQ(exit_code_for(VbsErrc::kArchMismatch), 20);
  EXPECT_EQ(exit_code_for(VbsErrc::kDeadline), 25);
  EXPECT_EQ(exit_code_for(VbsErrc::kBadJournal), 26);
  EXPECT_EQ(exit_code_for(VbsErrc::kTornWrite), 27);
  EXPECT_EQ(exit_code_for(VbsErrc::kNetFrame), 28);
  EXPECT_EQ(exit_code_for(VbsErrc::kNetAuth), 29);
  EXPECT_EQ(exit_code_for(VbsErrc::kNetProto), 30);
  EXPECT_EQ(exit_code_for(VbsErrc::kNetClosed), 31);
  EXPECT_EQ(exit_code_for(VbsErrc::kNetTimeout), 32);

  EXPECT_STREQ(to_string(VbsErrc::kNone), "ok");
  EXPECT_STREQ(to_string(VbsErrc::kTruncated), "truncated");
  EXPECT_STREQ(to_string(VbsErrc::kBadHeader), "bad-header");
  EXPECT_STREQ(to_string(VbsErrc::kBadContainer), "bad-container");
  EXPECT_STREQ(to_string(VbsErrc::kArchMismatch), "arch-mismatch");
  EXPECT_STREQ(to_string(VbsErrc::kFaultInjected), "fault-injected");
  EXPECT_STREQ(to_string(VbsErrc::kQueueFull), "queue-full");
  EXPECT_STREQ(to_string(VbsErrc::kBadJournal), "bad-journal");
  EXPECT_STREQ(to_string(VbsErrc::kTornWrite), "torn-write");
  EXPECT_STREQ(to_string(VbsErrc::kNetFrame), "net-frame");
  EXPECT_STREQ(to_string(VbsErrc::kNetAuth), "net-auth");
  EXPECT_STREQ(to_string(VbsErrc::kNetProto), "net-proto");
  EXPECT_STREQ(to_string(VbsErrc::kNetClosed), "net-closed");
  EXPECT_STREQ(to_string(VbsErrc::kNetTimeout), "net-timeout");
}

// --- fault plan --------------------------------------------------------------

TEST(FaultPlan, DefaultIsDisabledAndNeverFires) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    EXPECT_FALSE(plan.decode_fails(seq));
    EXPECT_FALSE(plan.alloc_fails(seq));
    EXPECT_FALSE(plan.cache_drops(seq));
    EXPECT_EQ(plan.latency_spike_ticks(seq), 0);
  }
}

TEST(FaultPlan, SpecRoundTripAndParseErrors) {
  const FaultPlan plan =
      FaultPlan::parse("seed=7,decode=0.1,alloc=0.05,cache=0.02,latency=0.05x8");
  EXPECT_EQ(plan.config().seed, 7u);
  EXPECT_DOUBLE_EQ(plan.config().decode_fail, 0.1);
  EXPECT_DOUBLE_EQ(plan.config().alloc_fail, 0.05);
  EXPECT_DOUBLE_EQ(plan.config().cache_drop, 0.02);
  EXPECT_DOUBLE_EQ(plan.config().latency_spike, 0.05);
  EXPECT_EQ(plan.config().spike_ticks, 8);
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(FaultPlan::parse(plan.spec()).config(), plan.config());
  // Keys in any order; omitted keys stay off.
  EXPECT_DOUBLE_EQ(FaultPlan::parse("alloc=0.5,seed=3").config().alloc_fail,
                   0.5);
  EXPECT_DOUBLE_EQ(FaultPlan::parse("alloc=0.5,seed=3").config().decode_fail,
                   0.0);

  EXPECT_THROW(FaultPlan::parse("decode=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("decode=-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("decode=fast"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("frobnicate=0.1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("decode"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("latency=0.1x0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("seed=banana"), std::invalid_argument);
}

TEST(FaultPlan, IoSitesParseRoundTripAndCrashIsExact) {
  const FaultPlan plan =
      FaultPlan::parse("seed=9,write=0.1,sync=0.05,rename=0.02,crash=42");
  EXPECT_DOUBLE_EQ(plan.config().write_fail, 0.1);
  EXPECT_DOUBLE_EQ(plan.config().sync_fail, 0.05);
  EXPECT_DOUBLE_EQ(plan.config().rename_fail, 0.02);
  EXPECT_EQ(plan.config().crash_at, 42);
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(FaultPlan::parse(plan.spec()).config(), plan.config());
  // A crash plan alone is an enabled plan (all rates zero).
  EXPECT_TRUE(FaultPlan::parse("crash=0").enabled());
  EXPECT_THROW(FaultPlan::parse("crash=-1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("write=1.5"), std::invalid_argument);

  // crash=N is an exact-sequence kill, not a rate: exactly one op fires,
  // identically on every evaluation — that is what makes a site sweep
  // visit each I/O operation exactly once.
  int fires = 0;
  for (long long op = 0; op < 1000; ++op) {
    if (plan.crashes_at(op)) ++fires;
  }
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(plan.crashes_at(42));
  // The rate sites are pure in (seed, site, seq), like the model sites.
  const FaultPlan again = FaultPlan::parse(plan.spec());
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    EXPECT_EQ(plan.write_fails(seq), again.write_fails(seq));
    EXPECT_EQ(plan.sync_fails(seq), again.sync_fails(seq));
    EXPECT_EQ(plan.rename_fails(seq), again.rename_fails(seq));
  }
}

TEST(FaultPlan, NetSitesParseRoundTripAndArePure) {
  const FaultPlan plan =
      FaultPlan::parse("seed=5,net_short=0.3,net_eagain=0.2,net_drop=0.01");
  EXPECT_DOUBLE_EQ(plan.config().net_short, 0.3);
  EXPECT_DOUBLE_EQ(plan.config().net_eagain, 0.2);
  EXPECT_DOUBLE_EQ(plan.config().net_drop, 0.01);
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(FaultPlan::parse(plan.spec()).config(), plan.config());
  EXPECT_THROW(FaultPlan::parse("net_short=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("net_drop=-0.1"), std::invalid_argument);

  // The socket sites are pure in (seed, site, seq) and independent
  // streams, like every other site: the same plan replays the same
  // hostile schedule against the same connection ops.
  const FaultPlan again = FaultPlan::parse(plan.spec());
  int short_diff_from_eagain = 0;
  for (std::uint64_t seq = 0; seq < 2000; ++seq) {
    EXPECT_EQ(plan.net_short_read(seq), again.net_short_read(seq));
    EXPECT_EQ(plan.net_eagain(seq), again.net_eagain(seq));
    EXPECT_EQ(plan.net_drops(seq), again.net_drops(seq));
    if (plan.net_short_read(seq) != plan.net_eagain(seq)) {
      ++short_diff_from_eagain;
    }
  }
  EXPECT_GT(short_diff_from_eagain, 0);
  // A net-only plan reads back as enabled; the model sites stay off.
  EXPECT_DOUBLE_EQ(plan.config().decode_fail, 0.0);
}

TEST(FaultPlan, DecisionsArePureFunctionsOfSeedSiteAndSequence) {
  FaultPlanConfig cfg;
  cfg.seed = 42;
  cfg.decode_fail = 0.3;
  cfg.alloc_fail = 0.3;
  cfg.cache_drop = 0.3;
  cfg.latency_spike = 0.3;
  const FaultPlan a(cfg);
  const FaultPlan b(cfg);
  cfg.seed = 43;
  const FaultPlan other(cfg);
  int decode_diff_from_alloc = 0;
  int diff_across_seeds = 0;
  for (std::uint64_t seq = 0; seq < 2000; ++seq) {
    // Same plan, same seq: identical decision, any number of times.
    EXPECT_EQ(a.decode_fails(seq), b.decode_fails(seq));
    EXPECT_EQ(a.alloc_fails(seq), b.alloc_fails(seq));
    EXPECT_EQ(a.cache_drops(seq), b.cache_drops(seq));
    EXPECT_EQ(a.latency_spike_ticks(seq), b.latency_spike_ticks(seq));
    // Sites are independent streams; seeds are independent plans.
    if (a.decode_fails(seq) != a.alloc_fails(seq)) ++decode_diff_from_alloc;
    if (a.decode_fails(seq) != other.decode_fails(seq)) ++diff_across_seeds;
  }
  EXPECT_GT(decode_diff_from_alloc, 0);
  EXPECT_GT(diff_across_seeds, 0);
}

TEST(FaultPlan, RatesAreHonoredAndSpikesHaveFixedMagnitude) {
  FaultPlanConfig cfg;
  cfg.seed = 11;
  cfg.decode_fail = 0.1;
  cfg.latency_spike = 0.5;
  cfg.spike_ticks = 6;
  const FaultPlan plan(cfg);
  int decode_hits = 0, spike_hits = 0;
  const int trials = 20000;
  for (int seq = 0; seq < trials; ++seq) {
    if (plan.decode_fails(static_cast<std::uint64_t>(seq))) ++decode_hits;
    const long long spike =
        plan.latency_spike_ticks(static_cast<std::uint64_t>(seq));
    EXPECT_TRUE(spike == 0 || spike == 6);
    if (spike > 0) ++spike_hits;
  }
  EXPECT_NEAR(static_cast<double>(decode_hits) / trials, 0.1, 0.02);
  EXPECT_NEAR(static_cast<double>(spike_hits) / trials, 0.5, 0.03);
  // Edge rates: 1.0 always fires, 0.0 never does.
  cfg.decode_fail = 1.0;
  cfg.latency_spike = 0.0;
  const FaultPlan always(cfg);
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    EXPECT_TRUE(always.decode_fails(seq));
    EXPECT_EQ(always.latency_spike_ticks(seq), 0);
  }
}

}  // namespace
}  // namespace vbs
