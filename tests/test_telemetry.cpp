// Telemetry-layer tests: the metrics registry (counters, gauges,
// histograms, deterministic shard merge), the injectable clock, span
// tracing, and the contract the whole layer exists to honor — enabling
// telemetry changes NOTHING observable: flow artifacts stay byte-identical
// and a journaled, faulted service replay fingerprints identically at any
// thread count. Also the per-request latency breakdown: the tick identity
// on every result, the TenantStats sums, and the modeled-tick trace spans
// all describe the same numbers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "flow/flow.h"
#include "netlist/generator.h"
#include "rtc/service/service.h"
#include "rtc/service/trace.h"
#include "util/telemetry.h"
#include "util/trace_export.h"
#include "vbs/devirtualizer.h"
#include "vbs/encoder.h"

namespace vbs {
namespace {

ArchSpec test_arch() {
  ArchSpec arch;
  arch.chan_width = 8;
  return arch;
}

BitVector make_stream(int n_lut, int grid, std::uint64_t seed,
                      const ArchSpec& arch, int cluster = 1) {
  GenParams p;
  p.n_lut = n_lut;
  p.n_pi = 3;
  p.n_po = 3;
  p.seed = seed;
  FlowOptions o;
  o.arch = arch;
  o.seed = seed;
  FlowResult r = run_flow(generate_netlist(p), grid, grid, o);
  EXPECT_TRUE(r.routed());
  EncodeOptions eo;
  eo.cluster = cluster;
  return serialize_vbs(encode_vbs(*r.fabric, r.netlist, r.packed, r.placement,
                                  r.routing.routes, eo));
}

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("vbs_telem_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

// --- metrics registry -------------------------------------------------------

TEST(Telemetry, DisabledIsANoOp) {
  telem::reset();
  ASSERT_FALSE(telem::enabled());
  telem::counter_add("t.count", 5);
  telem::gauge_set("t.gauge", 1.5);
  telem::histogram_record("t.hist", 0.25);
  { telem::Span span("test", "ignored"); }
  const telem::MetricsSnapshot snap = telem::snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_TRUE(telem::take_trace().empty());
}

TEST(Telemetry, CountersGaugesHistograms) {
  telem::ScopedEnable on;
  telem::reset();
  telem::counter_add("t.count");
  telem::counter_add("t.count", 4);
  telem::gauge_set("t.gauge", 2.0);
  telem::gauge_set("t.gauge", 7.5);  // merged by max
  for (int i = 1; i <= 100; ++i) {
    telem::histogram_record("t.hist", static_cast<double>(i));
  }
  const telem::MetricsSnapshot snap = telem::snapshot();
  ASSERT_EQ(snap.counters.count("t.count"), 1u);
  EXPECT_EQ(snap.counters.at("t.count"), 5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("t.gauge"), 7.5);
  const telem::HistogramSnapshot& h = snap.histograms.at("t.hist");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.sum, 5050.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  // Power-of-two buckets: percentiles are interpolations, so only bounds
  // are promised — but they must be monotone and clamped to [min, max].
  const double p50 = h.percentile(0.50);
  const double p99 = h.percentile(0.99);
  EXPECT_GE(p50, h.min);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, h.max);
}

TEST(Telemetry, HistogramBucketsCoverTheRealLine) {
  EXPECT_EQ(telem::histogram_bucket(0.0), 0);
  EXPECT_EQ(telem::histogram_bucket(-3.0), 0);
  for (double v : {1e-12, 0.001, 0.5, 1.0, 3.7, 1e6, 1e30}) {
    const int b = telem::histogram_bucket(v);
    ASSERT_GE(b, 1);
    ASSERT_LT(b, telem::kHistBuckets);
    // Bucket i covers [floor(i), floor(i+1)); the clamp buckets at both
    // ends absorb the tails, so only the unclamped edge is promised.
    if (b > 1) {
      EXPECT_GE(v, telem::histogram_bucket_floor(b)) << v;
    }
    if (b < telem::kHistBuckets - 1) {
      EXPECT_LT(v, telem::histogram_bucket_floor(b + 1)) << v;
    }
  }
}

TEST(Telemetry, ManualClockDrivesSeconds) {
  telem::ManualClock clock;
  telem::ScopedClock scoped(&clock);
  const std::uint64_t t0 = telem::now_ns();
  EXPECT_EQ(t0, 0u);
  clock.advance_seconds(1.5);
  EXPECT_DOUBLE_EQ(telem::seconds_since(t0), 1.5);
  clock.advance_ns(500000000);
  EXPECT_DOUBLE_EQ(telem::seconds_since(t0), 2.0);
}

TEST(Telemetry, SpansRecordManualClockDurations) {
  telem::ManualClock clock;
  telem::ScopedClock scoped(&clock);
  telem::ScopedEnable on;
  telem::reset();
  {
    telem::Span outer("test", "outer");
    clock.advance_ns(1000);
    {
      telem::Span inner("test", "inner");
      clock.advance_ns(250);
    }
    clock.advance_ns(1000);
  }
  const std::vector<telem::TraceEvent> ev = telem::take_trace();
  ASSERT_EQ(ev.size(), 4u);  // B outer, B inner, E inner, E outer
  EXPECT_EQ(telem::check_event_pairing(ev), "");
  EXPECT_EQ(ev[0].phase, 'B');
  EXPECT_EQ(ev[0].name, "outer");
  EXPECT_EQ(ev[1].name, "inner");
  EXPECT_EQ(ev[2].phase, 'E');
  EXPECT_EQ(ev[2].ts_ns - ev[1].ts_ns, 250u);
  EXPECT_EQ(ev[3].ts_ns - ev[0].ts_ns, 2250u);
}

TEST(Telemetry, ConcurrentUpdatesMergeExactly) {
  telem::ScopedEnable on;
  telem::reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        telem::counter_add("t.concurrent");
        telem::histogram_record("t.spread", static_cast<double>(t + 1));
        if (i % 100 == 0) {
          telem::Span span("test", "tick");
          span.arg("thread", static_cast<long long>(t));
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const telem::MetricsSnapshot snap = telem::snapshot();
  EXPECT_EQ(snap.counters.at("t.concurrent"),
            static_cast<long long>(kThreads) * kPerThread);
  EXPECT_EQ(snap.histograms.at("t.spread").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Every span closed on its own thread: pairing holds per lane.
  EXPECT_EQ(telem::check_event_pairing(telem::take_trace()), "");
}

TEST(Telemetry, SnapshotMergeIsDeterministic) {
  telem::ScopedEnable on;
  telem::reset();
  std::vector<std::thread> pool;
  for (int t = 0; t < 6; ++t) {
    pool.emplace_back([t] {
      for (int i = 0; i < 500; ++i) {
        telem::histogram_record("t.sum", 0.1 * (t + 1));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  // Double sums merge via sorted partials: repeated snapshots agree bitwise.
  const telem::MetricsSnapshot a = telem::snapshot();
  const telem::MetricsSnapshot b = telem::snapshot();
  EXPECT_DOUBLE_EQ(a.histograms.at("t.sum").sum,
                   b.histograms.at("t.sum").sum);
  EXPECT_EQ(a.to_json(0), b.to_json(0));
}

// --- byte-identity with telemetry on vs off ---------------------------------

TEST(Telemetry, FlowArtifactsByteIdenticalOnVsOff) {
  const ArchSpec arch = test_arch();
  const BitVector off = make_stream(24, 6, 11, arch, 2);
  BitVector on;
  {
    telem::ScopedEnable enable;
    telem::reset();
    on = make_stream(24, 6, 11, arch, 2);
    EXPECT_FALSE(telem::snapshot().empty());  // it really was recording
    telem::reset();
  }
  EXPECT_EQ(on, off);
}

TEST(Telemetry, DecodeCountersEqualDecodeStatsAndConfigsUnchanged) {
  GenParams p;
  p.n_lut = 24;
  p.n_pi = 3;
  p.n_po = 3;
  p.seed = 11;
  FlowOptions o;
  o.arch = test_arch();
  o.seed = 11;
  const FlowResult r = run_flow(generate_netlist(p), 6, 6, o);
  ASSERT_TRUE(r.routed());
  // Encoded with telemetry off: the encoder's own feedback decodes must
  // not reach the counters below. One image is list-coded, one all raw.
  std::vector<VbsImage> images;
  for (const bool force_raw : {false, true}) {
    EncodeOptions eo;
    eo.cluster = 2;
    eo.force_raw = force_raw;
    images.push_back(encode_vbs(*r.fabric, r.netlist, r.packed, r.placement,
                                r.routing.routes, eo));
  }

  DecodeStats off_stats, on_stats;
  std::vector<BitVector> off, on;
  for (const VbsImage& img : images) {
    off.push_back(devirtualize_image(img, *r.fabric, {0, 0}, &off_stats));
  }
  telem::MetricsSnapshot snap;
  {
    telem::ScopedEnable enable;
    telem::reset();
    for (const VbsImage& img : images) {
      on.push_back(devirtualize_image(img, *r.fabric, {0, 0}, &on_stats));
    }
    snap = telem::snapshot();
    telem::reset();
  }
  EXPECT_EQ(on, off);
  auto counter = [&](const char* name) -> long long {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  EXPECT_GT(on_stats.raw_entries, 0);
  EXPECT_GT(on_stats.entries_decoded, on_stats.raw_entries);
  EXPECT_EQ(counter("vbs.decode.entries"), on_stats.entries_decoded);
  EXPECT_EQ(counter("vbs.decode.raw_entries"), on_stats.raw_entries);
  EXPECT_EQ(counter("vbs.decode.nodes_expanded"), on_stats.nodes_expanded);
  EXPECT_EQ(counter("vbs.decode.negotiation_iterations"),
            on_stats.negotiation_iterations);
  EXPECT_EQ(on_stats.nodes_expanded, off_stats.nodes_expanded);
  EXPECT_EQ(on_stats.negotiation_iterations, off_stats.negotiation_iterations);
  // Search effort (telemetry only, no DecodeStats field): every search
  // adds at least its target to a tree, and a stale pop is one of the
  // nodes_expanded pops.
  const long long searches = counter("vbs.decode.searches");
  const long long path_nodes = counter("vbs.decode.path_nodes");
  const long long stale_pops = counter("vbs.decode.stale_pops");
  EXPECT_GT(searches, 0);
  EXPECT_GE(path_nodes, searches);
  EXPECT_GT(stale_pops, 0);
  EXPECT_LT(stale_pops + searches, on_stats.nodes_expanded);
}

TEST(Telemetry, EncodeCountersEqualEncodeStatsAndStreamsUnchanged) {
  GenParams p;
  p.n_lut = 24;
  p.n_pi = 3;
  p.n_po = 3;
  p.seed = 11;
  FlowOptions o;
  o.arch = test_arch();
  o.seed = 11;
  const FlowResult r = run_flow(generate_netlist(p), 6, 6, o);
  ASSERT_TRUE(r.routed());
  // A feedback loop of two decode iterations at c=1 needs re-orders for
  // some entries and falls back to raw for others; c=2 with the default
  // budget list-codes every entry.
  std::vector<EncodeOptions> runs(2);
  runs[0].cluster = 1;
  runs[0].decode_iterations = 2;
  runs[1].cluster = 2;

  std::vector<BitVector> off, on;
  for (const EncodeOptions& eo : runs) {
    off.push_back(serialize_vbs(encode_vbs(*r.fabric, r.netlist, r.packed,
                                           r.placement, r.routing.routes, eo)));
  }
  EncodeStats sum;
  telem::MetricsSnapshot snap;
  {
    telem::ScopedEnable enable;
    telem::reset();
    for (const EncodeOptions& eo : runs) {
      EncodeStats st;
      on.push_back(serialize_vbs(encode_vbs(*r.fabric, r.netlist, r.packed,
                                            r.placement, r.routing.routes, eo,
                                            &st)));
      sum.entries += st.entries;
      sum.raw_entries += st.raw_entries;
      sum.reordered_entries += st.reordered_entries;
      sum.conflict_fallbacks += st.conflict_fallbacks;
    }
    snap = telem::snapshot();
    telem::reset();
  }
  EXPECT_EQ(on, off);
  auto counter = [&](const char* name) -> long long {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  EXPECT_GT(sum.entries, sum.raw_entries);
  EXPECT_GT(sum.reordered_entries, 0);
  EXPECT_GT(sum.conflict_fallbacks, 0);
  EXPECT_EQ(counter("vbs.encode.entries"), sum.entries);
  EXPECT_EQ(counter("vbs.encode.raw_entries"), sum.raw_entries);
  EXPECT_EQ(counter("vbs.encode.reordered_entries"), sum.reordered_entries);
  EXPECT_EQ(counter("vbs.encode.conflict_fallbacks"), sum.conflict_fallbacks);
}

/// A journaled, faulted overload replay; returns the final fingerprint and
/// the per-request outcome stream.
struct ServiceRun {
  std::uint64_t fingerprint = 0;
  std::vector<int> statuses;
  std::vector<long long> latencies;
  std::map<int, TenantStats> tenants;
  std::vector<RequestResult> results;
};

ServiceRun replay_faulted(const Trace& trace,
                          const std::vector<BitVector>& streams,
                          const ArchSpec& arch, int threads,
                          const std::string& journal_dir) {
  ServiceOptions opts;
  opts.threads = threads;
  opts.queue_limit = 8;
  opts.deadline_ticks = 12;
  opts.faults = FaultPlan::parse("seed=9,decode=0.05,alloc=0.05,latency=0.1x6");
  ReconfigService svc(arch, trace.fabric_w, trace.fabric_h, opts);
  if (!journal_dir.empty()) svc.open_journal(journal_dir);
  svc.set_tenant_priority(0, 10);
  ServiceRun out;
  std::vector<RequestId> req_of_event(trace.events.size(), kNoRequest);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& e = trace.events[i];
    switch (e.kind) {
      case TraceEvent::Kind::kLoad:
        req_of_event[i] = svc.submit_load(
            streams[static_cast<std::size_t>(e.task_kind)], e.tenant);
        break;
      case TraceEvent::Kind::kUnload:
        req_of_event[i] = svc.submit_unload(
            req_of_event[static_cast<std::size_t>(e.ref)], e.tenant);
        break;
      case TraceEvent::Kind::kRelocate:
        req_of_event[i] = svc.submit_relocate(
            req_of_event[static_cast<std::size_t>(e.ref)], e.tenant);
        break;
    }
    if (i + 1 == trace.events.size() || trace.events[i + 1].tick != e.tick) {
      for (RequestResult& r : svc.drain()) {
        out.statuses.push_back(static_cast<int>(r.status));
        out.latencies.push_back(r.latency_ticks);
        out.results.push_back(std::move(r));
      }
    }
  }
  out.tenants = svc.tenant_stats();
  out.fingerprint = svc.state_fingerprint();
  return out;
}

Trace overload_trace() {
  TraceGenOptions gopts;
  gopts.pattern = ArrivalPattern::kFlashCrowd;
  gopts.events = 48;
  gopts.ticks = 16;
  gopts.kinds = 3;
  return generate_trace(gopts);
}

TEST(Telemetry, FaultedServiceReplayIdenticalOnVsOff) {
  const ArchSpec arch = test_arch();
  const Trace trace = overload_trace();
  std::vector<BitVector> streams;
  for (const TraceTaskKind& k : trace.kinds) {
    streams.push_back(make_stream(k.n_lut, k.grid, k.seed, arch, k.cluster));
  }
  for (const int threads : {1, 2, 8}) {
    TempDir joff("off" + std::to_string(threads));
    const ServiceRun off =
        replay_faulted(trace, streams, arch, threads, joff.path);
    TempDir jon("on" + std::to_string(threads));
    ServiceRun on;
    {
      telem::ScopedEnable enable;
      telem::reset();
      on = replay_faulted(trace, streams, arch, threads, jon.path);
      telem::reset();
    }
    EXPECT_EQ(on.fingerprint, off.fingerprint) << "threads " << threads;
    EXPECT_EQ(on.statuses, off.statuses) << "threads " << threads;
    EXPECT_EQ(on.latencies, off.latencies) << "threads " << threads;
  }
}

// --- the per-request latency breakdown --------------------------------------

TEST(Telemetry, BreakdownTicksTileEveryRequest) {
  const ArchSpec arch = test_arch();
  const Trace trace = overload_trace();
  std::vector<BitVector> streams;
  for (const TraceTaskKind& k : trace.kinds) {
    streams.push_back(make_stream(k.n_lut, k.grid, k.seed, arch, k.cluster));
  }
  const ServiceRun run = replay_faulted(trace, streams, arch, 2, "");
  ASSERT_FALSE(run.results.empty());
  std::map<int, TenantStats> sums;
  bool saw_backoff = false, saw_spike = false;
  for (const RequestResult& r : run.results) {
    EXPECT_EQ(r.latency_ticks, r.queue_wait_ticks + r.backoff_ticks +
                                   r.spike_ticks + r.exec_ticks)
        << "request " << r.request;
    EXPECT_GE(r.queue_wait_ticks, 0);
    EXPECT_GE(r.backoff_ticks, 0);
    EXPECT_GE(r.spike_ticks, 0);
    EXPECT_GE(r.exec_ticks, 0);
    saw_backoff |= r.backoff_ticks > 0;
    saw_spike |= r.spike_ticks > 0;
    TenantStats& t = sums[r.tenant];
    t.latency_ticks += r.latency_ticks;
    t.queue_wait_ticks += r.queue_wait_ticks;
    t.backoff_ticks += r.backoff_ticks;
    t.spike_ticks += r.spike_ticks;
    t.exec_ticks += r.exec_ticks;
  }
  // The fault plan injects retries and latency spikes; a breakdown that
  // never shows them would mean the attribution is dead code.
  EXPECT_TRUE(saw_backoff);
  EXPECT_TRUE(saw_spike);
  for (const auto& [tenant, ts] : run.tenants) {
    EXPECT_EQ(ts.latency_ticks, sums[tenant].latency_ticks) << tenant;
    EXPECT_EQ(ts.queue_wait_ticks, sums[tenant].queue_wait_ticks) << tenant;
    EXPECT_EQ(ts.backoff_ticks, sums[tenant].backoff_ticks) << tenant;
    EXPECT_EQ(ts.spike_ticks, sums[tenant].spike_ticks) << tenant;
    EXPECT_EQ(ts.exec_ticks, sums[tenant].exec_ticks) << tenant;
  }
}

TEST(Telemetry, TickSpansSumToTenantBreakdown) {
  const ArchSpec arch = test_arch();
  const Trace trace = overload_trace();
  std::vector<BitVector> streams;
  for (const TraceTaskKind& k : trace.kinds) {
    streams.push_back(make_stream(k.n_lut, k.grid, k.seed, arch, k.cluster));
  }
  telem::ScopedEnable on;
  telem::reset();
  const ServiceRun run = replay_faulted(trace, streams, arch, 1, "");
  const std::vector<telem::TraceEvent> ev = telem::take_trace();
  telem::reset();
  EXPECT_EQ(telem::check_event_pairing(ev), "");
  std::map<std::uint64_t, long long> request_ns;
  std::map<std::uint64_t, std::map<std::string, long long>> phase_ns;
  for (const telem::TraceEvent& e : ev) {
    if (e.pid != telem::kPidTicks) continue;
    EXPECT_EQ(e.phase, 'X');
    if (e.name == "request") {
      request_ns[e.tid] += static_cast<long long>(e.dur_ns);
    } else {
      phase_ns[e.tid][e.name] += static_cast<long long>(e.dur_ns);
    }
  }
  ASSERT_FALSE(request_ns.empty());
  for (const auto& [tenant, ts] : run.tenants) {
    const auto tid = static_cast<std::uint64_t>(tenant);
    EXPECT_EQ(request_ns[tid], ts.latency_ticks * 1000) << tenant;
    EXPECT_EQ(phase_ns[tid]["queue_wait"], ts.queue_wait_ticks * 1000);
    EXPECT_EQ(phase_ns[tid]["backoff"], ts.backoff_ticks * 1000);
    EXPECT_EQ(phase_ns[tid]["spike"], ts.spike_ticks * 1000);
    EXPECT_EQ(phase_ns[tid]["exec"], ts.exec_ticks * 1000);
  }
}

}  // namespace
}  // namespace vbs
