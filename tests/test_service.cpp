// Reconfiguration-service tests: decoded-stream cache, placement/eviction
// policies, trace generation/round-trip, batched async devirtualization,
// and the replay-determinism guarantee (byte-identical config_memory and
// eviction log at any thread count).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "arch/lookahead.h"
#include "flow/flow.h"
#include "netlist/generator.h"
#include "rtc/service/eviction.h"
#include "rtc/service/service.h"
#include "rtc/service/stream_cache.h"
#include "region_metrics.h"
#include "rtc/service/trace.h"
#include "util/hash.h"
#include "util/stats.h"
#include "util/telemetry.h"
#include "vbs/encoder.h"

namespace vbs {
namespace {

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

ArchSpec test_arch() {
  ArchSpec arch;
  arch.chan_width = 8;
  return arch;
}

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("vbs_service_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

// --- content hash & cache ---------------------------------------------------

TEST(StreamHash, IdenticalContentSameHash) {
  const ArchSpec arch = test_arch();
  const BitVector a = make_stream(12, 4, 7, arch);
  const BitVector b = make_stream(12, 4, 7, arch);
  const BitVector c = make_stream(12, 4, 8, arch);
  EXPECT_EQ(a, b);
  EXPECT_EQ(stream_content_hash(a), stream_content_hash(b));
  EXPECT_NE(stream_content_hash(a), stream_content_hash(c));
}

// Pins the content hash of a fixed stream: it feeds state_fingerprint,
// which every journal commit record stores.
TEST(StreamHash, ValueIsPinned) {
  BitVector v;
  v.append_bits(0xdeadbeefcafef00dull, 64);
  v.append_bits(0x2b, 7);
  EXPECT_EQ(stream_content_hash(v), 0x83d175eb88709885ull);
}

std::shared_ptr<DecodedStream> fake_decoded(std::size_t payload_bits) {
  auto d = std::make_shared<DecodedStream>();
  d->payloads.emplace_back(payload_bits);
  return d;
}

TEST(DecodedStreamCache, LruEvictionRespectsCapacityAndTouch) {
  DecodedStreamCache cache(300);
  cache.insert(1, fake_decoded(100));
  cache.insert(2, fake_decoded(100));
  cache.insert(3, fake_decoded(100));
  EXPECT_EQ(cache.entries(), 3u);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(cache.find(1), nullptr);
  cache.insert(4, fake_decoded(100));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.find(2), nullptr);  // evicted
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_NE(cache.find(3), nullptr);
  EXPECT_NE(cache.find(4), nullptr);
  EXPECT_EQ(cache.size_bits(), 300u);
}

TEST(DecodedStreamCache, ZeroCapacityDisables) {
  DecodedStreamCache cache(0);
  cache.insert(1, fake_decoded(10));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_EQ(cache.insertions(), 0);
}

TEST(DecodedStreamCache, OversizedEntryNotCached) {
  DecodedStreamCache cache(50);
  cache.insert(1, fake_decoded(100));
  EXPECT_EQ(cache.entries(), 0u);
  cache.insert(2, fake_decoded(50));
  EXPECT_EQ(cache.entries(), 1u);
}

// --- eviction planner -------------------------------------------------------

TEST(PlacementPolicy, EvictionPlanPrefersCheapestRegion) {
  RectAllocator a(12, 6);
  a.occupy({0, 0, 6, 6});   // big old task
  a.occupy({8, 0, 4, 4});   // small recent task
  const std::vector<VictimCandidate> tasks = {
      {1, {0, 0, 6, 6}, /*last_use=*/1},
      {2, {8, 0, 4, 4}, /*last_use=*/2},
  };
  // A 4x4 fits at (8,0)-ish only by evicting task 2 (area 16) — cheaper
  // than clearing the 6x6 (area 36) even though task 2 is more recent.
  const auto plan = plan_eviction(a, tasks, 4, 4);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->victims, (std::vector<int>{2}));
  // A fabric-wide request must take both, oldest first in the log order.
  const auto both = plan_eviction(a, tasks, 12, 6);
  ASSERT_TRUE(both.has_value());
  EXPECT_EQ(both->victims, (std::vector<int>{1, 2}));
  // Impossible footprint.
  EXPECT_FALSE(plan_eviction(a, tasks, 13, 2).has_value());
}

TEST(PlacementPolicy, EvictionPlanUsesFreeRegionWhenPossible) {
  RectAllocator a(12, 6);
  a.occupy({0, 0, 6, 6});
  const std::vector<VictimCandidate> tasks = {{1, {0, 0, 6, 6}, 1}};
  const auto plan = plan_eviction(a, tasks, 4, 4);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->victims.empty());  // the free half costs nothing
  EXPECT_TRUE(a.is_free({plan->origin.x, plan->origin.y, 4, 4}));
}

// --- traces -----------------------------------------------------------------

TEST(Trace, GenerationIsDeterministic) {
  TraceGenOptions opts;
  opts.pattern = ArrivalPattern::kBursty;
  opts.events = 80;
  const Trace a = generate_trace(opts);
  const Trace b = generate_trace(opts);
  EXPECT_EQ(a, b);
  opts.seed = 2;
  EXPECT_NE(generate_trace(opts), a);
}

TEST(Trace, AllPatternsProduceValidReferences) {
  for (const ArrivalPattern p :
       {ArrivalPattern::kSteady, ArrivalPattern::kBursty,
        ArrivalPattern::kDiurnal, ArrivalPattern::kChurn}) {
    TraceGenOptions opts;
    opts.pattern = p;
    opts.events = 120;
    const Trace t = generate_trace(opts);
    EXPECT_GT(t.events.size(), 20u) << to_string(p);
    int loads = 0;
    int last_tick = 0;
    for (std::size_t i = 0; i < t.events.size(); ++i) {
      const TraceEvent& e = t.events[i];
      EXPECT_GE(e.tick, last_tick);
      last_tick = e.tick;
      if (e.kind == TraceEvent::Kind::kLoad) {
        ++loads;
        ASSERT_GE(e.task_kind, 0);
        ASSERT_LT(e.task_kind, static_cast<int>(t.kinds.size()));
      } else {
        ASSERT_GE(e.ref, 0);
        ASSERT_LT(e.ref, static_cast<int>(i));
        EXPECT_EQ(t.events[static_cast<std::size_t>(e.ref)].kind,
                  TraceEvent::Kind::kLoad);
      }
    }
    EXPECT_GT(loads, 10) << to_string(p);
  }
}

TEST(Trace, AdversarialPatternsAreTwoTenant) {
  for (const ArrivalPattern p :
       {ArrivalPattern::kFlashCrowd, ArrivalPattern::kUniqueFlood}) {
    TraceGenOptions opts;
    opts.pattern = p;
    opts.events = 100;
    const Trace t = generate_trace(opts);
    EXPECT_EQ(generate_trace(opts), t) << to_string(p);  // deterministic
    int background = 0, flood = 0;
    std::set<int> flood_kinds;
    for (const TraceEvent& e : t.events) {
      (e.tenant == 0 ? background : flood)++;
      if (e.tenant == 1 && e.kind == TraceEvent::Kind::kLoad) {
        flood_kinds.insert(e.task_kind);
      }
    }
    EXPECT_GT(background, 0) << to_string(p);
    EXPECT_GT(flood, 0) << to_string(p);
    if (p == ArrivalPattern::kFlashCrowd) {
      // Everyone in the crowd wants the same hot content.
      EXPECT_EQ(flood_kinds.size(), 1u);
    } else {
      // Every flood load is brand-new content: cache-busting by design.
      EXPECT_EQ(flood_kinds.size(), static_cast<std::size_t>(flood));
    }
  }
}

// --- service ----------------------------------------------------------------

TEST(Service, BatchedLoadsMatchControllerAndDedupe) {
  const ArchSpec arch = test_arch();
  const BitVector s = make_stream(13, 4, 21, arch);
  ServiceOptions opts;
  opts.threads = 2;
  ReconfigService svc(arch, 8, 4, opts);
  svc.submit_load(s);
  svc.submit_load(s);  // same content, same batch
  const auto results = svc.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, RequestStatus::kDone);
  EXPECT_EQ(results[1].status, RequestStatus::kDone);
  EXPECT_FALSE(results[0].cache_hit);
  EXPECT_TRUE(results[1].cache_hit);  // batch twin decoded once

  // Same fabric contents as the synchronous controller.
  ReconfigController ref(arch, 8, 4);
  ref.load_at(s, {0, 0});
  ref.load_at(s, {4, 0});
  EXPECT_EQ(svc.controller().config_memory(), ref.config_memory());
  EXPECT_EQ(svc.stats().warm_loads, 1);
  EXPECT_EQ(svc.stats().cold_loads, 1);
}

TEST(Service, WarmLoadSkipsDevirtualization) {
  const ArchSpec arch = test_arch();
  const BitVector s = make_stream(13, 4, 22, arch);
  ReconfigService svc(arch, 8, 8);
  const RequestId first = svc.submit_load(s);
  svc.drain();
  const long long cold_nodes = svc.stats().decode.nodes_expanded;
  ASSERT_GT(cold_nodes, 0);

  // Second load of the same content in a later drain: pure cache hit, the
  // acceptance bar (>= 10x fewer node expansions) is met with literal zero.
  svc.submit_load(s);
  const auto results = svc.drain();
  EXPECT_TRUE(results[0].cache_hit);
  EXPECT_EQ(svc.stats().decode.nodes_expanded, cold_nodes);
  EXPECT_GE(svc.cache().hits(), 1);

  // And the cached commit wrote the same bits a fresh decode would.
  ReconfigController ref(arch, 8, 8);
  ref.load_at(s, {0, 0});
  ref.load_at(s, {4, 0});
  EXPECT_EQ(svc.controller().config_memory(), ref.config_memory());
  (void)first;
}

TEST(Service, EvictToFitLogsVictims) {
  const ArchSpec arch = test_arch();
  const BitVector s = make_stream(21, 5, 23, arch);
  ReconfigService svc(arch, 10, 5);  // room for two 5x5 tasks
  const RequestId a = svc.submit_load(s);
  const RequestId b = svc.submit_load(s);
  const RequestId c = svc.submit_load(s);  // must evict the oldest
  const auto results = svc.drain();
  EXPECT_EQ(results[2].status, RequestStatus::kDone);
  EXPECT_EQ(results[2].evicted_tasks, 1);
  ASSERT_EQ(svc.eviction_log().size(), 1u);
  EXPECT_EQ(svc.eviction_log()[0].task, results[0].task);
  // The evicted task was the least recently used: request a's.
  EXPECT_EQ(svc.task_of(a), kNoTask);
  EXPECT_NE(svc.task_of(b), kNoTask);
  EXPECT_NE(svc.task_of(c), kNoTask);
  EXPECT_EQ(svc.eviction_log()[0].cause, c);
}

TEST(Service, RejectsWhenEvictionImpossible) {
  const ArchSpec arch = test_arch();
  const BitVector small = make_stream(13, 4, 24, arch);
  const BitVector big = make_stream(31, 6, 25, arch);
  ReconfigService svc(arch, 5, 5);
  svc.submit_load(small);
  svc.submit_load(big);  // 6x6 exceeds the fabric outright
  const auto results = svc.drain();
  EXPECT_EQ(results[0].status, RequestStatus::kDone);
  EXPECT_EQ(results[1].status, RequestStatus::kRejected);
  EXPECT_EQ(svc.stats().rejected, 1);
  EXPECT_TRUE(svc.eviction_log().empty());  // nothing evicted in vain
}

TEST(Service, UnloadAndRelocateOfGoneTaskAreTolerated) {
  const ArchSpec arch = test_arch();
  const BitVector s = make_stream(13, 4, 26, arch);
  ReconfigService svc(arch, 8, 4);
  const RequestId load = svc.submit_load(s);
  const RequestId unload = svc.submit_unload(load);
  const RequestId again = svc.submit_unload(load);
  const RequestId move = svc.submit_relocate(load);
  const auto results = svc.drain();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].status, RequestStatus::kDone);
  EXPECT_EQ(results[1].status, RequestStatus::kDone);
  EXPECT_EQ(results[2].status, RequestStatus::kRejected);  // double unload
  EXPECT_EQ(results[3].status, RequestStatus::kRejected);  // gone task
  EXPECT_EQ(svc.controller().num_tasks(), 0);
  (void)unload;
  (void)again;
  (void)move;
}

TEST(Service, RelocateCopiesCachedPayload) {
  const ArchSpec arch = test_arch();
  const BitVector s = make_stream(13, 4, 27, arch, /*cluster=*/2);
  ReconfigService svc(arch, 12, 4);
  const RequestId load = svc.submit_load(s);
  svc.drain();
  const long long nodes_before = svc.stats().decode.nodes_expanded;
  svc.submit_relocate(load);
  const auto results = svc.drain();
  EXPECT_EQ(results[0].status, RequestStatus::kDone);
  // Moved somewhere, by copying cached payloads — no new decode work.
  EXPECT_EQ(svc.stats().relocates_cached, 1);
  EXPECT_EQ(svc.stats().decode.nodes_expanded, nodes_before);
  const TaskId id = svc.task_of(load);
  ASSERT_NE(id, kNoTask);
  // The moved configuration is a fresh decode's worth of bits.
  const Rect r = svc.controller().record(id).rect;
  ReconfigController ref(arch, 12, 4);
  ref.load_at(s, {r.x, r.y});
  EXPECT_EQ(svc.controller().config_memory(), ref.config_memory());
}

TEST(Service, UncachedRelocateRedecodesCorrectly) {
  const ArchSpec arch = test_arch();
  const BitVector s = make_stream(13, 4, 28, arch);
  ServiceOptions opts;
  opts.cache_capacity_bits = 0;  // every relocation is a cache miss
  ReconfigService svc(arch, 12, 4, opts);
  const RequestId load = svc.submit_load(s);
  svc.drain();
  const long long nodes = svc.stats().decode.nodes_expanded;
  svc.submit_relocate(load);
  const auto results = svc.drain();
  EXPECT_EQ(results[0].status, RequestStatus::kDone);
  EXPECT_EQ(svc.stats().relocates_decoded, 1);
  EXPECT_EQ(svc.stats().relocates_cached, 0);
  EXPECT_GT(svc.stats().decode.nodes_expanded, nodes);  // paid a re-decode
  const TaskId id = svc.task_of(load);
  ASSERT_NE(id, kNoTask);
  const Rect r = svc.controller().record(id).rect;
  ReconfigController ref(arch, 12, 4);
  ref.load_at(s, {r.x, r.y});
  EXPECT_EQ(svc.controller().config_memory(), ref.config_memory());
}

std::vector<long long> stat_fields(const DecodeStats& s) {
  return {s.pairs_routed,    s.pairs_failed, s.nodes_expanded,
          s.entries_decoded, s.raw_entries,  s.negotiation_iterations};
}

// A decoder may serve many loads. Whatever streams, region shapes and
// failed decodes it served before, an entry must decode to the payload and
// search counts of a decoder built fresh for it. The stream cache is off,
// so every repeat and the relocation decode again.
TEST(Service, ReusedDecodersMatchFreshDecodes) {
  const ArchSpec arch = test_arch();
  // c = 1 and c = 2 streams; the 5x5 c = 2 stream has partial extents.
  const std::vector<BitVector> valid = {
      make_stream(13, 4, 61, arch), make_stream(21, 5, 62, arch, 2),
      make_stream(21, 5, 63, arch), make_stream(13, 4, 64, arch, 2)};
  // Parses, but its first (full 2x2) entry demands every track for a
  // straight-through signal plus a pin-to-pin route. That cannot route, so
  // the decode fails after its searches have dirtied the decoder.
  VbsImage bad_img = deserialize_vbs(valid[1]);
  {
    const RegionModel rm(arch, 2);
    VbsEntry& e = bad_img.entries.front();
    ASSERT_EQ(e.cx, 0);
    ASSERT_EQ(e.cy, 0);
    e.raw = false;
    e.conns.clear();
    auto port = [](int p) { return static_cast<std::uint16_t>(p); };
    for (int k = 0; k < 2; ++k) {
      for (int t = 0; t < arch.chan_width; ++t) {
        e.conns.push_back({port(rm.port_of_side(Side::kWest, k, t)),
                           port(rm.port_of_side(Side::kEast, k, t))});
        e.conns.push_back({port(rm.port_of_side(Side::kNorth, k, t)),
                           port(rm.port_of_side(Side::kSouth, k, t))});
      }
    }
    e.conns.push_back({port(rm.port_of_pin(0, 0, arch.lb_pins() - 1)),
                       port(rm.port_of_pin(0, 0, 0))});
  }
  const BitVector bad = serialize_vbs(bad_img);

  const FabricLayout layout(arch, 24, 12);
  std::vector<std::vector<long long>> fresh;
  for (const BitVector& s : valid) {
    DecodeStats st;
    devirtualize_image(deserialize_vbs(s), layout, {0, 0}, &st);
    fresh.push_back(stat_fields(st));
  }
  DecodeStats bad_stats;
  try {
    devirtualize_image(deserialize_vbs(bad), layout, {0, 0}, &bad_stats);
    ADD_FAILURE() << "the bad stream decoded";
  } catch (const VbsError& ex) {
    EXPECT_EQ(ex.code(), VbsErrc::kDecodeFailed);
  }
  EXPECT_GT(bad_stats.nodes_expanded, 0);
  EXPECT_EQ(bad_stats.pairs_failed, 1);

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    ServiceOptions opts;
    opts.threads = threads;
    opts.cache_capacity_bits = 0;
    ReconfigService svc(arch, 24, 12, opts);
    std::map<TaskId, std::size_t> kind_of_task;
    for (int pass = 0; pass < 2; ++pass) {
      std::map<RequestId, std::size_t> kind_of_request;
      for (std::size_t k = 0; k < valid.size(); ++k) {
        kind_of_request[svc.submit_load(valid[k])] = k;
        if (pass == 0 && k == 1) svc.submit_load(bad);  // mid-batch
      }
      const auto results = svc.drain();
      ASSERT_EQ(results.size(), pass == 0 ? valid.size() + 1 : valid.size());
      for (const RequestResult& r : results) {
        const auto kind = kind_of_request.find(r.request);
        if (kind == kind_of_request.end()) {
          EXPECT_EQ(r.status, RequestStatus::kFailed);
          EXPECT_EQ(r.code, VbsErrc::kDecodeFailed);
          continue;
        }
        ASSERT_EQ(r.status, RequestStatus::kDone) << r.request;
        EXPECT_FALSE(r.cache_hit);
        kind_of_task[r.task] = kind->second;
        EXPECT_EQ(stat_fields(svc.controller().record(r.task).decode),
                  fresh[kind->second])
            << "pass " << pass << " kind " << kind->second;
      }
    }
    EXPECT_TRUE(svc.eviction_log().empty());

    // An uncached relocation re-decodes the retained image.
    const auto moved = std::find_if(
        kind_of_task.begin(), kind_of_task.end(),
        [](const auto& kv) { return kv.second == 1; });
    ASSERT_NE(moved, kind_of_task.end());
    RequestId load_of_moved = kNoRequest;
    for (RequestId id = 0; id < svc.next_request_id(); ++id) {
      if (svc.task_of(id) == moved->first) load_of_moved = id;
    }
    ASSERT_NE(load_of_moved, kNoRequest);
    const DecodeStats before = svc.stats().decode;
    svc.submit_relocate(load_of_moved);
    ASSERT_EQ(svc.drain().front().status, RequestStatus::kDone);
    EXPECT_EQ(svc.stats().relocates_decoded, 1);
    std::vector<long long> delta = stat_fields(svc.stats().decode);
    const std::vector<long long> base = stat_fields(before);
    for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= base[i];
    EXPECT_EQ(delta, fresh[1]);

    // The memory is the union of fresh decodes at every task's origin.
    BitVector expected(layout.config_bits_total());
    for (const TaskId id : svc.controller().task_ids()) {
      const Rect r = svc.controller().record(id).rect;
      const BitVector one = devirtualize_image(
          deserialize_vbs(valid[kind_of_task.at(id)]), layout, {r.x, r.y});
      expected.or_range(0, one, 0, one.size());
    }
    EXPECT_EQ(svc.controller().num_tasks(), 2 * static_cast<int>(valid.size()));
    EXPECT_EQ(svc.controller().config_memory(), expected);
  }
}

// Each rank builds a region shape once and keeps it: later passes over
// shapes the service has seen, and the uncached relocation's re-decode,
// build no model.
TEST(Service, SeenShapesBuildNoRegionModels) {
  const ArchSpec arch = test_arch();
  // Five shapes: c = 1's 1x1, and c = 2's 2x2, 1x2, 2x1 and 1x1 on 5x5.
  const std::vector<BitVector> streams = {make_stream(13, 4, 71, arch),
                                          make_stream(21, 5, 72, arch, 2)};
  const telem::ScopedEnable on;
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    ServiceOptions opts;
    opts.threads = threads;
    opts.cache_capacity_bits = 0;  // every load decodes
    ReconfigService svc(arch, 24, 12, opts);
    const long long before = region_models_built();
    RequestId moved = kNoRequest;
    for (int pass = 0; pass < 3; ++pass) {
      for (const BitVector& s : streams) moved = svc.submit_load(s);
      for (const RequestResult& r : svc.drain()) {
        EXPECT_EQ(r.status, RequestStatus::kDone) << r.request;
      }
      const long long built = region_models_built() - before;
      if (threads == 1) {
        EXPECT_EQ(built, 5) << "pass " << pass;
      } else {
        // A rank builds a shape the first time it meets it, at most once.
        EXPECT_LE(built, 5 * threads) << "pass " << pass;
      }
    }
    if (threads == 1) {
      svc.submit_relocate(moved);
      ASSERT_EQ(svc.drain().front().status, RequestStatus::kDone);
      EXPECT_EQ(svc.stats().relocates_decoded, 1);
      EXPECT_EQ(region_models_built() - before, 5);
    }
  }
}

// Headers that parse, one empty entry each, in more distinct region shapes
// than a rank keeps, ending in wide-channel shapes whose
// lookahead tables together exceed the byte bound of both ranks: every
// rank stays within its retention bound, and the service keeps serving.
TEST(Service, RegionShapeFloodStaysWithinTheRankBound) {
  std::vector<BitVector> flood;
  std::size_t wide_tables = 0;
  auto add = [&](const ArchSpec& arch, int c, int w, int h) {
    VbsImage img;
    img.spec = arch;
    img.cluster = c;
    img.task_w = w;
    img.task_h = h;
    img.entries.emplace_back();
    img.entries.back().logic.resize(static_cast<std::size_t>(c * c));
    flood.push_back(serialize_vbs(img));
  };
  const ArchSpec arch = test_arch();
  for (int c = 3; c <= 5; ++c) {
    for (int w = 1; w <= c; ++w) {
      for (int h = 1; h <= c; ++h) add(arch, c, w, h);
    }
  }
  // Other architectures decode too, then fail at commit.
  int other_archs = 0;
  for (int width = 4; width <= 7; ++width, ++other_archs) {
    ArchSpec other = arch;
    other.chan_width = width;
    add(other, 2, 2, 2);
  }
  for (int width = 56; width <= 61; ++width, ++other_archs) {
    ArchSpec other = arch;
    other.chan_width = width;
    add(other, 1, 1, 1);
    wide_tables += Lookahead::table_bytes(other);
  }
  ASSERT_GT(flood.size(), RegionDecoderCache::kMaxShapes);
  ASSERT_GT(wide_tables, 2 * RegionDecoderCache::kMaxBytes);

  const telem::ScopedEnable on;
  telem::reset();
  ServiceOptions opts;
  opts.threads = 2;
  opts.cache_capacity_bits = 0;
  ReconfigService svc(arch, 8, 8, opts);
  const long long before = region_models_built();
  for (const BitVector& s : flood) svc.submit_unload(svc.submit_load(s));
  long long done = 0, failed = 0;
  for (const RequestResult& r : svc.drain()) {
    if (r.kind != RequestKind::kLoad) continue;
    if (r.status == RequestStatus::kDone) ++done;
    if (r.status == RequestStatus::kFailed) {
      EXPECT_EQ(r.code, VbsErrc::kArchMismatch);
      ++failed;
    }
  }
  EXPECT_EQ(done, static_cast<long long>(flood.size()) - other_archs);
  EXPECT_EQ(failed, other_archs);
  EXPECT_GE(region_models_built() - before,
            static_cast<long long>(flood.size()));
  EXPECT_GT(service_decoder_bytes(), 0.0);
  EXPECT_LE(service_decoder_bytes(),
            static_cast<double>(RegionDecoderCache::kMaxBytes));
  // A valid load after the flood still matches a fresh decode.
  const BitVector s = make_stream(13, 4, 73, arch);
  const RequestId id = svc.submit_load(s);
  ASSERT_EQ(svc.drain().front().status, RequestStatus::kDone);
  const Rect r = svc.controller().record(svc.task_of(id)).rect;
  EXPECT_EQ(svc.controller().config_memory(),
            devirtualize_image(deserialize_vbs(s), svc.controller().fabric(),
                               {r.x, r.y}));
  EXPECT_LE(service_decoder_bytes(),
            static_cast<double>(RegionDecoderCache::kMaxBytes));
}

// Pins the configuration-memory bytes the service commits. The sequence
// covers batch-twin and later cache-hit loads of a c = 1 stream and a
// c = 2 stream with partial clusters, unloads, a compaction pass that
// relocates the resident task toward the origin the way
// ReconfigController::defragment would, and an evict-to-fit. After every
// drain the FNV-1a-64 of the memory's words folds into a running hash, so
// any moved, missing or stray bit in how entries are written or regions
// are cleared fails here. A cache-less run must land on the same bytes.
TEST(Service, ConfigMemoryBytesArePinned) {
  const ArchSpec arch = test_arch();
  const BitVector a = make_stream(13, 4, 41, arch);
  const BitVector b = make_stream(21, 5, 42, arch, /*cluster=*/2);
  // The final state fingerprint covers the cache, so it differs per run.
  const struct {
    std::size_t cache_bits;
    std::uint64_t fingerprint;
  } runs[] = {{std::size_t{64} << 20, 0x6063c8a29ed60180ull},
              {0, 0xcd82d19621953cc0ull}};
  for (const auto& run : runs) {
    SCOPED_TRACE(run.cache_bits);
    ServiceOptions opts;
    opts.cache_capacity_bits = run.cache_bits;
    ReconfigService svc(arch, 14, 5, opts);
    std::uint64_t h = kFnvOffset64;
    auto drain_and_fold = [&] {
      for (const RequestResult& r : svc.drain()) {
        EXPECT_EQ(r.status, RequestStatus::kDone) << r.request;
      }
      const auto& words = svc.controller().config_memory().words();
      h = fnv1a64(words.data(), words.size() * sizeof(words[0]), h);
    };
    const RequestId a0 = svc.submit_load(a);
    const RequestId a1 = svc.submit_load(a);
    const RequestId b0 = svc.submit_load(b);
    drain_and_fold();
    svc.submit_unload(a0);
    svc.submit_unload(a1);
    drain_and_fold();
    svc.submit_relocate(b0);  // compaction: slides to the freed origin
    drain_and_fold();
    EXPECT_EQ(svc.controller().record(svc.task_of(b0)).rect,
              (Rect{0, 0, 5, 5}));
    const RequestId b1 = svc.submit_load(b);
    const RequestId a2 = svc.submit_load(a);
    drain_and_fold();
    const RequestId b2 = svc.submit_load(b);  // no room left: evicts b0
    drain_and_fold();
    EXPECT_EQ(svc.eviction_log().size(), 1u);
    EXPECT_EQ(svc.task_of(b0), kNoTask);
    svc.submit_unload(b2);
    svc.submit_relocate(a2);  // into the freed corner
    svc.submit_load(a);
    drain_and_fold();
    EXPECT_EQ(svc.controller().record(svc.task_of(a2)).rect,
              (Rect{0, 0, 4, 4}));
    EXPECT_EQ(svc.stats().relocates_cached + svc.stats().relocates_decoded, 2);
    EXPECT_NE(svc.task_of(b1), kNoTask);
    EXPECT_EQ(h, 0xc3306119eca4b713ull);
    EXPECT_EQ(svc.state_fingerprint(), run.fingerprint);
  }
}

// --- trace replay determinism ----------------------------------------------

struct ReplayOutcome {
  BitVector config;
  std::vector<EvictionEvent> evictions;
  std::vector<int> statuses;          ///< per request, admission order
  std::vector<long long> latencies;   ///< modeled ticks, same order
  long long warm_loads = 0;
  long long decode_nodes = 0;
  long long shed = 0, deadline_misses = 0, retries = 0, faults = 0;
  long long now_ticks = 0;
  /// Modeled-tick latencies of committed loads, by tenant.
  std::map<int, std::vector<double>> done_load_ticks;
  std::map<int, TenantStats> tenants;
};

ReplayOutcome replay(const Trace& trace,
                     const std::vector<BitVector>& kind_streams,
                     const ArchSpec& arch, int threads,
                     std::size_t cache_bits, ServiceOptions opts = {},
                     const std::string& journal_dir = {},
                     std::uint64_t* fingerprint_out = nullptr,
                     const std::map<int, int>& priorities = {}) {
  opts.threads = threads;
  opts.cache_capacity_bits = cache_bits;
  ReconfigService svc(arch, trace.fabric_w, trace.fabric_h, opts);
  if (!journal_dir.empty()) svc.open_journal(journal_dir);
  for (const auto& [tenant, prio] : priorities) {
    svc.set_tenant_priority(tenant, prio);
  }
  ReplayOutcome out;
  std::vector<RequestId> req_of_event(trace.events.size(), kNoRequest);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& e = trace.events[i];
    switch (e.kind) {
      case TraceEvent::Kind::kLoad:
        req_of_event[i] = svc.submit_load(
            kind_streams[static_cast<std::size_t>(e.task_kind)], e.tenant);
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
    // Drain at tick boundaries so batches match the bench's replay shape.
    if (i + 1 == trace.events.size() ||
        trace.events[i + 1].tick != e.tick) {
      for (const RequestResult& r : svc.drain()) {
        out.statuses.push_back(static_cast<int>(r.status));
        out.latencies.push_back(r.latency_ticks);
        if (r.kind == RequestKind::kLoad && r.status == RequestStatus::kDone) {
          out.done_load_ticks[r.tenant].push_back(
              static_cast<double>(r.latency_ticks));
        }
      }
    }
  }
  out.config = svc.controller().config_memory();
  out.evictions = svc.eviction_log();
  out.warm_loads = svc.stats().warm_loads;
  out.decode_nodes = svc.stats().decode.nodes_expanded;
  out.shed = svc.stats().shed;
  out.deadline_misses = svc.stats().deadline_misses;
  out.retries = svc.stats().retries;
  out.faults = svc.stats().faults_injected;
  out.now_ticks = svc.now_ticks();
  out.tenants = svc.tenant_stats();
  if (fingerprint_out != nullptr) *fingerprint_out = svc.state_fingerprint();
  return out;
}

void expect_same_outcome(const ReplayOutcome& a, const ReplayOutcome& b,
                         const char* what) {
  EXPECT_EQ(a.config, b.config) << what;
  ASSERT_EQ(a.evictions.size(), b.evictions.size()) << what;
  for (std::size_t i = 0; i < a.evictions.size(); ++i) {
    EXPECT_EQ(a.evictions[i].seq, b.evictions[i].seq) << what;
    EXPECT_EQ(a.evictions[i].task, b.evictions[i].task) << what;
    EXPECT_EQ(a.evictions[i].rect, b.evictions[i].rect) << what;
    EXPECT_EQ(a.evictions[i].cause, b.evictions[i].cause) << what;
  }
  EXPECT_EQ(a.statuses, b.statuses) << what;
  EXPECT_EQ(a.latencies, b.latencies) << what;
  EXPECT_EQ(a.shed, b.shed) << what;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << what;
  EXPECT_EQ(a.retries, b.retries) << what;
  EXPECT_EQ(a.faults, b.faults) << what;
  EXPECT_EQ(a.now_ticks, b.now_ticks) << what;
}

TEST(Service, TraceReplayIsDeterministicAcrossThreadCounts) {
  const ArchSpec arch = test_arch();
  TraceGenOptions gopts;
  gopts.pattern = ArrivalPattern::kBursty;  // deepest batches
  gopts.events = 60;
  gopts.kinds = 3;
  gopts.fabric_w = 10;
  gopts.fabric_h = 8;
  const Trace trace = generate_trace(gopts);
  std::vector<BitVector> streams;
  for (const TraceTaskKind& k : trace.kinds) {
    streams.push_back(make_stream(k.n_lut, k.grid, k.seed, arch, k.cluster));
  }
  const std::size_t cache_bits = std::size_t{16} << 20;
  const ReplayOutcome serial = replay(trace, streams, arch, 1, cache_bits);
  EXPECT_GT(serial.warm_loads, 0);
  for (const int threads : {2, 8}) {
    const ReplayOutcome parallel =
        replay(trace, streams, arch, threads, cache_bits);
    expect_same_outcome(serial, parallel,
                        ("threads=" + std::to_string(threads)).c_str());
    EXPECT_EQ(serial.warm_loads, parallel.warm_loads);
    EXPECT_EQ(serial.decode_nodes, parallel.decode_nodes);
  }
  // A cold replay (cache disabled) redoes the decode work but must land on
  // the same configuration: cached payloads are real decodes.
  const ReplayOutcome cold = replay(trace, streams, arch, 2, 0);
  expect_same_outcome(serial, cold, "cold");
  EXPECT_GT(cold.decode_nodes, serial.decode_nodes);
}

// --- overload semantics: shedding, deadlines, retries, QoS ------------------

TEST(ServiceOverload, HigherPriorityPreemptsQueuedLoad) {
  const ArchSpec arch = test_arch();
  const BitVector s = make_stream(13, 4, 40, arch);
  ServiceOptions opts;
  opts.queue_limit = 1;
  ReconfigService svc(arch, 8, 4, opts);
  svc.set_tenant_priority(1, 10);
  const RequestId low = svc.submit_load(s, 0);
  const RequestId high = svc.submit_load(s, 1);  // full queue: low is shed
  const auto results = svc.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].request, low);
  EXPECT_EQ(results[0].status, RequestStatus::kShed);
  EXPECT_EQ(results[0].code, VbsErrc::kQueueFull);
  EXPECT_EQ(results[1].request, high);
  EXPECT_EQ(results[1].status, RequestStatus::kDone);
  EXPECT_EQ(results[1].tenant, 1);
  EXPECT_EQ(results[1].priority, 10);
  // The shed load never touched the fabric.
  EXPECT_EQ(svc.task_of(low), kNoTask);
  EXPECT_EQ(svc.controller().num_tasks(), 1);
  EXPECT_EQ(svc.stats().shed, 1);
  EXPECT_EQ(svc.tenant_stats().at(0).shed, 1);
  EXPECT_EQ(svc.tenant_stats().at(1).done, 1);
}

TEST(ServiceOverload, EqualPriorityShedsTheArrivalButNeverUnloads) {
  const ArchSpec arch = test_arch();
  const BitVector s = make_stream(13, 4, 41, arch);
  ServiceOptions opts;
  opts.queue_limit = 1;
  ReconfigService svc(arch, 8, 4, opts);
  const RequestId a = svc.submit_load(s);
  const RequestId b = svc.submit_load(s);  // same priority: b itself is shed
  const RequestId u = svc.submit_unload(a);  // never shed: frees capacity
  const auto results = svc.drain();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, RequestStatus::kDone);
  EXPECT_EQ(results[1].status, RequestStatus::kShed);
  EXPECT_EQ(results[2].status, RequestStatus::kDone);
  EXPECT_EQ(svc.controller().num_tasks(), 0);
  (void)b;
  (void)u;
}

TEST(ServiceOverload, DeadlineExpiresLateRequestsOnTheModeledClock) {
  const ArchSpec arch = test_arch();
  const BitVector s = make_stream(13, 4, 42, arch);
  ServiceOptions opts;
  opts.deadline_ticks = 1;
  ReconfigService svc(arch, 8, 4, opts);
  svc.submit_load(s);
  svc.submit_load(s);
  svc.submit_load(s);  // waits 2 ticks behind the first two: expired
  const auto results = svc.drain();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, RequestStatus::kDone);
  EXPECT_EQ(results[0].latency_ticks, 1);
  EXPECT_EQ(results[1].status, RequestStatus::kDone);
  EXPECT_EQ(results[1].latency_ticks, 2);
  EXPECT_EQ(results[2].status, RequestStatus::kDeadline);
  EXPECT_EQ(results[2].code, VbsErrc::kDeadline);
  EXPECT_EQ(results[2].latency_ticks, 2);  // expired while waiting
  EXPECT_EQ(svc.stats().deadline_misses, 1);
  EXPECT_EQ(svc.tenant_stats().at(0).deadline_misses, 1);
  EXPECT_EQ(svc.now_ticks(), 2);
}

TEST(ServiceOverload, PermanentDecodeFaultExhaustsRetriesWithBackoff) {
  const ArchSpec arch = test_arch();
  const BitVector s = make_stream(13, 4, 43, arch);
  ServiceOptions opts;
  opts.cache_capacity_bits = 0;  // every attempt pays a fresh decode
  opts.retry_limit = 2;
  opts.retry_backoff_ticks = 1;
  FaultPlanConfig fcfg;
  fcfg.seed = 1;
  fcfg.decode_fail = 1.0;  // every attempt loses its decode
  opts.faults = FaultPlan(fcfg);
  ReconfigService svc(arch, 8, 4, opts);
  svc.submit_load(s);
  const auto results = svc.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RequestStatus::kFailed);
  EXPECT_EQ(results[0].code, VbsErrc::kFaultInjected);
  EXPECT_EQ(results[0].attempts, 3);  // 1 + retry_limit
  // Backoff 1, then 2 ticks, plus one service tick per attempt.
  EXPECT_EQ(results[0].latency_ticks, 6);
  EXPECT_EQ(svc.stats().retries, 2);
  EXPECT_EQ(svc.stats().faults_injected, 3);
  EXPECT_EQ(svc.stats().failed, 1);
  EXPECT_EQ(svc.stats().loads, 1);  // retries are not new requests
  EXPECT_EQ(svc.controller().num_tasks(), 0);
  EXPECT_EQ(svc.tenant_stats().at(0).retries, 2);
  EXPECT_EQ(svc.tenant_stats().at(0).failed, 1);
}

TEST(ServiceOverload, TransientAllocFaultRecoversOnRetry) {
  const ArchSpec arch = test_arch();
  const BitVector s = make_stream(13, 4, 44, arch);
  // Find a plan whose first allocation roll fails and second succeeds; the
  // controller keys alloc faults off a serial per-load counter (0, 1, ...),
  // which this test pins down as part of the determinism contract.
  FaultPlanConfig fcfg;
  fcfg.alloc_fail = 0.5;
  for (fcfg.seed = 0;; ++fcfg.seed) {
    const FaultPlan probe(fcfg);
    if (probe.alloc_fails(0) && !probe.alloc_fails(1)) break;
  }
  ServiceOptions opts;
  opts.retry_limit = 2;
  opts.faults = FaultPlan(fcfg);
  ReconfigService svc(arch, 8, 4, opts);
  const RequestId id = svc.submit_load(s);
  const auto results = svc.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RequestStatus::kDone);
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_EQ(svc.stats().retries, 1);
  EXPECT_EQ(svc.stats().faults_injected, 1);
  EXPECT_NE(svc.task_of(id), kNoTask);
  // The faulted first attempt rolled back completely before the retry.
  EXPECT_EQ(svc.controller().num_tasks(), 1);
}

TEST(ServiceOverload, FaultedTraceReplayIsDeterministicAcrossThreadCounts) {
  const ArchSpec arch = test_arch();
  TraceGenOptions gopts;
  gopts.pattern = ArrivalPattern::kBursty;
  gopts.events = 60;
  gopts.kinds = 3;
  gopts.fabric_w = 10;
  gopts.fabric_h = 8;
  const Trace trace = generate_trace(gopts);
  std::vector<BitVector> streams;
  for (const TraceTaskKind& k : trace.kinds) {
    streams.push_back(make_stream(k.n_lut, k.grid, k.seed, arch, k.cluster));
  }
  ServiceOptions fopts;
  fopts.queue_limit = 6;
  fopts.deadline_ticks = 10;
  fopts.retry_limit = 2;
  fopts.faults =
      FaultPlan::parse("seed=7,decode=0.2,alloc=0.1,cache=0.15,latency=0.2x5");
  const std::size_t cache_bits = std::size_t{16} << 20;
  const ReplayOutcome serial =
      replay(trace, streams, arch, 1, cache_bits, fopts);
  EXPECT_GT(serial.faults, 0);  // the plan actually fired
  for (const int threads : {2, 8}) {
    const ReplayOutcome parallel =
        replay(trace, streams, arch, threads, cache_bits, fopts);
    expect_same_outcome(serial, parallel,
                        ("faulted threads=" + std::to_string(threads)).c_str());
    EXPECT_EQ(serial.warm_loads, parallel.warm_loads);
    EXPECT_EQ(serial.decode_nodes, parallel.decode_nodes);
  }
}

// The QoS promise under both adversarial floods: with a bounded queue,
// deadlines and a fault plan, the high-priority tenant 0 is never shed,
// the flood (tenant 1) is, and tenant 0's p99 committed-load latency in
// modeled ticks stays at or below the flood's.
TEST(ServiceOverload, PriorityTenantSurvivesEachFlood) {
  const ArchSpec arch = test_arch();
  ServiceOptions oopts;
  oopts.queue_limit = 8;
  oopts.deadline_ticks = 12;
  oopts.faults =
      FaultPlan::parse("seed=9,decode=0.05,alloc=0.05,latency=0.1x6");
  const std::map<int, int> priorities = {{0, 10}, {1, 0}};
  for (const ArrivalPattern p :
       {ArrivalPattern::kFlashCrowd, ArrivalPattern::kUniqueFlood}) {
    TraceGenOptions gopts;
    gopts.pattern = p;
    gopts.events = 64;
    gopts.ticks = 16;
    gopts.kinds = 4;
    gopts.seed = 1;
    const Trace trace = generate_trace(gopts);
    SCOPED_TRACE(trace.name);
    std::vector<BitVector> streams;
    for (const TraceTaskKind& k : trace.kinds) {
      streams.push_back(make_stream(k.n_lut, k.grid, k.seed, arch, k.cluster));
    }
    const ReplayOutcome out =
        replay(trace, streams, arch, 8, oopts.cache_capacity_bits, oopts, {},
               nullptr, priorities);
    ASSERT_TRUE(out.tenants.count(0) && out.tenants.count(1));
    EXPECT_EQ(out.tenants.at(0).shed, 0);
    EXPECT_GT(out.tenants.at(1).shed, 0) << "the flood was never shed";
    ASSERT_TRUE(out.done_load_ticks.count(0) && out.done_load_ticks.count(1));
    EXPECT_LE(percentile(out.done_load_ticks.at(0), 0.99),
              percentile(out.done_load_ticks.at(1), 0.99));
  }
}

TEST(ServiceOverload, RetryReleasedPastDeadlineCompletesDeadline) {
  const ArchSpec arch = test_arch();
  const BitVector s = make_stream(13, 4, 45, arch);
  ServiceOptions opts;
  opts.cache_capacity_bits = 0;
  opts.deadline_ticks = 2;
  opts.retry_limit = 3;
  opts.retry_backoff_ticks = 64;  // the backoff release lands past expiry
  FaultPlanConfig fcfg;
  fcfg.seed = 1;
  fcfg.decode_fail = 1.0;  // first attempt always faults into a retry
  opts.faults = FaultPlan(fcfg);
  for (const int threads : {1, 2, 8}) {
    opts.threads = threads;
    TempDir dir("retry_deadline_" + std::to_string(threads));
    ReconfigService svc(arch, 8, 4, opts);
    svc.open_journal(dir.path);
    const RequestId id = svc.submit_load(s);
    const auto results = svc.drain();
    ASSERT_EQ(results.size(), 1u);
    // The retry was scheduled, but its release tick is past the deadline:
    // the request must complete kDeadline — not burn the remaining retry
    // budget, and above all not half-commit.
    EXPECT_EQ(results[0].status, RequestStatus::kDeadline);
    EXPECT_EQ(results[0].code, VbsErrc::kDeadline);
    EXPECT_EQ(svc.stats().retries, 1);
    EXPECT_EQ(svc.stats().faults_injected, 1);
    EXPECT_EQ(svc.stats().deadline_misses, 1);
    EXPECT_EQ(svc.task_of(id), kNoTask);
    EXPECT_EQ(svc.controller().num_tasks(), 0);
    // The same terminal state reproduces from the journal alone.
    EXPECT_EQ(ReconfigService::recover(dir.path, threads)->state_fingerprint(),
              svc.state_fingerprint());
  }
}

TEST(ServiceOverload, JournaledFaultedRunRecoversIdenticallyAcrossThreads) {
  const ArchSpec arch = test_arch();
  TraceGenOptions gopts;
  gopts.pattern = ArrivalPattern::kBursty;
  gopts.events = 60;
  gopts.kinds = 3;
  gopts.fabric_w = 10;
  gopts.fabric_h = 8;
  const Trace trace = generate_trace(gopts);
  std::vector<BitVector> streams;
  for (const TraceTaskKind& k : trace.kinds) {
    streams.push_back(make_stream(k.n_lut, k.grid, k.seed, arch, k.cluster));
  }
  ServiceOptions fopts;
  fopts.queue_limit = 6;  // shedding active: kShed companion records too
  fopts.deadline_ticks = 10;
  fopts.retry_limit = 2;
  fopts.faults =
      FaultPlan::parse("seed=7,decode=0.2,alloc=0.1,cache=0.15,latency=0.2x5");
  const std::size_t cache_bits = std::size_t{16} << 20;
  std::uint64_t unjournaled_fp = 0;
  replay(trace, streams, arch, 1, cache_bits, fopts, {}, &unjournaled_fp);
  std::vector<std::uint64_t> fps;
  for (const int threads : {1, 2, 8}) {
    TempDir dir("journal_recover_" + std::to_string(threads));
    std::uint64_t fp = 0;
    const ReplayOutcome out =
        replay(trace, streams, arch, threads, cache_bits, fopts, dir.path, &fp);
    EXPECT_GT(out.faults, 0) << "the model fault plan never fired";
    ReconfigService::RecoveryInfo info;
    const auto recovered = ReconfigService::recover(dir.path, threads, &info);
    EXPECT_EQ(recovered->state_fingerprint(), fp)
        << "recovery diverged at threads=" << threads;
    EXPECT_GT(info.admits, 0);
    EXPECT_GT(info.commits, 0);
    fps.push_back(fp);
  }
  // One durable history, one state: thread count changes neither, and
  // attaching the journal is invisible to the model.
  EXPECT_EQ(fps[0], fps[1]);
  EXPECT_EQ(fps[0], fps[2]);
  EXPECT_EQ(fps[0], unjournaled_fp) << "the journal perturbed the replay";
}

}  // namespace
}  // namespace vbs
