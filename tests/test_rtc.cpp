// Run-time controller tests: allocation, multi-task loading, isolation,
// eviction, relocation/migration, defragmentation, decode records and
// fault rollback.
#include <gtest/gtest.h>

#include "bitstream/connectivity.h"
#include "flow/flow.h"
#include "netlist/generator.h"
#include "rtc/allocator.h"
#include "rtc/controller.h"
#include "util/rng.h"
#include "vbs/devirtualizer.h"
#include "vbs/encoder.h"

namespace vbs {
namespace {

TEST(Allocator, FirstFitAndRelease) {
  RectAllocator a(10, 10);
  EXPECT_DOUBLE_EQ(a.occupancy(), 0.0);
  const auto p1 = a.find_free(4, 4);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(*p1, (Point{0, 0}));
  a.occupy({0, 0, 4, 4});
  const auto p2 = a.find_free(4, 4);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(*p2, (Point{4, 0}));
  a.occupy({4, 0, 4, 4});
  EXPECT_FALSE(a.find_free(8, 8).has_value());
  EXPECT_TRUE(a.find_free(10, 6).has_value());
  a.release({0, 0, 4, 4});
  EXPECT_EQ(*a.find_free(4, 4), (Point{0, 0}));
  EXPECT_NEAR(a.occupancy(), 0.16, 1e-12);
}

TEST(Allocator, RejectsOverlapAndBadRelease) {
  RectAllocator a(6, 6);
  a.occupy({1, 1, 3, 3});
  EXPECT_THROW(a.occupy({2, 2, 2, 2}), std::logic_error);
  EXPECT_THROW(a.occupy({5, 5, 2, 2}), std::logic_error);  // out of bounds
  EXPECT_THROW(a.release({0, 0, 2, 2}), std::logic_error);
}

TEST(Allocator, SkipScanFindsHoles) {
  RectAllocator a(8, 4);
  a.occupy({0, 0, 3, 4});
  a.occupy({5, 0, 3, 4});
  const auto p = a.find_free(2, 4);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (Point{3, 0}));
}

/// Reference mirror of the allocator on a naive grid: every probe scans
/// the rectangle tile by tile, the behaviour the summed-area table must
/// reproduce exactly.
struct NaiveGrid {
  int w, h;
  std::vector<char> tiles;
  NaiveGrid(int w_, int h_) : w(w_), h(h_), tiles(static_cast<std::size_t>(w_) * h_, 0) {}
  void flip(const Rect& r, char v) {
    for (int y = r.y; y < r.y + r.h; ++y) {
      for (int x = r.x; x < r.x + r.w; ++x) {
        tiles[static_cast<std::size_t>(y) * w + x] = v;
      }
    }
  }
  int occupied_in(const Rect& r) const {
    int n = 0;
    for (int y = std::max(0, r.y); y < std::min(h, r.y + r.h); ++y) {
      for (int x = std::max(0, r.x); x < std::min(w, r.x + r.w); ++x) {
        n += tiles[static_cast<std::size_t>(y) * w + x];
      }
    }
    return n;
  }
  std::optional<Point> find_free(int fw, int fh) const {
    if (fw < 1 || fh < 1) return std::nullopt;
    for (int y = 0; y + fh <= h; ++y) {
      for (int x = 0; x + fw <= w; ++x) {
        if (occupied_in({x, y, fw, fh}) == 0) return Point{x, y};
      }
    }
    return std::nullopt;
  }
  int largest_free_rect_area() const {
    int best = 0;
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        for (int rh = 1; y + rh <= h; ++rh) {
          for (int rw = 1; x + rw <= w; ++rw) {
            if (occupied_in({x, y, rw, rh}) == 0) {
              best = std::max(best, rw * rh);
            }
          }
        }
      }
    }
    return best;
  }
};

TEST(Allocator, SummedAreaMatchesNaiveGrid) {
  // Random occupy/release churn; after every mutation the O(1) summed-area
  // probes must agree with the naive per-tile scan for every query shape.
  RectAllocator a(13, 9);
  NaiveGrid ref(13, 9);
  Rng rng(99);
  std::vector<Rect> held;
  for (int step = 0; step < 200; ++step) {
    const int w = rng.next_int(1, 5);
    const int h = rng.next_int(1, 5);
    const Rect r{rng.next_int(0, 13 - w), rng.next_int(0, 9 - h), w, h};
    if (ref.occupied_in(r) == 0) {
      a.occupy(r);
      ref.flip(r, 1);
      held.push_back(r);
    } else if (!held.empty()) {
      const std::size_t i = static_cast<std::size_t>(
          rng.next_below(held.size()));
      a.release(held[i]);
      ref.flip(held[i], 0);
      held[i] = held.back();
      held.pop_back();
    }
    for (int q = 0; q < 20; ++q) {
      const int qw = rng.next_int(1, 13);
      const int qh = rng.next_int(1, 9);
      const Rect probe{rng.next_int(0, 13 - qw), rng.next_int(0, 9 - qh), qw,
                       qh};
      ASSERT_EQ(a.occupied_in(probe), ref.occupied_in(probe))
          << to_string(probe) << " at step " << step;
      ASSERT_EQ(a.is_free(probe), ref.occupied_in(probe) == 0);
      ASSERT_EQ(a.find_free(qw, qh), ref.find_free(qw, qh))
          << qw << "x" << qh << " at step " << step;
    }
    ASSERT_EQ(a.largest_free_rect_area(), ref.largest_free_rect_area())
        << "at step " << step;
  }
}

TEST(Allocator, LargestFreeRectKnownPatterns) {
  RectAllocator a(8, 6);
  EXPECT_EQ(a.largest_free_rect_area(), 48);
  a.occupy({3, 2, 2, 2});  // island in the middle
  EXPECT_EQ(a.largest_free_rect_area(), 18);  // 3x6 flank left of the island
  a.occupy({0, 0, 3, 2});
  a.occupy({5, 0, 3, 2});
  EXPECT_EQ(a.largest_free_rect_area(), 16);  // bottom 8x2 band
  a.occupy({0, 4, 8, 2});
  EXPECT_EQ(a.largest_free_rect_area(), 6);  // 3x2 pockets beside the island
}

/// A routed task plus its serialized VBS and an expectation oracle.
struct TaskFixture {
  FlowResult r;
  BitVector stream;

  explicit TaskFixture(int n_lut, std::uint64_t seed, int grid, int w = 8,
                       int cluster = 1) {
    GenParams p;
    p.n_lut = n_lut;
    p.n_pi = 3;
    p.n_po = 3;
    p.seed = seed;
    FlowOptions o;
    o.arch.chan_width = w;
    o.seed = seed;
    r = run_flow(generate_netlist(p), grid, grid, o);
    EXPECT_TRUE(r.routed());
    EncodeOptions eo;
    eo.cluster = cluster;
    stream = serialize_vbs(encode_vbs(*r.fabric, r.netlist, r.packed,
                                      r.placement, r.routing.routes, eo));
  }

  /// Checks the controller's config at `origin` equals a fresh decode.
  void expect_frames_at(const ReconfigController& rtc, Point origin) const {
    const BitVector solo = devirtualize_image(deserialize_vbs(stream),
                                              rtc.fabric(), origin);
    const int nraw = rtc.fabric().spec().nraw_bits();
    for (int ty = 0; ty < r.fabric->height(); ++ty) {
      for (int tx = 0; tx < r.fabric->width(); ++tx) {
        const std::size_t base = rtc.fabric().macro_config_offset(
            rtc.fabric().macro_index(origin.x + tx, origin.y + ty));
        ASSERT_EQ(rtc.config_memory().slice(base, base + nraw),
                  solo.slice(base, base + nraw))
            << "tile " << tx << "," << ty;
      }
    }
  }
};

TEST(Controller, LoadDecodesCorrectly) {
  TaskFixture t(25, 31, 6);
  ReconfigController rtc(t.r.fabric->spec(), 6, 6);
  const TaskId id = rtc.load(t.stream);
  ASSERT_NE(id, kNoTask);
  EXPECT_EQ(rtc.record(id).rect, (Rect{0, 0, 6, 6}));
  // The whole fabric is the task: verify electrically. The controller
  // holds only the bit layout; the check builds the routing graph.
  const Fabric fab(rtc.fabric().spec(), 6, 6);
  EXPECT_EQ(verify_connectivity(fab, rtc.config_memory(), t.r.netlist,
                                t.r.packed, t.r.placement),
            "");
  EXPECT_DOUBLE_EQ(rtc.occupancy(), 1.0);
}

TEST(Controller, MultiTaskIsolation) {
  TaskFixture a(20, 41, 5), b(20, 42, 5), c(20, 43, 5);
  ReconfigController rtc(a.r.fabric->spec(), 16, 6);
  const TaskId ia = rtc.load(a.stream);
  const TaskId ib = rtc.load(b.stream);
  const TaskId ic = rtc.load(c.stream);
  ASSERT_NE(ia, kNoTask);
  ASSERT_NE(ib, kNoTask);
  ASSERT_NE(ic, kNoTask);
  EXPECT_EQ(rtc.num_tasks(), 3);
  // Each task's frames must match a solo decode at its origin: neighbours
  // do not disturb each other.
  a.expect_frames_at(rtc, {rtc.record(ia).rect.x, rtc.record(ia).rect.y});
  b.expect_frames_at(rtc, {rtc.record(ib).rect.x, rtc.record(ib).rect.y});
  c.expect_frames_at(rtc, {rtc.record(ic).rect.x, rtc.record(ic).rect.y});
}

TEST(Controller, LoadFailsWhenFull) {
  TaskFixture t(20, 44, 5);
  ReconfigController rtc(t.r.fabric->spec(), 7, 5);
  EXPECT_NE(rtc.load(t.stream), kNoTask);
  EXPECT_EQ(rtc.load(t.stream), kNoTask);  // no room for a second 5x5
}

TEST(Controller, UnloadClearsRegion) {
  TaskFixture t(20, 45, 5);
  ReconfigController rtc(t.r.fabric->spec(), 8, 8);
  const TaskId id = rtc.load_at(t.stream, {2, 1});
  EXPECT_GT(rtc.config_memory().popcount(), 0u);
  rtc.unload(id);
  EXPECT_EQ(rtc.config_memory().popcount(), 0u);
  EXPECT_DOUBLE_EQ(rtc.occupancy(), 0.0);
  EXPECT_THROW(rtc.record(id), std::out_of_range);
}

TEST(Controller, LoadAtRejectsOccupiedOrOutOfBounds) {
  TaskFixture t(20, 46, 5);
  ReconfigController rtc(t.r.fabric->spec(), 8, 8);
  rtc.load_at(t.stream, {0, 0});
  EXPECT_THROW(rtc.load_at(t.stream, {4, 4}), std::logic_error);
  EXPECT_THROW(rtc.load_at(t.stream, {6, 0}), std::logic_error);
}

TEST(Controller, RelocateMovesConfiguration) {
  TaskFixture t(20, 47, 5);
  ReconfigController rtc(t.r.fabric->spec(), 12, 6);
  const TaskId id = rtc.load_at(t.stream, {0, 0});
  rtc.relocate(id, {6, 1});
  EXPECT_EQ(rtc.record(id).rect, (Rect{6, 1, 5, 5}));
  t.expect_frames_at(rtc, {6, 1});
  // Old region is clear: loading there again succeeds.
  EXPECT_NO_THROW(rtc.load_at(t.stream, {0, 0}));
}

TEST(Controller, RelocateRejectsOverlapWithSelf) {
  TaskFixture t(20, 48, 5);
  ReconfigController rtc(t.r.fabric->spec(), 8, 8);
  const TaskId id = rtc.load_at(t.stream, {0, 0});
  EXPECT_THROW(rtc.relocate(id, {2, 2}), std::logic_error);
}

TEST(Controller, DefragmentCompacts) {
  TaskFixture t(12, 49, 4);
  ReconfigController rtc(t.r.fabric->spec(), 16, 4);
  const TaskId a = rtc.load_at(t.stream, {4, 0});
  const TaskId b = rtc.load_at(t.stream, {12, 0});
  rtc.defragment();
  EXPECT_EQ(rtc.record(a).rect, (Rect{0, 0, 4, 4}));
  // b slides into the slot a vacated.
  EXPECT_EQ(rtc.record(b).rect, (Rect{4, 0, 4, 4}));
  t.expect_frames_at(rtc, {0, 0});
  t.expect_frames_at(rtc, {4, 0});
}

TEST(Controller, RecordsAndStats) {
  TaskFixture t(25, 51, 6);
  ReconfigController rtc(t.r.fabric->spec(), 6, 6);
  const TaskId id = rtc.load(t.stream);
  const TaskRecord& rec = rtc.record(id);
  EXPECT_EQ(rec.stream_bits, t.stream.size());
  EXPECT_GT(rec.decode.entries_decoded, 0);
  EXPECT_GE(rec.decode_seconds, 0.0);
  EXPECT_EQ(rec.threads_used, 1);
  EXPECT_GE(rtc.total_decode_stats().entries_decoded,
            rec.decode.entries_decoded);
}

TEST(Controller, LoadAtOutOfBoundsEdgeCases) {
  TaskFixture t(20, 53, 5);
  ReconfigController rtc(t.r.fabric->spec(), 8, 8);
  EXPECT_THROW(rtc.load_at(t.stream, {-1, 0}), std::logic_error);
  EXPECT_THROW(rtc.load_at(t.stream, {0, -1}), std::logic_error);
  EXPECT_THROW(rtc.load_at(t.stream, {4, 0}), std::logic_error);  // x overflow
  EXPECT_THROW(rtc.load_at(t.stream, {0, 4}), std::logic_error);  // y overflow
  EXPECT_EQ(rtc.num_tasks(), 0);
  EXPECT_DOUBLE_EQ(rtc.occupancy(), 0.0);  // failed loads leak no tiles
  EXPECT_NO_THROW(rtc.load_at(t.stream, {3, 3}));
}

TEST(Controller, RelocateOntoPartialOverlapRejected) {
  TaskFixture t(20, 54, 5);
  ReconfigController rtc(t.r.fabric->spec(), 16, 8);
  const TaskId a = rtc.load_at(t.stream, {0, 0});
  const TaskId b = rtc.load_at(t.stream, {10, 0});
  // Partially overlapping another task: 3 columns into a's region.
  EXPECT_THROW(rtc.relocate(b, {2, 2}), std::logic_error);
  // Partially overlapping itself (no shadow plane).
  EXPECT_THROW(rtc.relocate(b, {8, 2}), std::logic_error);
  // Both tasks unharmed by the rejected moves.
  EXPECT_EQ(rtc.record(a).rect, (Rect{0, 0, 5, 5}));
  EXPECT_EQ(rtc.record(b).rect, (Rect{10, 0, 5, 5}));
  t.expect_frames_at(rtc, {0, 0});
  t.expect_frames_at(rtc, {10, 0});
}

TEST(Controller, DefragmentPartialClusterTasks) {
  // 5x5 tasks at cluster 2: the right/bottom cluster rows have extent 1 < c,
  // so every migration re-decodes partial-region entries too.
  TaskFixture t(14, 55, 5, 8, /*cluster=*/2);
  ReconfigController rtc(t.r.fabric->spec(), 16, 5);
  const TaskId a = rtc.load_at(t.stream, {5, 0});
  const TaskId b = rtc.load_at(t.stream, {11, 0});
  rtc.defragment();
  EXPECT_EQ(rtc.record(a).rect, (Rect{0, 0, 5, 5}));
  EXPECT_EQ(rtc.record(b).rect, (Rect{5, 0, 5, 5}));
  t.expect_frames_at(rtc, {0, 0});
  t.expect_frames_at(rtc, {5, 0});
}

TEST(Controller, DoubleUnloadThrows) {
  TaskFixture t(20, 56, 5);
  ReconfigController rtc(t.r.fabric->spec(), 8, 8);
  const TaskId id = rtc.load(t.stream);
  rtc.unload(id);
  EXPECT_THROW(rtc.unload(id), std::out_of_range);
  EXPECT_THROW(rtc.relocate(id, {1, 1}), std::out_of_range);
}

TEST(Controller, LoadDecodedMatchesLoadAt) {
  TaskFixture t(20, 57, 5, 8, /*cluster=*/2);
  const VbsImage img = deserialize_vbs(t.stream);
  // Decode payloads out-of-band, the way the service does.
  const auto stream_decoded = decode_stream(img);
  const std::vector<BitVector>& payloads = stream_decoded->payloads;
  ReconfigController direct(t.r.fabric->spec(), 14, 8);
  ReconfigController decoded(t.r.fabric->spec(), 14, 8);
  direct.load_at(t.stream, {2, 1});
  const TaskId id =
      decoded.load_decoded(img, payloads, t.stream.size(), {2, 1});
  EXPECT_EQ(decoded.config_memory(), direct.config_memory());
  EXPECT_EQ(decoded.record(id).rect, (Rect{2, 1, 5, 5}));
  EXPECT_EQ(decoded.record(id).stream_bits, t.stream.size());
  // Pre-decoded relocation lands on the same bits as a decoding one.
  direct.relocate(direct.task_ids()[0], {8, 2});
  decoded.relocate_decoded(id, {8, 2}, payloads);
  EXPECT_EQ(decoded.config_memory(), direct.config_memory());
  // Payload/entry count mismatch is rejected before any state changes.
  std::vector<BitVector> short_payloads(payloads.begin(), payloads.end() - 1);
  EXPECT_THROW(
      decoded.load_decoded(img, short_payloads, t.stream.size(), {0, 0}),
      std::logic_error);
  EXPECT_THROW(decoded.relocate_decoded(id, {0, 0}, short_payloads),
               std::logic_error);
}

TEST(Controller, RejectsArchMismatch) {
  TaskFixture t(20, 52, 5, 8);
  ArchSpec other;
  other.chan_width = 12;
  ReconfigController rtc(other, 8, 8);
  // A stream built for another architecture is hostile input, not a
  // programming error: typed rejection with full rollback.
  try {
    rtc.load_at(t.stream, {0, 0});
    FAIL() << "arch mismatch not rejected";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kArchMismatch);
  }
  EXPECT_EQ(rtc.num_tasks(), 0);
  EXPECT_EQ(rtc.occupancy(), 0.0);
}

TEST(Controller, FaultPlanInjectsAndRollsBack) {
  TaskFixture t(20, 52, 5, 8);
  ReconfigController rtc(t.r.fabric->spec(), 8, 8);
  // decode=1 fails every decode deterministically; the controller must
  // roll back cleanly and recover the moment the plan is removed.
  const FaultPlan plan(FaultPlanConfig{7, 1.0, 0.0, 0.0, 0.0, 8});
  rtc.set_fault_plan(&plan);
  try {
    rtc.load_at(t.stream, {0, 0});
    FAIL() << "injected decode fault not thrown";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kFaultInjected);
  }
  EXPECT_EQ(rtc.num_tasks(), 0);
  EXPECT_EQ(rtc.occupancy(), 0.0);
  for (const std::uint64_t w : rtc.config_memory().words()) EXPECT_EQ(w, 0u);
  rtc.set_fault_plan(nullptr);
  EXPECT_NE(rtc.load_at(t.stream, {0, 0}), kNoTask);
}

TEST(Controller, RelocateDecodeFaultRollsBack) {
  TaskFixture t(20, 52, 5, 8);
  ReconfigController rtc(t.r.fabric->spec(), 12, 6);
  const TaskId id = rtc.load_at(t.stream, {0, 0});
  const double occupancy = rtc.occupancy();
  const BitVector config = rtc.config_memory();
  const long long entries = rtc.record(id).decode.entries_decoded;
  // A decode fault on the move must leave the destination free and the
  // task, its record and the configuration memory as they were.
  const FaultPlan plan(FaultPlanConfig{7, 1.0, 0.0, 0.0, 0.0, 8});
  rtc.set_fault_plan(&plan);
  try {
    rtc.relocate(id, {6, 0});
    FAIL() << "injected decode fault not thrown";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kFaultInjected);
  }
  EXPECT_EQ(rtc.record(id).rect, (Rect{0, 0, 5, 5}));
  EXPECT_EQ(rtc.occupancy(), occupancy);
  EXPECT_EQ(rtc.config_memory(), config);
  EXPECT_EQ(rtc.record(id).decode.entries_decoded, entries);
  // Once the fault clears the move succeeds, and its decode is counted in
  // the task record and the controller totals.
  rtc.set_fault_plan(nullptr);
  rtc.relocate(id, {6, 0});
  EXPECT_EQ(rtc.record(id).rect, (Rect{6, 0, 5, 5}));
  EXPECT_EQ(rtc.occupancy(), occupancy);
  t.expect_frames_at(rtc, {6, 0});
  EXPECT_EQ(rtc.record(id).decode.entries_decoded, 2 * entries);
  EXPECT_EQ(rtc.total_decode_stats().entries_decoded, 2 * entries);
}

}  // namespace
}  // namespace vbs
