// Unit tests for the util layer: bit vectors, bit I/O, RNG, statistics,
// the A* search queue, epoch stamps and the work-stealing thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/bitio.h"
#include "util/bitvector.h"
#include "util/epoch.h"
#include "util/geometry.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/search_heap.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace_export.h"

namespace vbs {
namespace {

TEST(BitVector, StartsEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(BitVector, SetGet) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(v.get(i));
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.set(64, false);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVector, PushBackAcrossWordBoundary) {
  BitVector v;
  for (int i = 0; i < 200; ++i) v.push_back(i % 3 == 0);
  ASSERT_EQ(v.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(v.get(i), i % 3 == 0) << i;
}

TEST(BitVector, AppendBitsMsbFirst) {
  BitVector v;
  v.append_bits(0b1011, 4);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_TRUE(v.get(2));
  EXPECT_TRUE(v.get(3));
  EXPECT_EQ(v.get_bits(0, 4), 0b1011u);
}

TEST(BitVector, SliceAndOverwrite) {
  BitVector v;
  v.append_bits(0xABCD, 16);
  const BitVector s = v.slice(4, 12);
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.get_bits(0, 8), 0xBCu);
  BitVector w(16);
  w.overwrite(4, s);
  EXPECT_EQ(w.get_bits(4, 8), 0xBCu);
  EXPECT_EQ(w.get_bits(0, 4), 0u);
}

// The word-at-a-time range kernel against a bit-at-a-time reference, on
// random sizes 0-300 and random offsets. The trials rotate through empty
// ranges, word-aligned ranges, ranges ending exactly at size() and free
// ranges, most of which straddle words. Equality compares whole words, so
// a stray bit past size() fails too.
TEST(BitVector, RangeOpsMatchBitLoop) {
  Rng rng(20);
  auto random_bits = [&](std::size_t n) {
    BitVector v(n);
    for (std::size_t i = 0; i < n; ++i) v.set(i, rng.next_u64() & 1u);
    return v;
  };
  int straddles = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const int shape = trial % 4;
    const BitVector dst = random_bits(rng.next_below(301));
    const BitVector src = random_bits(rng.next_below(301));
    const std::size_t room = std::min(dst.size(), src.size());
    std::size_t n = 0;
    std::size_t pos = 0;
    std::size_t src_pos = 0;
    if (shape == 0) {
      pos = rng.next_below(dst.size() + 1);
      src_pos = rng.next_below(src.size() + 1);
    } else if (shape == 1) {
      n = 64 * rng.next_below(room / 64 + 1);
      pos = 64 * rng.next_below((dst.size() - n) / 64 + 1);
      src_pos = 64 * rng.next_below((src.size() - n) / 64 + 1);
    } else if (shape == 2) {
      n = rng.next_below(room + 1);
      pos = dst.size() - n;
      src_pos = src.size() - n;
    } else {
      n = rng.next_below(room + 1);
      pos = rng.next_below(dst.size() - n + 1);
      src_pos = rng.next_below(src.size() - n + 1);
    }
    if (n > 0 && (pos / 64 != (pos + n - 1) / 64 ||
                  src_pos / 64 != (src_pos + n - 1) / 64)) {
      ++straddles;
    }
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " dst " << dst.size() << " src "
                 << src.size() << " pos " << pos << " src_pos " << src_pos
                 << " n " << n);

    BitVector want = dst;
    for (std::size_t i = 0; i < n; ++i) {
      if (src.get(src_pos + i)) want.set(pos + i, true);
    }
    BitVector got = dst;
    got.or_range(pos, src, src_pos, n);
    EXPECT_EQ(got, want);

    want = dst;
    for (std::size_t i = 0; i < n; ++i) want.set(pos + i, false);
    got = dst;
    got.clear_range(pos, n);
    EXPECT_EQ(got, want);

    const BitVector piece = src.slice(src_pos, src_pos + n);
    want = dst;
    for (std::size_t i = 0; i < n; ++i) want.set(pos + i, piece.get(i));
    got = dst;
    got.overwrite(pos, piece);
    EXPECT_EQ(got, want);
  }
  EXPECT_GT(straddles, 1000);
}

TEST(BitVector, EqualityIgnoresNothing) {
  BitVector a, b;
  a.append_bits(0x5A, 8);
  b.append_bits(0x5A, 8);
  EXPECT_EQ(a, b);
  b.set(7, !b.get(7));
  EXPECT_NE(a, b);
  BitVector c;
  c.append_bits(0x5A, 8);
  c.push_back(false);
  EXPECT_NE(a, c);  // size participates in equality
}

TEST(BitVector, ResizeClearsTailBits) {
  BitVector v(10, true);
  v.resize(5);
  v.resize(10);
  for (std::size_t i = 5; i < 10; ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitIo, RoundTripMixedWidths) {
  BitWriter w;
  w.write(0x3, 2);
  w.write(0x1F, 5);
  w.write_bit(true);
  w.write(0xDEADBEEF, 32);
  w.write(0, 0);  // zero-width write is a no-op
  const BitVector bits = w.take();
  EXPECT_EQ(bits.size(), 40u);
  BitReader r(bits);
  EXPECT_EQ(r.read(2), 0x3u);
  EXPECT_EQ(r.read(5), 0x1Fu);
  EXPECT_TRUE(r.read_bit());
  EXPECT_EQ(r.read(32), 0xDEADBEEFu);
  EXPECT_TRUE(r.at_end());
}

/// Runs `read`, which must throw VbsError{kTruncated}.
template <class F>
void expect_truncated(F&& read) {
  try {
    read();
    ADD_FAILURE() << "read past the end accepted";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kTruncated);
  }
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter w;
  w.write(0xF, 4);
  const BitVector bits = w.take();
  BitReader r(bits);
  r.read(4);
  expect_truncated([&] { r.read(1); });
  expect_truncated([&] { r.read_bit(); });
}

// A declared length near SIZE_MAX comes straight from untrusted payloads:
// it must be rejected, not wrap the bounds check and move the reader back.
TEST(BitIo, HugeLengthThrowsWithoutMovingTheReader) {
  const BitVector bits(24);
  BitReader r(bits);
  r.read(8);
  expect_truncated([&] { r.read_vector(SIZE_MAX - 3); });
  EXPECT_EQ(r.position(), 8u);
  EXPECT_EQ(r.remaining(), 16u);
}

TEST(BitIo, BitsFor) {
  EXPECT_EQ(bits_for(0), 1u);
  EXPECT_EQ(bits_for(1), 1u);
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(4), 2u);
  EXPECT_EQ(bits_for(5), 3u);
  EXPECT_EQ(bits_for(8), 3u);
  EXPECT_EQ(bits_for(9), 4u);
  // Paper's example: M = ceil(log2(4W + L + 1)) = 5 for W=5, L=7.
  EXPECT_EQ(bits_for(4 * 5 + 7 + 1), 5u);
}

TEST(Hash, Fnv1a64ReferenceVectors) {
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

TEST(Hash, Splitmix64ReferenceVectors) {
  // First outputs of Vigna's splitmix64 generator seeded with 0.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(splitmix64(0x9e3779b97f4a7c15ull), 0x6e789e6aa1b965f4ull);
}

// --- search queue -----------------------------------------------------------

/// The queue entry both A* kernels used before SearchHeap: a min-heap by
/// (est, node) under std::greater<>, the cost riding along unordered.
struct RefEntry {
  float est;
  float cost;
  std::int32_t node;
  bool operator>(const RefEntry& o) const {
    if (est != o.est) return est > o.est;
    return node > o.node;
  }
};

/// Estimates the kernels can produce, packed close together so ties are
/// common: +0, subnormals, the smallest normal, neighbours one ulp apart,
/// values at and beyond 2^24 (where float spacing exceeds 1) and +inf.
const std::vector<float>& est_pool() {
  static const std::vector<float> pool = {
      0.0f,
      std::numeric_limits<float>::denorm_min(),
      1e-40f,
      std::numeric_limits<float>::min(),
      0.5f,
      1.0f,
      std::nextafter(1.0f, 2.0f),
      3.0f,
      16777216.0f,
      16777218.0f,
      3.0e9f,
      std::numeric_limits<float>::max(),
      std::numeric_limits<float>::infinity(),
  };
  return pool;
}

/// One random push: few distinct nodes and estimates, so equal (est, node)
/// pairs with different costs are frequent.
RefEntry random_entry(Rng& rng) {
  const std::vector<float>& pool = est_pool();
  return {pool[rng.next_below(pool.size())],
          static_cast<float>(rng.next_below(1000)),
          static_cast<std::int32_t>(rng.next_below(6))};
}

TEST(SearchHeap, KeyOrdersLikeEstThenNode) {
  const std::vector<float>& pool = est_pool();
  for (const float a : pool) {
    for (const float b : pool) {
      for (const std::int32_t n :
           {0, 1, 7, std::numeric_limits<std::int32_t>::max()}) {
        for (const std::int32_t m : {0, 1, 7}) {
          const RefEntry ra{a, 0.0f, n}, rb{b, 0.0f, m};
          EXPECT_EQ(SearchHeap::key_of(a, n) > SearchHeap::key_of(b, m),
                    ra > rb)
              << a << "," << n << " vs " << b << "," << m;
        }
      }
    }
  }
  const SearchHeap::Entry e{SearchHeap::key_of(3.0f, 12345), 0.0f};
  EXPECT_EQ(e.node(), 12345);
}

TEST(SearchHeap, PopsExactlyLikeThePriorityQueueItReplaced) {
  // The de-virtualizer's old queue: std::priority_queue, push per seed.
  SearchHeap heap;  // reused across scripts, like the kernels reuse it
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    std::priority_queue<RefEntry, std::vector<RefEntry>, std::greater<>> ref;
    heap.clear();
    for (int step = 0; step < 20000; ++step) {
      if (ref.empty() || rng.next_below(5) < 3) {
        const RefEntry e = random_entry(rng);
        ref.push(e);
        heap.push(e.est, e.cost, e.node);
      } else {
        const RefEntry want = ref.top();
        ref.pop();
        const SearchHeap::Entry got = heap.pop();
        ASSERT_EQ(got.node(), want.node) << "seed " << seed << " step " << step;
        ASSERT_EQ(got.cost, want.cost) << "seed " << seed << " step " << step;
      }
      ASSERT_EQ(heap.size(), ref.size());
    }
  }
}

TEST(SearchHeap, SeededStartPopsExactlyLikeMakeHeap) {
  // The router's old queue: a vector seeded, std::make_heap'd, then run
  // with std::push_heap / std::pop_heap under std::greater<>.
  SearchHeap heap;
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    Rng rng(seed);
    std::vector<RefEntry> ref;
    heap.clear();
    for (int i = 0; i < 200; ++i) {
      const RefEntry e = random_entry(rng);
      ref.push_back(e);
      heap.seed(e.est, e.cost, e.node);
    }
    std::make_heap(ref.begin(), ref.end(), std::greater<>{});
    heap.heapify();
    for (int step = 0; step < 20000 && !ref.empty(); ++step) {
      if (rng.next_below(2) == 0) {
        const RefEntry e = random_entry(rng);
        ref.push_back(e);
        std::push_heap(ref.begin(), ref.end(), std::greater<>{});
        heap.push(e.est, e.cost, e.node);
      } else {
        std::pop_heap(ref.begin(), ref.end(), std::greater<>{});
        const RefEntry want = ref.back();
        ref.pop_back();
        const SearchHeap::Entry got = heap.pop();
        ASSERT_EQ(got.node(), want.node) << "seed " << seed << " step " << step;
        ASSERT_EQ(got.cost, want.cost) << "seed " << seed << " step " << step;
      }
    }
    ASSERT_EQ(heap.size(), ref.size());
  }
}

TEST(SearchHeap, HeapifyMatchesMakeHeapAtEverySize) {
  // One size at a time, so odd and even lengths (the latter leave a single
  // last child) are each heapified and drained against the std heap.
  SearchHeap heap;
  Rng rng(8);
  for (std::size_t n = 0; n <= 64; ++n) {
    std::vector<RefEntry> ref;
    heap.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const RefEntry e = random_entry(rng);
      ref.push_back(e);
      heap.seed(e.est, e.cost, e.node);
    }
    std::make_heap(ref.begin(), ref.end(), std::greater<>{});
    heap.heapify();
    while (!ref.empty()) {
      std::pop_heap(ref.begin(), ref.end(), std::greater<>{});
      const RefEntry want = ref.back();
      ref.pop_back();
      const SearchHeap::Entry got = heap.pop();
      ASSERT_EQ(got.node(), want.node) << "size " << n;
      ASSERT_EQ(got.cost, want.cost) << "size " << n;
    }
    ASSERT_TRUE(heap.empty()) << "size " << n;
  }
}

TEST(SearchHeap, PopOrderIsPinned) {
  // A fixed script of seeds + heapify, pushes and pops (heap lengths of
  // both parities) drained to empty, hashed as (node, cost bits) per pop.
  // The constant is the std heap algorithms' pop order: any change to a
  // comparison, a tie-break or a move changes it.
  SearchHeap heap;
  std::uint64_t h = kFnvOffset64;
  std::size_t pops = 0;
  const auto pop_one = [&] {
    const SearchHeap::Entry e = heap.pop();
    h = hash_u64(h, static_cast<std::uint32_t>(e.node()));
    h = hash_u64(h, std::bit_cast<std::uint32_t>(e.cost));
    ++pops;
  };
  for (const std::uint64_t seed : {11u, 12u}) {
    Rng rng(seed);
    heap.clear();
    for (std::uint64_t i = 0; i < 37 + seed; ++i) {  // 48, then 49 seeds
      const RefEntry e = random_entry(rng);
      heap.seed(e.est, e.cost, e.node);
    }
    heap.heapify();
    for (int step = 0; step < 5000; ++step) {
      if (heap.empty() || rng.next_below(5) < 3) {
        const RefEntry e = random_entry(rng);
        heap.push(e.est, e.cost, e.node);
      } else {
        pop_one();
      }
    }
    while (!heap.empty()) pop_one();
  }
  EXPECT_EQ(pops, 6176u);
  EXPECT_EQ(h, 0x5392ae764d24855full);
}

// --- epoch stamps -----------------------------------------------------------

TEST(Epoch, WrapClearsStampsAndRestartsAtOne) {
  telem::ScopedEnable on;
  telem::reset();
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t counter = kMax - 1;
  std::vector<std::uint32_t> a(4, kMax - 1), b(3, 7);
  EXPECT_EQ(bump_epoch(counter, "test.epoch_wrap", {&a, &b}), kMax);
  EXPECT_EQ(a[0], kMax - 1);  // no wrap yet: stamps untouched
  EXPECT_EQ(bump_epoch(counter, "test.epoch_wrap", {&a, &b}), 1u);
  EXPECT_EQ(counter, 1u);
  EXPECT_EQ(a, std::vector<std::uint32_t>(4, 0));
  EXPECT_EQ(b, std::vector<std::uint32_t>(3, 0));
  EXPECT_EQ(bump_epoch(counter, "test.epoch_wrap", {&a, &b}), 2u);

  // The callback form, for stamps kept inside records.
  struct Rec {
    std::uint32_t epoch;
    float cost;
  };
  std::vector<Rec> recs(5, {kMax, 1.5f});
  std::uint32_t rec_counter = kMax;
  auto clear_recs = [&] {
    for (Rec& r : recs) r.epoch = 0;
  };
  EXPECT_EQ(bump_epoch(rec_counter, "test.epoch_wrap", clear_recs), 1u);
  for (const Rec& r : recs) {
    EXPECT_EQ(r.epoch, 0u);
    EXPECT_EQ(r.cost, 1.5f);
  }
  EXPECT_EQ(telem::snapshot().counters.at("test.epoch_wrap"), 2);
  telem::reset();
}

TEST(Rng, DeterministicAndDistinctSeeds) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) differs |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(differs);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
    const int v = rng.next_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Stats, SummaryBasics) {
  Summary s;
  s.add(2.0);
  s.add(8.0);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.geomean(), 4.0, 1e-12);
}

TEST(Stats, VectorHelpers) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 30.0);
  // idx = 0.99 * 4 = 3.96: interpolate 40..50, NOT round up to the max.
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 49.6);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 50.0);
  // Unsorted input: percentile sorts a copy.
  EXPECT_DOUBLE_EQ(percentile({30.0, 10.0, 50.0, 20.0, 40.0}, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Stats, PercentileSmallVectors) {
  // n = 1..5 at p = 0 / 0.5 / 0.99 / 1.0. The old nearest-rank rounding
  // collapsed p99 onto the max for every n < 50; with interpolation p99
  // stays strictly below the max whenever the top two samples differ.
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 1.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 0.99), 1.99);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 0.99), 2.98);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.99), 3.97);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.99), 4.96);
  for (int n = 2; n <= 5; ++n) {
    std::vector<double> xs;
    for (int i = 1; i <= n; ++i) xs.push_back(static_cast<double>(i));
    EXPECT_LT(percentile(xs, 0.99), percentile(xs, 1.0)) << "n=" << n;
  }
}

TEST(Geometry, RectPredicates) {
  const Rect r{2, 3, 4, 5};
  EXPECT_EQ(r.area(), 20);
  EXPECT_TRUE(r.contains(Point{2, 3}));
  EXPECT_TRUE(r.contains(Point{5, 7}));
  EXPECT_FALSE(r.contains(Point{6, 3}));
  EXPECT_TRUE(r.overlaps(Rect{5, 7, 2, 2}));
  EXPECT_FALSE(r.overlaps(Rect{6, 3, 2, 2}));
  EXPECT_TRUE(r.contains(Rect{2, 3, 4, 5}));
  EXPECT_FALSE(r.contains(Rect{2, 3, 5, 5}));
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
}

TEST(Table, FormatsBits) {
  EXPECT_EQ(TablePrinter::fmt_bits(0), "0");
  EXPECT_EQ(TablePrinter::fmt_bits(999), "999");
  EXPECT_EQ(TablePrinter::fmt_bits(1234567), "1,234,567");
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](int rank, std::size_t i) {
        ASSERT_GE(rank, 0);
        ASSERT_LT(rank, pool.size());
        ++hits[i];
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
      }
    }
  }
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  for (int job = 0; job < 50; ++job) {
    pool.parallel_for(100, [&](int, std::size_t i) {
      sum += static_cast<long long>(i);
    });
  }
  EXPECT_EQ(sum.load(), 50LL * (99 * 100 / 2));
}

TEST(ThreadPool, StealsSkewedWork) {
  // One early index is much slower than the rest; stealing must let the
  // other participants drain the remainder instead of idling behind it.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.parallel_for(64, [&](int, std::size_t i) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ++done;
  });
  EXPECT_EQ(done.load(), 64);
}

// --- trace export ----------------------------------------------------------

telem::TraceEvent event(char phase, std::uint32_t pid, std::uint64_t tid,
                        std::uint64_t ts_ns, const char* name,
                        std::uint64_t dur_ns = 0) {
  telem::TraceEvent e;
  e.phase = phase;
  e.pid = pid;
  e.tid = tid;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.category = "test";
  e.name = name;
  return e;
}

TEST(TraceExport, EventJsonCarriesTypedArgs) {
  telem::TraceEvent e = event('X', telem::kPidTicks, 3, 1500, "req", 2750);
  e.args.push_back({"id", telem::SpanArg::Type::kInt, 42, 0.0, {}});
  e.args.push_back({"frac", telem::SpanArg::Type::kDouble, 0, 0.25, {}});
  e.args.push_back({"who", telem::SpanArg::Type::kString, 0, 0.0, "a\"b"});
  const std::string json = telem::trace_event_json(e);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
  // ts/dur are microseconds with nanosecond decimals.
  EXPECT_NE(json.find("\"ts\": 1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2.750"), std::string::npos);
  EXPECT_NE(json.find("\"id\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"frac\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"who\": \"a\\\"b\""), std::string::npos);
}

TEST(TraceExport, ChromeTraceJsonIsWellFormed) {
  // Balanced braces/brackets outside strings is as close to "parses" as a
  // library-free check gets; the CI job runs a real JSON parser on top.
  std::vector<telem::TraceEvent> ev;
  ev.push_back(event('B', telem::kPidWall, 1, 100, "outer"));
  ev.push_back(event('X', telem::kPidTicks, 7, 0, "req", 4000));
  ev.push_back(event('E', telem::kPidWall, 1, 900, "outer"));
  const std::string json = telem::chrome_trace_json(ev);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : json) {
    if (escaped) { escaped = false; continue; }
    if (c == '\\') { escaped = true; continue; }
    if (c == '"') { in_string = !in_string; continue; }
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(TraceExport, PairingAcceptsNestedSpansPerLane) {
  std::vector<telem::TraceEvent> ev;
  ev.push_back(event('B', 1, 1, 100, "outer"));
  ev.push_back(event('B', 1, 1, 200, "inner"));
  ev.push_back(event('X', 2, 5, 50, "req", 1000));  // X never pairs
  ev.push_back(event('E', 1, 1, 300, "inner"));
  ev.push_back(event('E', 1, 1, 400, "outer"));
  ev.push_back(event('B', 1, 2, 150, "other-lane"));
  ev.push_back(event('E', 1, 2, 250, "other-lane"));
  EXPECT_EQ(telem::check_event_pairing(ev), "");
}

TEST(TraceExport, PairingRejectsBrokenStreams) {
  {  // E without a matching B
    std::vector<telem::TraceEvent> ev;
    ev.push_back(event('E', 1, 1, 100, "orphan"));
    EXPECT_NE(telem::check_event_pairing(ev), "");
  }
  {  // mismatched nesting order
    std::vector<telem::TraceEvent> ev;
    ev.push_back(event('B', 1, 1, 100, "outer"));
    ev.push_back(event('B', 1, 1, 200, "inner"));
    ev.push_back(event('E', 1, 1, 300, "outer"));
    EXPECT_NE(telem::check_event_pairing(ev), "");
  }
  {  // unclosed B at end of stream
    std::vector<telem::TraceEvent> ev;
    ev.push_back(event('B', 1, 1, 100, "leak"));
    EXPECT_NE(telem::check_event_pairing(ev), "");
  }
  {  // time going backwards within a lane
    std::vector<telem::TraceEvent> ev;
    ev.push_back(event('B', 1, 1, 500, "a"));
    ev.push_back(event('E', 1, 1, 400, "a"));
    EXPECT_NE(telem::check_event_pairing(ev), "");
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   32,
                   [&](int, std::size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool must survive a failed job.
  std::atomic<int> done{0};
  pool.parallel_for(16, [&](int, std::size_t) { ++done; });
  EXPECT_EQ(done.load(), 16);
}

}  // namespace
}  // namespace vbs
