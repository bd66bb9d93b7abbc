// Unit tests for the util layer: bit vectors, bit I/O, RNG, statistics,
// and the work-stealing thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/bitio.h"
#include "util/bitvector.h"
#include "util/geometry.h"
#include "util/hash.h"
#include "util/rng.h"
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

TEST(BitIo, ReadPastEndThrows) {
  BitWriter w;
  w.write(0xF, 4);
  const BitVector bits = w.take();
  BitReader r(bits);
  r.read(4);
  EXPECT_THROW(r.read(1), BitstreamError);
  EXPECT_THROW(r.read_bit(), BitstreamError);
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
