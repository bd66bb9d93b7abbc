// The one A* search queue, shared by the global router (route/router.cpp)
// and the de-virtualizer (vbs/devirtualizer.cpp).
//
// A binary min-heap of {key, cost} entries ordered by the packed key
//   key = bit_cast<u32>(est) << 32 | u32(node)
// i.e. by (est, node): lowest estimate first, lower node id on ties. The
// entry vector is reused across searches, so a search allocates nothing
// once the queue has grown to its working size.
//
// est is the path cost so far plus an estimate of the rest: the router's
// lookahead bound plus its astar_fac-weighted Manhattan term
// (route/router.h), and the de-virtualizer's lookahead bound, the decoder
// contract every stream version names (vbs/devirtualizer.h).
//
// Key exactness. Both kernels require est >= 0 (never -0, never NaN) and
// node >= 0. For non-negative IEEE floats the u32 bit pattern orders
// exactly like the float value, so every key comparison returns the same
// answer as the lexicographic (est, node) comparison the kernels used
// before.
//
// The algorithm. Entries live in e[0..n) with the children of i at 2i+1
// and 2i+2. One sift-down and one sift-up do all the work:
//   sift_down(hole, len, value): while the hole has two children, move the
//     smaller child into the hole (the right one when the keys are equal)
//     and descend. When len is even and the hole ends at the last parent,
//     that parent has a single left child: move it up too. The hole is now
//     a leaf; sift_up(value) from there, never above the starting hole.
//   sift_up(hole, top, value): while hole > top and the parent's key is
//     greater than value's, move the parent down into the hole.
//   push  = append, then sift_up the new back element from the back.
//   pop   = take e[0]; remove the back element and, if entries remain,
//           sift_down(0, n, old back).
//   heapify = sift_down(p, n, e[p]) for p from (n-2)/2 down to 0.
//
// Move-for-move libstdc++. These are libstdc++'s __push_heap,
// __adjust_heap, __pop_heap and __make_heap under the comparator
// "a.key > b.key" (std heaps are max-heaps under their comparator, so this
// is the min-heap std::greater<> gave the old entries): the same
// comparisons in the same order, the same moves, the same tie rule. So
// every heap layout, pop order, stale pop, routed tree, heap_pops and
// nodes_expanded (which feeds the service state fingerprint) is what
// std::priority_queue / std::push_heap / std::pop_heap / std::make_heap
// produced, and no longer depends on which C++ standard library builds
// the program. test_util pins the pop order against the std algorithms
// and against a frozen hash.
//
// Branch-free child choice. Sift-down picks a child at every level, and
// with search keys that comparison is close to a coin flip, so a branch
// on it mispredicts about half the time. The choice is written as
//   child -= (e[child].key > e[child - 1].key)
// which compiles to a compare-and-subtract with no jump. The loop exits
// (tree depth, sift-up stop) stay branches: they are well predicted.
//
// Not d-ary, not key-only. A d-ary heap pops equal keys in a different
// order (it changed the router's heap_pops). 8-byte key-only entries drop
// the cost the stale-pop check reads, and two entries with equal keys
// (same node and estimate, costs apart by rounding) can carry different
// costs: when the sink or target has such a pair, the pop count changes.
// So the entry stays {u64 key, float cost} in a binary heap.
#pragma once

#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vbs {

class SearchHeap {
 public:
  struct Entry {
    std::uint64_t key;  ///< bit_cast<u32>(est) << 32 | u32(node)
    float cost;         ///< path cost at push time (stale-pop check)

    std::int32_t node() const {
      return static_cast<std::int32_t>(static_cast<std::uint32_t>(key));
    }
  };

  static std::uint64_t key_of(float est, std::int32_t node) {
    assert(est >= 0.0f && !std::signbit(est));
    assert(node >= 0);
    return static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(est))
               << 32 |
           static_cast<std::uint32_t>(node);
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

  void push(float est, float cost, std::int32_t node) {
    entries_.push_back({key_of(est, node), cost});
    sift_up(entries_.size() - 1, 0, entries_.back());
  }

  /// Appends without restoring the heap order; call heapify() once all
  /// seeds are in (the router's seed-then-make_heap start).
  void seed(float est, float cost, std::int32_t node) {
    entries_.push_back({key_of(est, node), cost});
  }
  void heapify() {
    const std::size_t n = entries_.size();
    if (n < 2) return;
    for (std::size_t p = (n - 2) / 2 + 1; p-- > 0;) {
      sift_down(p, n, entries_[p]);
    }
  }

  /// Removes and returns the minimum entry; the queue must not be empty.
  Entry pop() {
    assert(!entries_.empty());
    const Entry top = entries_.front();
    const Entry back = entries_.back();
    entries_.pop_back();
    if (!entries_.empty()) sift_down(0, entries_.size(), back);
    return top;
  }

 private:
  /// Walks the hole at `hole` down to a leaf of e[0..len) along the smaller
  /// child, then places `value` with sift_up (libstdc++'s __adjust_heap).
  void sift_down(std::size_t hole, std::size_t len, Entry value) {
    Entry* const e = entries_.data();
    const std::size_t top = hole;
    const std::size_t last_full_parent = (len - 1) / 2;
    std::size_t child = hole;
    while (child < last_full_parent) {
      child = 2 * (child + 1);
      child -= e[child].key > e[child - 1].key;
      e[hole] = e[child];
      hole = child;
    }
    if ((len & 1) == 0 && child == (len - 2) / 2) {
      child = 2 * child + 1;
      e[hole] = e[child];
      hole = child;
    }
    sift_up(hole, top, value);
  }

  /// Moves `value` up from `hole` past every greater parent, stopping at
  /// `top` (libstdc++'s __push_heap).
  void sift_up(std::size_t hole, std::size_t top, Entry value) {
    Entry* const e = entries_.data();
    while (hole > top) {
      const std::size_t parent = (hole - 1) / 2;
      if (!(e[parent].key > value.key)) break;
      e[hole] = e[parent];
      hole = parent;
    }
    e[hole] = value;
  }

  std::vector<Entry> entries_;
};

}  // namespace vbs
