// The one A* search queue, shared by the global router (route/router.cpp)
// and the de-virtualizer (vbs/devirtualizer.cpp).
//
// A min-heap of {key, cost} entries ordered by the packed key
//   key = bit_cast<u32>(est) << 32 | u32(node)
// i.e. by (est, node): lowest estimate first, lower node id on ties. The
// entry vector is reused across searches, so a search allocates nothing
// once the queue has grown to its working size.
//
// Exactness. Both kernels require est >= 0 (never -0, never NaN) and
// node >= 0. For non-negative IEEE floats the u32 bit pattern orders
// exactly like the float value, so every key comparison returns the same
// answer as the lexicographic (est, node) comparison the kernels used
// before. push/pop/make_heap run the very std::push_heap / std::pop_heap /
// std::make_heap algorithms std::priority_queue runs, so the heap makes
// the same moves on every input, ties included: pop order, stale pops,
// routed trees and every pop/expansion counter are unchanged. A d-ary heap
// would pop equal keys in a different order (it changes the router's pop
// count), which is why this stays a binary std heap.
#pragma once

#include <algorithm>
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
    std::push_heap(entries_.begin(), entries_.end(), Later{});
  }

  /// Appends without restoring the heap order; call heapify() once all
  /// seeds are in (the router's seed-then-make_heap start).
  void seed(float est, float cost, std::int32_t node) {
    entries_.push_back({key_of(est, node), cost});
  }
  void heapify() { std::make_heap(entries_.begin(), entries_.end(), Later{}); }

  /// Removes and returns the minimum entry; the queue must not be empty.
  Entry pop() {
    std::pop_heap(entries_.begin(), entries_.end(), Later{});
    const Entry top = entries_.back();
    entries_.pop_back();
    return top;
  }

 private:
  // std heaps are max-heaps under their comparator; "later" (greater key)
  // makes this a min-heap, like std::greater<> did for the old entries.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.key > b.key;
    }
  };

  std::vector<Entry> entries_;
};

}  // namespace vbs
