// Bounded lock-free MPSC/MPMC ring buffer (Vyukov-style sequence cells):
// the request queue between the RPC front end's event-loop thread(s) and
// the service thread that owns the (single-threaded) ReconfigService.
//
// Each cell carries a sequence number; a producer claims a slot with one
// fetch_add on the tail and publishes by bumping the cell sequence, a
// consumer reads the head cell only once its sequence says the payload is
// complete. push() fails (returns false) on a full ring instead of
// blocking — the server answers that with a door-level shed (error
// frame). FIFO per producer; with a single producer the order is total,
// which is what the deterministic replay mode relies on.
//
// The ring never blocks, so waiting is the caller's concern: the server's
// service thread sleeps on a condition variable, with no timeout, that
// each push notifies (see rtc/server/server.cpp). Capacity is rounded up
// to a power of two.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace vbs::net {

template <typename T>
class MpscRing {
 public:
  explicit MpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// False when the ring is full (the item is left untouched).
  bool push(T&& item) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::move(item);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // full: the head lap has not consumed this cell yet
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// False when the ring is empty.
  bool pop(T& out) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          out = std::move(cell.value);
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // empty: the producer has not published this cell
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<std::size_t> head_{0};
};

}  // namespace vbs::net
