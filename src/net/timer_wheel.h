// Hashed timer wheel: O(1) arm/cancel, O(slots touched) expiry sweep.
//
// The event loop uses it for connection deadlines (handshake timeout,
// idle kill) and client retry backoff. A timer is a (deadline_ms,
// callback) pair hashed into one of kSlots buckets by deadline/tick;
// entries more than one wheel revolution out simply stay in their slot
// (their absolute deadline filters them) until the sweep laps around.
// advance_to(now) fires every timer whose deadline has passed, in
// arrival order within a slot.
//
// Cancellation is by TimerId (monotonically increasing, never reused):
// cancel() marks the entry dead and the sweep discards it — no search
// outside the slot list. next_timeout_ms() gives the poll timeout hint:
// the distance to the earliest live deadline, or -1 when the wheel is
// empty. Driven entirely by the times its caller passes in (the event
// loop passes the telemetry clock's), so tests run it on hand-picked
// times with no real sleeping.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>

namespace vbs::net {

using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class TimerWheel {
 public:
  /// `tick_ms` is the wheel granularity: deadlines are rounded up to the
  /// next tick boundary (a timer never fires early).
  explicit TimerWheel(std::uint64_t start_ms, std::uint64_t tick_ms = 1);

  /// Arms a timer at absolute time `deadline_ms` (clamped to now).
  /// The callback runs at most once, inside advance_to().
  TimerId arm(std::uint64_t deadline_ms, std::function<void()> cb);

  /// True when the id named a live timer (false: already fired/cancelled).
  bool cancel(TimerId id);

  /// Fires every timer with deadline <= now_ms. Callbacks may arm new
  /// timers (even ones expiring within this same advance — they fire
  /// before it returns) and cancel others. Returns fired count.
  std::size_t advance_to(std::uint64_t now_ms);

  /// Milliseconds from `now_ms` to the earliest live deadline (0 if
  /// already due), or -1 when no timers are armed. Poll-timeout hint.
  int next_timeout_ms(std::uint64_t now_ms) const;

  std::size_t size() const { return live_; }

 private:
  struct Entry {
    TimerId id = kInvalidTimer;
    std::uint64_t deadline = 0;  ///< in ticks
    std::function<void()> cb;
  };

  static constexpr std::size_t kSlots = 256;

  std::uint64_t to_tick(std::uint64_t ms) const {
    return (ms + tick_ms_ - 1) / tick_ms_;
  }

  std::uint64_t tick_ms_;
  std::uint64_t current_tick_;  ///< last sweep position
  std::list<Entry> slots_[kSlots];
  std::unordered_map<TimerId, std::uint64_t> slot_of_;  ///< live id -> slot
  TimerId next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace vbs::net
