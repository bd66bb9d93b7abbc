// Single-threaded non-blocking event loop: the reactor under the RPC
// server and the closed-loop load client.
//
//           +--------------------------------------------------+
//           |                    EventLoop                     |
//   fds --->|  Poller.wait()  ->  per-fd callback(events)      |
//           |  TimerWheel     ->  deadline callbacks           |
//   post -->|  eventfd wakeup ->  drain MpscRing<fn>           |
//           +--------------------------------------------------+
//
// One thread calls run(); everything it invokes (fd handlers, timer
// callbacks, posted functions) executes on that thread, so protocol state
// needs no locks. Other threads talk to the loop only through post(),
// which pushes a closure onto a lock-free MPSC ring and pokes an eventfd
// so a parked poller wakes immediately — this is how the service thread
// hands completion frames back to the I/O thread.
//
// The poller is injected (poller.h): production uses EpollPoller; tests
// can script readiness without sockets. Time is the telemetry clock
// (telem::now_ns() in milliseconds), so a test that installs a
// telem::ManualClock fires timers with advance_ns() instead of sleeping.
// Timer deadlines come from a hashed wheel (timer_wheel.h); the wheel's
// next deadline bounds the poll timeout so timers fire on time without
// busy-waiting.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/poller.h"
#include "net/ring.h"
#include "net/timer_wheel.h"

namespace vbs::net {

class EventLoop {
 public:
  /// Per-fd readiness callback: `events` is a kReadable/kWritable/
  /// kError/kHangup mask.
  using FdHandler = std::function<void(std::uint32_t events)>;

  /// Defaults to EpollPoller; pass a substitute to test without sockets.
  /// `post_capacity` bounds the cross-thread queue; post() blocks
  /// (spin+yield) when it is full.
  explicit EventLoop(std::unique_ptr<Poller> poller = nullptr,
                     std::size_t post_capacity = 4096);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- fd interest (loop thread only) ---------------------------------------
  void watch(int fd, std::uint32_t interest, FdHandler handler);
  void update(int fd, std::uint32_t interest);
  void unwatch(int fd);
  bool watching(int fd) const { return handlers_.count(fd) != 0; }

  // --- timers (loop thread only) --------------------------------------------
  /// Fires `cb` once, `delay_ms` from now.
  TimerId arm_timer(std::uint64_t delay_ms, std::function<void()> cb);
  bool cancel_timer(TimerId id);

  // --- cross-thread ----------------------------------------------------------
  /// Enqueues `fn` to run on the loop thread; safe from any thread,
  /// including the loop thread itself (runs on the next iteration).
  void post(std::function<void()> fn);
  /// Makes run() return after the current iteration; safe from any thread.
  void stop();

  // --- driving ---------------------------------------------------------------
  /// Runs until stop(). Processes posted functions, expired timers and fd
  /// events each iteration.
  void run();
  /// One iteration with the given poll timeout (-1 = until activity).
  /// Returns the number of fd events + timers + posted fns processed.
  std::size_t run_once(int timeout_ms);

 private:
  std::size_t drain_posted();
  void wake();

  std::unique_ptr<Poller> poller_;
  TimerWheel timers_;
  std::unordered_map<int, FdHandler> handlers_;
  MpscRing<std::function<void()>> posted_;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::vector<PollEvent> events_;  ///< reused per iteration
};

}  // namespace vbs::net
