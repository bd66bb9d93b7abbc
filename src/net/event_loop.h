// Single-threaded non-blocking event loop: the reactor under the RPC
// server and the closed-loop load client.
//
//           +--------------------------------------------------+
//           |                    EventLoop                     |
//   fds --->|  EpollPoller.wait()  ->  per-fd callback(events) |
//   post -->|  eventfd wakeup      ->  drain MpscRing<fn>      |
//           +--------------------------------------------------+
//
// One thread calls run() or run_once(); everything it invokes (fd
// handlers, posted functions) executes on that thread, so protocol state
// needs no locks. Other threads talk to the loop only through post(),
// which pushes a closure onto a lock-free MPSC ring and pokes an eventfd
// so a parked poller wakes immediately — this is how the service thread
// hands completion frames back to the I/O thread.
//
// The loop reads no clock and owns no timers: a caller that needs a
// deadline passes the time left to run_once() (see run_loadgen).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/poller.h"
#include "net/ring.h"

namespace vbs::net {

class EventLoop {
 public:
  /// Per-fd readiness callback: `events` is a kReadable/kWritable/
  /// kError/kHangup mask.
  using FdHandler = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- fd interest (loop thread only) ---------------------------------------
  void watch(int fd, std::uint32_t interest, FdHandler handler);
  void update(int fd, std::uint32_t interest);
  void unwatch(int fd);

  // --- cross-thread ----------------------------------------------------------
  /// Enqueues `fn` to run on the loop thread; safe from any thread,
  /// including the loop thread itself (runs on the next iteration).
  /// Blocks (spin+yield) while the bounded post queue is full. Counts
  /// `net.loop_posts` in the telemetry registry.
  void post(std::function<void()> fn);
  /// Makes run() return after the current iteration; safe from any thread.
  void stop();

  // --- driving ---------------------------------------------------------------
  /// Runs until stop(). Processes posted functions and fd events each
  /// iteration.
  void run();
  /// One iteration with the given poll timeout (-1 = until activity).
  /// Returns the number of fd events + posted fns processed.
  std::size_t run_once(int timeout_ms);

 private:
  std::size_t drain_posted();
  void wake();

  EpollPoller poller_;
  std::unordered_map<int, FdHandler> handlers_;
  MpscRing<std::function<void()>> posted_;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::vector<PollEvent> events_;  ///< reused per iteration
};

}  // namespace vbs::net
