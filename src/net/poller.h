// Injectable readiness-notification seam under the event loop.
//
// EventLoop (event_loop.h) is written against one tiny interface so tests
// can drive it without real sockets:
//
//   Poller   — add/mod/del fd interest + a blocking wait(). Production is
//              EpollPoller (epoll_create1/epoll_ctl/epoll_wait, level-
//              triggered). Tests can substitute a scripted poller.
//
// Time is not a seam of its own: the loop reads the telemetry clock
// (util/telemetry.h), which tests replace with a telem::ManualClock.
//
// Interest is expressed with the kReadable/kWritable bit mask; wait()
// reports readiness plus kError/kHangup bits the caller never registers
// for. All fds are expected to be non-blocking (see net::set_nonblocking).
#pragma once

#include <cstdint>
#include <vector>

namespace vbs::net {

/// Interest / readiness bits (a simple mask, deliberately not epoll's).
inline constexpr std::uint32_t kReadable = 1u << 0;
inline constexpr std::uint32_t kWritable = 1u << 1;
inline constexpr std::uint32_t kError = 1u << 2;    ///< wait()-only
inline constexpr std::uint32_t kHangup = 1u << 3;   ///< wait()-only

struct PollEvent {
  int fd = -1;
  std::uint32_t events = 0;  ///< kReadable/kWritable/kError/kHangup
};

class Poller {
 public:
  virtual ~Poller() = default;

  /// Registers `fd` with the given interest mask. Throws
  /// std::runtime_error if the fd is already registered or the kernel
  /// refuses.
  virtual void add(int fd, std::uint32_t interest) = 0;
  /// Replaces the interest mask of a registered fd.
  virtual void mod(int fd, std::uint32_t interest) = 0;
  /// Deregisters `fd`; quietly ignores an unknown fd (close() may have
  /// already dropped it from the kernel set).
  virtual void del(int fd) = 0;

  /// Blocks up to `timeout_ms` (-1 = forever, 0 = poll) and appends ready
  /// events to `out` (which is cleared first). Returns the event count;
  /// 0 on timeout. EINTR is retried internally.
  virtual std::size_t wait(std::vector<PollEvent>& out, int timeout_ms) = 0;
};

/// Level-triggered epoll implementation.
class EpollPoller final : public Poller {
 public:
  EpollPoller();
  ~EpollPoller() override;
  EpollPoller(const EpollPoller&) = delete;
  EpollPoller& operator=(const EpollPoller&) = delete;

  void add(int fd, std::uint32_t interest) override;
  void mod(int fd, std::uint32_t interest) override;
  void del(int fd) override;
  std::size_t wait(std::vector<PollEvent>& out, int timeout_ms) override;

 private:
  int epfd_ = -1;
};

/// Sets O_NONBLOCK (and FD_CLOEXEC) on `fd`; throws std::runtime_error
/// on fcntl failure.
void set_nonblocking(int fd);

}  // namespace vbs::net
