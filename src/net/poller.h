// Readiness notification under the event loop: level-triggered epoll.
//
// EpollPoller wraps epoll_create1/epoll_ctl/epoll_wait behind add/mod/del
// of fd interest plus a blocking wait(). Interest is expressed with the
// kReadable/kWritable bit mask; wait() reports readiness plus
// kError/kHangup bits the caller never registers for. All fds are expected
// to be non-blocking (see net::set_nonblocking).
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

/// Level-triggered epoll set.
class EpollPoller {
 public:
  EpollPoller();
  ~EpollPoller();
  EpollPoller(const EpollPoller&) = delete;
  EpollPoller& operator=(const EpollPoller&) = delete;

  /// Registers `fd` with the given interest mask. Throws
  /// std::runtime_error if the fd is already registered or the kernel
  /// refuses.
  void add(int fd, std::uint32_t interest);
  /// Replaces the interest mask of a registered fd.
  void mod(int fd, std::uint32_t interest);
  /// Deregisters `fd`; quietly ignores an unknown fd (close() may have
  /// already dropped it from the kernel set).
  void del(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever, 0 = poll) and appends ready
  /// events to `out` (which is cleared first). Returns the event count;
  /// 0 on timeout. EINTR is retried internally.
  std::size_t wait(std::vector<PollEvent>& out, int timeout_ms);

 private:
  int epfd_ = -1;
};

/// Sets O_NONBLOCK (and FD_CLOEXEC) on `fd`; throws std::runtime_error
/// on fcntl failure.
void set_nonblocking(int fd);

}  // namespace vbs::net
