#include "net/poller.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace vbs::net {

namespace {

std::uint32_t to_epoll(std::uint32_t interest) {
  std::uint32_t ev = 0;
  if (interest & kReadable) ev |= EPOLLIN;
  if (interest & kWritable) ev |= EPOLLOUT;
  return ev;
}

std::uint32_t from_epoll(std::uint32_t ev) {
  std::uint32_t out = 0;
  if (ev & EPOLLIN) out |= kReadable;
  if (ev & EPOLLOUT) out |= kWritable;
  if (ev & EPOLLERR) out |= kError;
  if (ev & (EPOLLHUP | EPOLLRDHUP)) out |= kHangup;
  return out;
}

[[noreturn]] void throw_errno(const std::string& what) {
  // Environment failures (fd exhaustion, kernel refusal) are not typed
  // input rejections: plain runtime_error, like util/io.h's I/O layer.
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

EpollPoller::EpollPoller() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw_errno("epoll_create1");
}

EpollPoller::~EpollPoller() {
  if (epfd_ >= 0) ::close(epfd_);
}

void EpollPoller::add(int fd, std::uint32_t interest) {
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(ADD fd=" + std::to_string(fd) + ")");
  }
}

void EpollPoller::mod(int fd, std::uint32_t interest) {
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(MOD fd=" + std::to_string(fd) + ")");
  }
}

void EpollPoller::del(int fd) {
  // ENOENT/EBADF are fine: close() already removed the fd from the set.
  epoll_event ev{};
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
}

std::size_t EpollPoller::wait(std::vector<PollEvent>& out, int timeout_ms) {
  out.clear();
  epoll_event evs[64];
  int n;
  do {
    n = ::epoll_wait(epfd_, evs, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) throw_errno("epoll_wait");
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back({evs[i].data.fd, from_epoll(evs[i].events)});
  }
  return static_cast<std::size_t>(n);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK fd=" + std::to_string(fd) + ")");
  }
  const int fdflags = ::fcntl(fd, F_GETFD, 0);
  if (fdflags >= 0) ::fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC);
}

}  // namespace vbs::net
