#include "net/event_loop.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/telemetry.h"

namespace vbs::net {

namespace {

constexpr std::size_t kPostCapacity = 4096;

}  // namespace

EventLoop::EventLoop() : posted_(kPostCapacity) {
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    throw std::runtime_error(std::string("eventfd: ") + std::strerror(errno));
  }
  poller_.add(wake_fd_, kReadable);
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void EventLoop::watch(int fd, std::uint32_t interest, FdHandler handler) {
  poller_.add(fd, interest);
  handlers_[fd] = std::move(handler);
}

void EventLoop::update(int fd, std::uint32_t interest) {
  poller_.mod(fd, interest);
}

void EventLoop::unwatch(int fd) {
  poller_.del(fd);
  handlers_.erase(fd);
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  // A full eventfd counter still wakes the loop; ignore short writes.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::post(std::function<void()> fn) {
  telem::counter_add("net.loop_posts");
  // Bounded queue: spin-yield on full rather than dropping — posted work
  // carries completions that must not be lost.
  while (!posted_.push(std::move(fn))) {
    wake();
    std::this_thread::yield();
  }
  wake();
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

std::size_t EventLoop::drain_posted() {
  std::size_t n = 0;
  std::function<void()> fn;
  while (posted_.pop(fn)) {
    fn();
    ++n;
  }
  return n;
}

std::size_t EventLoop::run_once(int timeout_ms) {
  std::size_t processed = drain_posted();
  // Having run posted work, poll instead of parking: an iteration that
  // made progress returns without waiting for fd activity.
  poller_.wait(events_, processed > 0 ? 0 : timeout_ms);
  for (const PollEvent& ev : events_) {
    if (ev.fd == wake_fd_) {
      std::uint64_t count = 0;
      while (::read(wake_fd_, &count, sizeof(count)) > 0) {
      }
      continue;
    }
    const auto it = handlers_.find(ev.fd);
    if (it == handlers_.end()) continue;  // unwatched by an earlier handler
    // Copy: the handler may unwatch (erase) itself.
    FdHandler handler = it->second;
    handler(ev.events);
    ++processed;
  }
  processed += drain_posted();
  return processed;
}

void EventLoop::run() {
  TELEM_SPAN("net", "event_loop.run");
  // Deliberately no stop_ reset here: a stop() that races ahead of the
  // loop thread entering run() must still win.
  while (!stop_.load(std::memory_order_acquire)) {
    run_once(-1);
  }
}

}  // namespace vbs::net
