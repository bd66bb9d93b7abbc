#include "net/conn.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "util/bytes.h"
#include "util/hash.h"

namespace vbs::net {

namespace {

constexpr std::size_t kReadChunk = 16 * 1024;
constexpr std::size_t kShortBytes = 3;  ///< net_short truncation size

}  // namespace

Conn::Conn(int fd, std::uint64_t id, FaultPlan faults)
    : fd_(fd), id_(id), faults_(std::move(faults)) {}

Conn::~Conn() { close(); }

void Conn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t Conn::fault_seq() {
  return splitmix64(id_) ^ op_count_++;
}

IoStatus Conn::on_readable() {
  if (fd_ < 0) return IoStatus::kClosed;
  char buf[kReadChunk];
  for (;;) {
    std::size_t want = sizeof(buf);
    if (faults_.enabled()) {
      const std::uint64_t seq = fault_seq();
      if (faults_.net_drops(seq)) {
        close();
        return IoStatus::kClosed;
      }
      if (faults_.net_eagain(seq)) return IoStatus::kBlocked;
      if (faults_.net_short_read(seq)) want = kShortBytes;
    }
    const ssize_t n = ::recv(fd_, buf, want, 0);
    if (n > 0) {
      inbuf_.append(buf, static_cast<std::size_t>(n));
      total_in_ += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < want) return IoStatus::kOk;
      continue;  // kernel buffer may hold more
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kBlocked;
    if (errno == EINTR) continue;
    last_errno_ = errno;
    return IoStatus::kError;
  }
}

IoStatus Conn::on_writable() {
  if (fd_ < 0) return IoStatus::kClosed;
  while (wants_write()) {
    std::size_t want = outbuf_.size() - out_sent_;
    if (faults_.enabled()) {
      const std::uint64_t seq = fault_seq();
      if (faults_.net_drops(seq)) {
        close();
        return IoStatus::kClosed;
      }
      if (faults_.net_eagain(seq)) return IoStatus::kBlocked;
      if (faults_.net_short_read(seq) && want > kShortBytes) {
        want = kShortBytes;
      }
    }
    const ssize_t n =
        ::send(fd_, outbuf_.data() + out_sent_, want, MSG_NOSIGNAL);
    if (n > 0) {
      consume_front(outbuf_, out_sent_, static_cast<std::size_t>(n));
      total_out_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return IoStatus::kBlocked;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kBlocked;
    if (errno == EINTR) continue;
    if (errno == EPIPE || errno == ECONNRESET) return IoStatus::kClosed;
    last_errno_ = errno;
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus Conn::queue_write(const void* data, std::size_t n) {
  if (fd_ < 0) return IoStatus::kClosed;
  outbuf_.append(static_cast<const char*>(data), n);
  const IoStatus st = on_writable();
  // A partial flush is not an error: bytes stay buffered for the poller.
  return st == IoStatus::kBlocked && wants_write() ? IoStatus::kBlocked : st;
}

}  // namespace vbs::net
