// Buffered non-blocking connection: the byte-shovelling layer under the
// RPC server and the load-generator client.
//
// A Conn owns one non-blocking socket fd plus an inbound and an outbound
// byte buffer. The event loop calls on_readable()/on_writable() when the
// poller reports readiness; the protocol layer consumes inbuf() and
// appends frames with queue_write(). Writes are opportunistic: queue_write
// tries the socket immediately and only buffers the remainder, so the
// common small-reply case never waits for a poller round-trip.
//
// Hostile-network testing hooks straight into the syscall sites: a
// FaultPlan threaded into the Conn can truncate a read/write to a few
// bytes (net_short), turn an operation into a spurious would-block
// (net_eagain) or sever the connection mid-frame (net_drop). Decisions
// are keyed by splitmix-mixing the connection id with a per-connection
// operation counter, so a plan replays the same hostile schedule against
// the same connection regardless of poll order — the server survives the
// schedule deterministically or the bug reproduces deterministically.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/fault.h"

namespace vbs::net {

enum class IoStatus {
  kOk,       ///< made progress (or nothing to do)
  kBlocked,  ///< EAGAIN — wait for the next readiness event
  kClosed,   ///< orderly EOF from the peer
  kError,    ///< hard socket error (errno preserved in last_error())
};

class Conn {
 public:
  /// Takes ownership of `fd` (closed in the destructor). `id` keys the
  /// fault schedule and names the conn in logs.
  Conn(int fd, std::uint64_t id, FaultPlan faults = FaultPlan{});
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  std::uint64_t id() const { return id_; }

  /// Drains the socket into inbuf() until EAGAIN/EOF/error.
  IoStatus on_readable();
  /// Flushes outbuf() to the socket until empty or EAGAIN. Sent bytes leave
  /// the buffer through an offset (consume_front, util/bytes.h), so a deep
  /// outbuf drains in time linear in its size.
  IoStatus on_writable();

  /// Appends bytes and opportunistically flushes. kOk means fully sent or
  /// buffered; kBlocked means a partial flush left bytes buffered (caller
  /// should enable kWritable interest); kClosed/kError are fatal.
  IoStatus queue_write(const void* data, std::size_t n);
  IoStatus queue_write(const std::string& bytes) {
    return queue_write(bytes.data(), bytes.size());
  }

  std::string& inbuf() { return inbuf_; }
  /// Bytes queued and not yet sent.
  std::string_view outbuf() const {
    return std::string_view(outbuf_).substr(out_sent_);
  }
  bool wants_write() const { return out_sent_ < outbuf_.size(); }
  std::size_t bytes_in() const { return total_in_; }
  std::size_t bytes_out() const { return total_out_; }
  int last_error() const { return last_errno_; }

  /// Closes the fd now (idempotent); subsequent I/O returns kClosed.
  void close();
  bool closed() const { return fd_ < 0; }

 private:
  /// Per-(conn, op) fault key: pure function of id and the op counter.
  std::uint64_t fault_seq();

  int fd_;
  std::uint64_t id_;
  FaultPlan faults_;
  std::uint64_t op_count_ = 0;
  std::string inbuf_;
  std::string outbuf_;
  std::size_t out_sent_ = 0;  ///< bytes at the front of outbuf_ already sent
  std::size_t total_in_ = 0;
  std::size_t total_out_ = 0;
  int last_errno_ = 0;
};

}  // namespace vbs::net
