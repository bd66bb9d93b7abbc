#include "rtc/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "net/event_loop.h"
#include "util/telemetry.h"

namespace vbs::rpc {

namespace {

/// Receive deadline of RpcClient -> VbsError{kNetTimeout}.
constexpr int kRecvTimeoutMs = 10'000;
/// RpcClient's HELLO nonce.
constexpr std::uint64_t kClientNonce = 0x7e571e57u;

[[noreturn]] void net_closed(const std::string& what) {
  throw VbsError(VbsErrc::kNetClosed, what);
}

int connect_blocking(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) net_closed("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    net_closed("bad host: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    net_closed("connect " + host + ":" + std::to_string(port) + ": " +
               std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

// --- RpcClient ---------------------------------------------------------------

RpcClient::RpcClient(RpcClientOptions opts) : opts_(std::move(opts)) {
  fd_ = connect_blocking(opts_.host, opts_.port);
  timeval tv{};
  tv.tv_sec = kRecvTimeoutMs / 1000;
  tv.tv_usec = (kRecvTimeoutMs % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  // Handshake: HELLO -> CHALLENGE -> AUTH -> AUTH_OK. Close the fd on
  // any failure — a throwing constructor never runs the destructor.
  try {
    send_frame(FrameType::kHello, next_corr_,
               encode_hello({opts_.tenant, kClientNonce}));
    const Frame challenge = recv_frame();
    if (challenge.type != FrameType::kChallenge) {
      throw VbsError(VbsErrc::kNetProto, "expected CHALLENGE");
    }
    const ChallengeMsg ch = decode_challenge(challenge.payload);
    const std::uint64_t proof =
        auth_proof(tenant_secret(opts_.auth_seed, opts_.tenant), opts_.tenant,
                   kClientNonce, ch.server_nonce);
    send_frame(FrameType::kAuth, next_corr_, encode_auth({proof}));
    const Frame ok = recv_frame();  // relays ERROR{kNetAuth} as a throw
    if (ok.type != FrameType::kAuthOk) {
      throw VbsError(VbsErrc::kNetProto, "expected AUTH_OK");
    }
    const AuthOkMsg m = decode_auth_ok(ok.payload);
    next_request_id_ = m.next_request_id;
    session_ = m.session;
  } catch (...) {
    close();
    throw;
  }
}

RpcClient::~RpcClient() { close(); }

void RpcClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void RpcClient::send_frame(FrameType type, std::uint64_t corr,
                           const std::string& payload) {
  if (fd_ < 0) net_closed("client closed");
  const std::string bytes = encode_frame(type, corr, payload);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    close();
    net_closed("send: peer gone mid-frame");
  }
}

Frame RpcClient::recv_frame(bool relay_errors) {
  Frame f;
  for (;;) {
    if (reader_.next(inbuf_, f)) {
      if (relay_errors && f.type == FrameType::kError) {
        const ErrorMsg e = decode_error(f.payload);
        throw VbsError(e.code, "server: " + e.message);
      }
      return f;
    }
    char buf[16 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      inbuf_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      close();
      net_closed("recv: connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw VbsError(VbsErrc::kNetTimeout,
                     "recv: no frame within " +
                         std::to_string(kRecvTimeoutMs) + "ms");
    }
    close();
    net_closed("recv: " + std::string(std::strerror(errno)));
  }
}

RequestId RpcClient::submit(FrameType type, const std::string& payload) {
  const std::uint64_t corr = ++next_corr_;
  send_frame(type, corr, payload);
  const Frame f = recv_frame();
  if (f.type != FrameType::kAck || f.corr != corr) {
    throw VbsError(VbsErrc::kNetProto, "expected ACK for submit");
  }
  const AckMsg ack = decode_ack(f.payload);
  next_request_id_ = ack.request_id + 1;
  return ack.request_id;
}

RequestId RpcClient::send_load(const BitVector& stream, int tenant) {
  return submit(FrameType::kLoad, encode_load(tenant, stream));
}

RequestId RpcClient::send_unload(RequestId target, int tenant) {
  return submit(FrameType::kUnload, encode_target({tenant, target}));
}

RequestId RpcClient::send_relocate(RequestId target, int tenant) {
  return submit(FrameType::kRelocate, encode_target({tenant, target}));
}

void RpcClient::set_priority(int tenant, int priority) {
  const std::uint64_t corr = ++next_corr_;
  send_frame(FrameType::kSetPriority, corr,
             encode_priority({tenant, priority}));
  const Frame f = recv_frame();
  if (f.type != FrameType::kAck || f.corr != corr) {
    throw VbsError(VbsErrc::kNetProto, "expected ACK for SET_PRIORITY");
  }
}

std::vector<RequestResult> RpcClient::drain() {
  const std::uint64_t corr = ++next_corr_;
  send_frame(FrameType::kDrain, corr, std::string());
  std::vector<RequestResult> results;
  for (;;) {
    const Frame f = recv_frame();
    if (f.type == FrameType::kResult) {
      results.push_back(decode_result(f.payload));
      continue;
    }
    if (f.type == FrameType::kAck && f.corr == corr) return results;
    throw VbsError(VbsErrc::kNetProto, "unexpected frame during drain");
  }
}

RequestResult RpcClient::await_result() {
  for (;;) {
    const Frame f = recv_frame();
    if (f.type == FrameType::kResult) return decode_result(f.payload);
    if (f.type == FrameType::kPong) continue;
    throw VbsError(VbsErrc::kNetProto, "unexpected frame awaiting result");
  }
}

StatReplyMsg RpcClient::stat() {
  const std::uint64_t corr = ++next_corr_;
  send_frame(FrameType::kStat, corr, std::string());
  const Frame f = recv_frame();
  if (f.type != FrameType::kStatReply || f.corr != corr) {
    throw VbsError(VbsErrc::kNetProto, "expected STAT_REPLY");
  }
  return decode_stat_reply(f.payload);
}

void RpcClient::ping() {
  const std::uint64_t corr = ++next_corr_;
  send_frame(FrameType::kPing, corr, std::string());
  const Frame f = recv_frame();
  if (f.type != FrameType::kPong || f.corr != corr) {
    throw VbsError(VbsErrc::kNetProto, "expected PONG");
  }
}

void RpcClient::shutdown() {
  const std::uint64_t corr = ++next_corr_;
  send_frame(FrameType::kShutdown, corr, std::string());
  const Frame f = recv_frame();
  if (f.type != FrameType::kAck || f.corr != corr) {
    throw VbsError(VbsErrc::kNetProto, "expected ACK for SHUTDOWN");
  }
}

// --- closed-loop load generator ---------------------------------------------

namespace {

/// One scheduled request on one generator connection.
struct GenOp {
  RequestKind kind = RequestKind::kLoad;
  int kind_idx = 0;     ///< loads: index into kind_streams
  int target_slot = -1; ///< unload/relocate: this conn's earlier load slot
};

enum class GenState {
  kConnecting,
  kAwaitChallenge,
  kAwaitAuthOk,
  kAwaitAck,
  kAwaitResult,
  kDone,
};

struct GenConn {
  std::unique_ptr<net::Conn> conn;
  FrameReader reader;
  GenState state = GenState::kConnecting;
  int tenant = 0;
  std::uint64_t client_nonce = 0;
  std::vector<GenOp> schedule;
  std::size_t next_op = 0;
  std::vector<RequestId> slot_ids;  ///< service id per local load slot
  int filled_slots = 0;             ///< loads sent so far (slot cursor)
  int pending_slot = -1;            ///< slot the in-flight load will fill
  std::uint64_t corr = 0;
  std::chrono::steady_clock::time_point sent_at;
};

}  // namespace

LoadGenReport run_loadgen(const LoadGenOptions& opts) {
  TELEM_SPAN("rpc", "loadgen");
  LoadGenReport report;
  report.connections = opts.connections;
  const auto t0 = std::chrono::steady_clock::now();

  // --- partition the trace into per-connection closed-loop schedules ------
  //
  // Connections cycle over the distinct tenants of the trace; a tenant's
  // events are round-robined over its connections in trace order. An
  // unload/relocate follows the connection that got the referenced load
  // (the target id is then known locally when its turn comes); a
  // reference that landed elsewhere degrades to a fresh load of the same
  // kind, keeping every connection's schedule self-contained.
  std::vector<int> tenants;
  for (const TraceEvent& ev : opts.trace.events) {
    bool seen = false;
    for (int t : tenants) seen = seen || t == ev.tenant;
    if (!seen) tenants.push_back(ev.tenant);
  }
  if (tenants.empty()) tenants.push_back(0);

  const int n_conns = opts.connections;
  std::vector<GenConn> conns;
  conns.reserve(static_cast<std::size_t>(n_conns));
  for (int i = 0; i < n_conns; ++i) {
    conns.emplace_back();
    conns.back().tenant = tenants[static_cast<std::size_t>(i) % tenants.size()];
    conns.back().client_nonce = 0x10adull + static_cast<std::uint64_t>(i);
  }
  std::unordered_map<int, std::vector<int>> conns_of_tenant;
  for (int i = 0; i < n_conns; ++i) {
    conns_of_tenant[conns[static_cast<std::size_t>(i)].tenant].push_back(i);
  }
  std::unordered_map<int, std::size_t> rr;  // tenant -> next conn cursor
  // load event index -> (conn, local slot)
  std::unordered_map<int, std::pair<int, int>> load_site;
  for (std::size_t e = 0; e < opts.trace.events.size(); ++e) {
    const TraceEvent& ev = opts.trace.events[e];
    const auto& pool = conns_of_tenant[ev.tenant];
    GenOp op;
    int conn_idx;
    if (ev.kind == TraceEvent::Kind::kLoad) {
      conn_idx = pool[rr[ev.tenant]++ % pool.size()];
      op.kind = RequestKind::kLoad;
      op.kind_idx = ev.task_kind;
      auto& gc = conns[static_cast<std::size_t>(conn_idx)];
      load_site[static_cast<int>(e)] = {
          conn_idx, static_cast<int>(gc.slot_ids.size())};
      gc.slot_ids.push_back(kNoRequest);  // slot reserved; id set at ACK
    } else {
      const auto site = load_site.find(ev.ref);
      if (site != load_site.end() &&
          conns[static_cast<std::size_t>(site->second.first)].tenant ==
              ev.tenant) {
        conn_idx = site->second.first;
        op.kind = ev.kind == TraceEvent::Kind::kUnload
                      ? RequestKind::kUnload
                      : RequestKind::kRelocate;
        op.target_slot = site->second.second;
      } else {
        // Referenced load lives on another tenant's connection: degrade
        // to a load of the same kind so the op still exercises the wire.
        conn_idx = pool[rr[ev.tenant]++ % pool.size()];
        op.kind = RequestKind::kLoad;
        const auto ref_site = load_site.find(ev.ref);
        op.kind_idx =
            ref_site != load_site.end() &&
                    ev.ref < static_cast<int>(opts.trace.events.size())
                ? opts.trace.events[static_cast<std::size_t>(ev.ref)].task_kind
                : 0;
        auto& gc = conns[static_cast<std::size_t>(conn_idx)];
        load_site[static_cast<int>(e)] = {
            conn_idx, static_cast<int>(gc.slot_ids.size())};
        gc.slot_ids.push_back(kNoRequest);
      }
    }
    conns[static_cast<std::size_t>(conn_idx)].schedule.push_back(op);
  }
  // The slots vector was used as a slot *counter* during partitioning;
  // reset it for the run (ids are filled in as ACKs arrive).
  for (auto& gc : conns) {
    std::fill(gc.slot_ids.begin(), gc.slot_ids.end(), kNoRequest);
  }

  // --- drive all connections on one event loop ----------------------------
  net::EventLoop loop;
  int live = 0;
  int established = 0;

  // Forward declarations via std::function: the handlers re-enter each
  // other (send next op after a result, etc.).
  std::function<void(int)> finish_conn;
  std::function<void(int)> send_next;
  std::function<void(int, std::uint32_t)> on_event;

  finish_conn = [&](int ci) {
    GenConn& gc = conns[static_cast<std::size_t>(ci)];
    if (gc.state == GenState::kDone) return;
    gc.state = GenState::kDone;
    if (gc.conn && !gc.conn->closed()) {
      loop.unwatch(gc.conn->fd());
      gc.conn->close();
    }
    --live;
  };

  auto update_interest = [&](GenConn& gc) {
    if (!gc.conn || gc.conn->closed()) return;
    std::uint32_t want = net::kReadable;
    if (gc.conn->wants_write() || gc.state == GenState::kConnecting) {
      want |= net::kWritable;
    }
    loop.update(gc.conn->fd(), want);
  };

  send_next = [&](int ci) {
    GenConn& gc = conns[static_cast<std::size_t>(ci)];
    if (gc.next_op >= gc.schedule.size()) {
      finish_conn(ci);
      return;
    }
    const GenOp& op = gc.schedule[gc.next_op++];
    gc.corr += 1;
    gc.pending_slot = -1;
    std::string payload;
    FrameType type;
    if (op.kind == RequestKind::kLoad) {
      type = FrameType::kLoad;
      const std::size_t k =
          op.kind_idx >= 0 &&
                  op.kind_idx < static_cast<int>(opts.kind_streams.size())
              ? static_cast<std::size_t>(op.kind_idx)
              : 0;
      payload = encode_load(gc.tenant, opts.kind_streams[k]);
      // Loads are sent in schedule order, which is exactly the order the
      // partitioning reserved slots in: the next slot is sequential.
      gc.pending_slot = gc.filled_slots++;
    } else {
      type = op.kind == RequestKind::kUnload ? FrameType::kUnload
                                             : FrameType::kRelocate;
      const RequestId target =
          op.target_slot >= 0 &&
                  op.target_slot < static_cast<int>(gc.slot_ids.size())
              ? gc.slot_ids[static_cast<std::size_t>(op.target_slot)]
              : kNoRequest;
      payload = encode_target({gc.tenant, target});
    }
    gc.sent_at = std::chrono::steady_clock::now();
    ++report.requests_sent;
    const net::IoStatus st =
        gc.conn->queue_write(encode_frame(type, gc.corr, payload));
    if (st == net::IoStatus::kClosed || st == net::IoStatus::kError) {
      ++report.wire_errors;
      finish_conn(ci);
      return;
    }
    gc.state = GenState::kAwaitAck;
    update_interest(gc);
  };

  auto handle_frame = [&](int ci, const Frame& f) {
    GenConn& gc = conns[static_cast<std::size_t>(ci)];
    switch (f.type) {
      case FrameType::kChallenge: {
        const ChallengeMsg ch = decode_challenge(f.payload);
        const std::uint64_t proof =
            auth_proof(tenant_secret(opts.auth_seed, gc.tenant), gc.tenant,
                       gc.client_nonce, ch.server_nonce);
        gc.conn->queue_write(encode_frame(FrameType::kAuth, 1,
                                          encode_auth({proof})));
        gc.state = GenState::kAwaitAuthOk;
        break;
      }
      case FrameType::kAuthOk:
        ++established;
        send_next(ci);
        break;
      case FrameType::kAck: {
        const AckMsg ack = decode_ack(f.payload);
        ++report.acks;
        if (gc.pending_slot >= 0 &&
            gc.pending_slot < static_cast<int>(gc.slot_ids.size())) {
          gc.slot_ids[static_cast<std::size_t>(gc.pending_slot)] =
              ack.request_id;
        }
        gc.state = GenState::kAwaitResult;
        break;
      }
      case FrameType::kResult: {
        const RequestResult r = decode_result(f.payload);
        ++report.results;
        switch (r.status) {
          case RequestStatus::kDone: ++report.done; break;
          case RequestStatus::kShed: ++report.shed; break;
          case RequestStatus::kRejected: ++report.rejected; break;
          case RequestStatus::kFailed: ++report.failed; break;
          case RequestStatus::kDeadline: ++report.deadline; break;
          default: break;
        }
        report.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - gc.sent_at)
                .count());
        send_next(ci);
        break;
      }
      case FrameType::kError: {
        const ErrorMsg e = decode_error(f.payload);
        if (gc.state == GenState::kAwaitChallenge ||
            gc.state == GenState::kAwaitAuthOk) {
          // Handshake reject: this connection is over.
          ++report.wire_errors;
          finish_conn(ci);
          break;
        }
        if (e.code == VbsErrc::kQueueFull) {
          ++report.door_sheds;
        } else {
          ++report.wire_errors;
        }
        // The in-flight request is dead; move on (closed loop continues).
        send_next(ci);
        break;
      }
      case FrameType::kPong:
        break;
      default:
        ++report.wire_errors;
        finish_conn(ci);
        break;
    }
  };

  on_event = [&](int ci, std::uint32_t events) {
    GenConn& gc = conns[static_cast<std::size_t>(ci)];
    if (gc.state == GenState::kDone) return;
    if (events & (net::kError | net::kHangup)) {
      ++report.wire_errors;
      finish_conn(ci);
      return;
    }
    if (gc.state == GenState::kConnecting && (events & net::kWritable)) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(gc.conn->fd(), SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        ++report.wire_errors;
        finish_conn(ci);
        return;
      }
      gc.conn->queue_write(encode_frame(
          FrameType::kHello, 1,
          encode_hello({gc.tenant, gc.client_nonce})));
      gc.state = GenState::kAwaitChallenge;
    }
    if (events & net::kWritable) gc.conn->on_writable();
    if ((events & net::kReadable) && !gc.conn->closed()) {
      const net::IoStatus st = gc.conn->on_readable();
      Frame f;
      try {
        while (gc.state != GenState::kDone && !gc.conn->closed() &&
               gc.reader.next(gc.conn->inbuf(), f)) {
          handle_frame(ci, f);
        }
      } catch (const VbsError&) {
        ++report.wire_errors;
        finish_conn(ci);
        return;
      }
      if (gc.state != GenState::kDone &&
          (st == net::IoStatus::kClosed || st == net::IoStatus::kError ||
           gc.conn->closed())) {
        ++report.wire_errors;
        finish_conn(ci);
        return;
      }
    }
    if (gc.state != GenState::kDone) update_interest(gc);
  };

  // Open every connection (non-blocking connect).
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
  if (::inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1) {
    net_closed("bad host: " + opts.host);
  }
  for (int i = 0; i < n_conns; ++i) {
    GenConn& gc = conns[static_cast<std::size_t>(i)];
    if (gc.schedule.empty()) {
      gc.state = GenState::kDone;
      continue;
    }
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      ++report.wire_errors;
      gc.state = GenState::kDone;
      continue;
    }
    const int rc =
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      ::close(fd);
      ++report.wire_errors;
      gc.state = GenState::kDone;
      continue;
    }
    gc.conn = std::make_unique<net::Conn>(
        fd, 0x6e00ull + static_cast<std::uint64_t>(i), opts.net_faults);
    ++live;
    loop.watch(fd, net::kReadable | net::kWritable,
               [&, i](std::uint32_t events) { on_event(i, events); });
  }

  if (live == 0) {
    if (report.wire_errors > 0) net_closed("loadgen: no connection came up");
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return report;
  }

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(opts.timeout_ms);
  while (live > 0) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      report.timed_out = true;
      break;
    }
    loop.run_once(static_cast<int>(left.count()));
  }

  if (established == 0 && report.results == 0) {
    net_closed("loadgen: no connection completed the handshake");
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

}  // namespace vbs::rpc
