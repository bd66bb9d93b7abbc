#include "rtc/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/hash.h"
#include "util/telemetry.h"

namespace vbs::rpc {

namespace {

/// Loop -> service queue depth; a full ring is a door shed.
constexpr std::size_t kRingCapacity = 1024;
/// Reads of a connection pause while its outbuf holds more than this.
constexpr std::size_t kOutbufLimit = 4u << 20;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

RpcServer::RpcServer(ReconfigService* service, RpcServerOptions opts)
    : service_(service), opts_(std::move(opts)), ops_(kRingCapacity) {}

RpcServer::~RpcServer() { stop(); }

int RpcServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad listen host: " + opts_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("bind " + opts_.host + ":" + std::to_string(opts_.port));
  }
  if (::listen(listen_fd_, 512) != 0) throw_errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    throw_errno("getsockname");
  }
  port_ = static_cast<int>(ntohs(addr.sin_port));

  service_next_id_.store(service_->next_request_id(),
                         std::memory_order_release);

  loop_ = std::make_unique<net::EventLoop>();
  loop_->watch(listen_fd_, net::kReadable,
               [this](std::uint32_t) { on_accept(); });

  running_.store(true, std::memory_order_release);
  service_stop_.store(false, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop_main(); });
  service_thread_ = std::thread([this] { service_main(); });
  return port_;
}

void RpcServer::stop() {
  std::lock_guard<std::mutex> guard(stop_mutex_);
  if (service_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(service_mutex_);
      service_stop_.store(true, std::memory_order_release);
      service_cv_.notify_one();
    }
    service_thread_.join();
  }
  if (loop_thread_.joinable()) {
    loop_->stop();
    loop_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

ServerCounters RpcServer::counters() const {
  ServerCounters c;
  c.accepted = c_accepted_.load(std::memory_order_relaxed);
  c.active = c_active_.load(std::memory_order_relaxed);
  c.frames_in = c_frames_in_.load(std::memory_order_relaxed);
  c.frames_out = c_frames_out_.load(std::memory_order_relaxed);
  c.door_sheds = c_door_sheds_.load(std::memory_order_relaxed);
  c.handshake_rejects = c_handshake_rejects_.load(std::memory_order_relaxed);
  c.proto_errors = c_proto_errors_.load(std::memory_order_relaxed);
  c.reads_paused = c_reads_paused_.load(std::memory_order_relaxed);
  return c;
}

// --- loop thread -------------------------------------------------------------

void RpcServer::loop_main() {
  TELEM_SPAN("rpc", "server.loop");
  loop_->run();
  // The loop thread owns the sessions; tear them down on its way out.
  sessions_.clear();
  running_.store(false, std::memory_order_release);
}

void RpcServer::on_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
        return;
      }
      if (errno == EINTR) continue;
      return;  // EMFILE etc.: drop this round, keep serving
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_conn_id_++;
    sessions_[id] = std::make_unique<Session>(
        std::make_unique<net::Conn>(fd, id, opts_.net_faults));
    loop_->watch(fd, net::kReadable, [this, id](std::uint32_t events) {
      on_conn_event(id, events);
    });
    c_accepted_.fetch_add(1, std::memory_order_relaxed);
    c_active_.fetch_add(1, std::memory_order_relaxed);
  }
}

void RpcServer::on_conn_event(std::uint64_t conn_id, std::uint32_t events) {
  const auto it = sessions_.find(conn_id);
  if (it == sessions_.end()) return;
  Session& s = *it->second;

  if (events & (net::kError | net::kHangup)) {
    close_session(conn_id);
    return;
  }
  if (events & net::kWritable) s.conn->on_writable();

  net::IoStatus read_status = net::IoStatus::kOk;
  if ((events & net::kReadable) && !s.conn->closed()) {
    read_status = s.conn->on_readable();
    Frame f;
    try {
      while (!s.closing && !s.conn->closed() &&
             s.reader.next(s.conn->inbuf(), f)) {
        c_frames_in_.fetch_add(1, std::memory_order_relaxed);
        handle_frame(s, f);
      }
    } catch (const VbsError& e) {
      // The byte stream can no longer be framed: typed error, then close.
      proto_error(s, 0, e.code(), e.what());
    }
  }

  if (read_status == net::IoStatus::kClosed ||
      read_status == net::IoStatus::kError || s.conn->closed()) {
    close_session(conn_id);
    return;
  }
  update_interest(s);
  if (s.closing && !s.conn->wants_write()) {
    close_session(conn_id);
    return;
  }
  stop_loop_if_flushed();
}

void RpcServer::handle_frame(Session& s, const Frame& f) {
  if (f.type == FrameType::kPing) {
    send_frame(s, FrameType::kPong, f.corr, std::string());
    return;
  }
  if (s.state != SessionState::kReady) {
    handle_handshake(s, f);
  } else {
    handle_request(s, f);
  }
}

void RpcServer::handle_handshake(Session& s, const Frame& f) {
  try {
    if (s.state == SessionState::kAwaitHello) {
      if (f.type != FrameType::kHello) {
        return proto_error(s, f.corr, VbsErrc::kNetProto,
                           "expected HELLO before anything else");
      }
      const HelloMsg hello = decode_hello(f.payload);
      s.tenant = hello.tenant;
      s.client_nonce = hello.client_nonce;
      // Deterministic per-connection nonce: a pure function of the auth
      // seed and the accept sequence, so handshake transcripts replay.
      s.server_nonce =
          splitmix64(opts_.auth_seed ^ (0x5eed5eedull + ++nonce_seq_));
      s.state = SessionState::kAwaitAuth;
      send_frame(s, FrameType::kChallenge, f.corr,
                 encode_challenge({s.server_nonce}));
      return;
    }
    // kAwaitAuth
    if (f.type != FrameType::kAuth) {
      return proto_error(s, f.corr, VbsErrc::kNetProto, "expected AUTH");
    }
    const AuthMsg auth = decode_auth(f.payload);
    const std::uint64_t want =
        auth_proof(tenant_secret(opts_.auth_seed, s.tenant), s.tenant,
                   s.client_nonce, s.server_nonce);
    if (auth.proof != want) {
      c_handshake_rejects_.fetch_add(1, std::memory_order_relaxed);
      send_error(s, f.corr, VbsErrc::kNetAuth, "bad proof", true);
      return;
    }
    s.state = SessionState::kReady;
    AuthOkMsg ok;
    ok.next_request_id = service_next_id_.load(std::memory_order_acquire);
    ok.session = s.conn->id();
    send_frame(s, FrameType::kAuthOk, f.corr, encode_auth_ok(ok));
  } catch (const VbsError& e) {
    proto_error(s, f.corr, e.code(), e.what());
  }
}

void RpcServer::handle_request(Session& s, const Frame& f) {
  const bool is_admin = s.tenant == kAdminTenant;
  const auto reject = [&](const std::string& why) {
    proto_error(s, f.corr, VbsErrc::kNetProto, why);
  };
  const auto tenant_locked = [&](int tenant) {
    if (is_admin || tenant == s.tenant) return false;
    reject("tenant mismatch: session is locked to tenant " +
           std::to_string(s.tenant));
    return true;
  };
  ServiceOp op;
  op.conn_id = s.conn->id();
  op.corr = f.corr;
  try {
    switch (f.type) {
      case FrameType::kLoad: {
        LoadMsg m = decode_load(f.payload);
        if (tenant_locked(m.tenant)) return;
        op.kind = ServiceOp::Kind::kLoad;
        op.tenant = m.tenant;
        op.stream = std::move(m.stream);
        break;
      }
      case FrameType::kUnload:
      case FrameType::kRelocate: {
        const TargetMsg m = decode_target(f.payload);
        if (tenant_locked(m.tenant)) return;
        op.kind = f.type == FrameType::kUnload ? ServiceOp::Kind::kUnload
                                               : ServiceOp::Kind::kRelocate;
        op.tenant = m.tenant;
        op.target = m.target;
        break;
      }
      case FrameType::kSetPriority: {
        if (!is_admin) return reject("SET_PRIORITY is admin-only");
        const PriorityMsg m = decode_priority(f.payload);
        op.kind = ServiceOp::Kind::kSetPriority;
        op.tenant = m.tenant;
        op.priority = m.priority;
        break;
      }
      case FrameType::kDrain:
        if (!is_admin) return reject("DRAIN is admin-only");
        op.kind = ServiceOp::Kind::kDrain;
        break;
      case FrameType::kStat:
        op.kind = ServiceOp::Kind::kStat;
        break;
      case FrameType::kShutdown:
        if (!is_admin) return reject("SHUTDOWN is admin-only");
        op.kind = ServiceOp::Kind::kShutdown;
        break;
      default:
        return reject("frame type not valid from a client session");
    }
  } catch (const VbsError& e) {
    // Payload decode failure: the frame boundary held, so the stream is
    // still in sync — reject this request, keep the session.
    send_error(s, f.corr, e.code(), e.what(), false);
    return;
  }

  if (!push_op(std::move(op))) {
    // Door shed: the loop->service ring is full. The request never
    // reached the service; tell the client with the service's own
    // admission code so callers handle both sheds uniformly.
    c_door_sheds_.fetch_add(1, std::memory_order_relaxed);
    send_error(s, f.corr, VbsErrc::kQueueFull, "server request ring full",
               false);
  }
}

bool RpcServer::push_op(ServiceOp op) {
  if (!ops_.push(std::move(op))) return false;
  // Under the mutex, so the notify cannot fall between the service
  // thread's predicate check and its wait.
  std::lock_guard<std::mutex> lk(service_mutex_);
  service_cv_.notify_one();
  return true;
}

void RpcServer::send_frame(Session& s, FrameType type, std::uint64_t corr,
                           const std::string& payload) {
  if (s.conn->closed()) return;
  c_frames_out_.fetch_add(1, std::memory_order_relaxed);
  s.conn->queue_write(encode_frame(type, corr, payload));
}

void RpcServer::send_error(Session& s, std::uint64_t corr, VbsErrc code,
                           const std::string& message, bool close_after) {
  send_frame(s, FrameType::kError, corr, encode_error({code, message}));
  if (close_after) s.closing = true;
}

void RpcServer::proto_error(Session& s, std::uint64_t corr, VbsErrc code,
                            const std::string& message) {
  c_proto_errors_.fetch_add(1, std::memory_order_relaxed);
  send_error(s, corr, code, message, /*close_after=*/true);
}

void RpcServer::close_session(std::uint64_t conn_id) {
  const auto it = sessions_.find(conn_id);
  if (it == sessions_.end()) return;
  Session& s = *it->second;
  if (!s.conn->closed()) {
    loop_->unwatch(s.conn->fd());
    s.conn->close();
  } else {
    loop_->unwatch(s.conn->fd());
  }
  sessions_.erase(it);
  c_active_.fetch_sub(1, std::memory_order_relaxed);
  stop_loop_if_flushed();
}

void RpcServer::update_interest(Session& s) {
  if (s.conn->closed()) return;
  const bool paused = s.conn->outbuf().size() > kOutbufLimit;
  if (paused && !s.read_paused) {
    c_reads_paused_.fetch_add(1, std::memory_order_relaxed);
  }
  s.read_paused = paused;
  std::uint32_t want = 0;
  if (!s.closing && !s.read_paused) want |= net::kReadable;
  if (s.conn->wants_write()) want |= net::kWritable;
  loop_->update(s.conn->fd(), want);
}

void RpcServer::initiate_loop_shutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  if (listen_fd_ >= 0) {
    loop_->unwatch(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  stop_loop_if_flushed();
}

void RpcServer::stop_loop_if_flushed() {
  if (!shutting_down_) return;
  for (const auto& [id, session] : sessions_) {
    // Unsent bytes keep kWritable interest (update_interest), so the
    // writable event that flushes them calls back here.
    if (session->conn->wants_write() && !session->conn->closed()) return;
  }
  loop_->stop();
}

void RpcServer::post_frame(std::uint64_t conn_id, FrameType type,
                           std::uint64_t corr, std::string payload) {
  loop_->post([this, conn_id, type, corr,
               payload = std::move(payload)]() mutable {
    const auto it = sessions_.find(conn_id);
    if (it == sessions_.end()) return;  // connection gone: drop the frame
    Session& s = *it->second;
    send_frame(s, type, corr, payload);
    update_interest(s);
    if (s.closing && !s.conn->wants_write()) close_session(conn_id);
  });
}

// --- service thread ----------------------------------------------------------

void RpcServer::service_main() {
  TELEM_SPAN("rpc", "server.service");
  while (!service_stop_.load(std::memory_order_acquire)) {
    ServiceOp op;
    bool any = false;
    while (ops_.pop(op)) {
      any = true;
      service_handle(op);
      if (service_stop_.load(std::memory_order_acquire)) break;
    }
    if (service_stop_.load(std::memory_order_acquire)) break;
    if (!any) {
      if (opts_.auto_drain && service_->pending() > 0) {
        service_drain(0, 0, /*send_ack=*/false);
      } else {
        // push_op() and stop() notify under service_mutex_, and they are
        // the only wake sources, so the wait needs no timeout.
        std::unique_lock<std::mutex> lk(service_mutex_);
        service_cv_.wait(lk, [this] {
          return !ops_.empty() ||
                 service_stop_.load(std::memory_order_acquire);
        });
      }
    }
  }
}

void RpcServer::service_handle(const ServiceOp& op) {
  switch (op.kind) {
    case ServiceOp::Kind::kLoad:
    case ServiceOp::Kind::kUnload:
    case ServiceOp::Kind::kRelocate: {
      const RequestId id =
          op.kind == ServiceOp::Kind::kLoad
              ? service_->submit_load(op.stream, op.tenant)
          : op.kind == ServiceOp::Kind::kUnload
              ? service_->submit_unload(op.target, op.tenant)
              : service_->submit_relocate(op.target, op.tenant);
      result_route_[id] = {op.conn_id, op.corr};
      post_frame(op.conn_id, FrameType::kAck, op.corr, encode_ack({id}));
      break;
    }
    case ServiceOp::Kind::kSetPriority:
      service_->set_tenant_priority(op.tenant, op.priority);
      post_frame(op.conn_id, FrameType::kAck, op.corr,
                 encode_ack({kNoRequest}));
      break;
    case ServiceOp::Kind::kDrain:
      service_drain(op.conn_id, op.corr, /*send_ack=*/true);
      break;
    case ServiceOp::Kind::kStat: {
      const ServiceStats& st = service_->stats();
      StatReplyMsg m;
      m.fingerprint = service_->state_fingerprint();
      m.now_ticks = service_->now_ticks();
      m.pending = service_->pending();
      m.loads = st.loads;
      m.unloads = st.unloads;
      m.relocates = st.relocates;
      m.shed = st.shed;
      m.deadline_misses = st.deadline_misses;
      m.failed = st.failed;
      m.rejected = st.rejected;
      post_frame(op.conn_id, FrameType::kStatReply, op.corr,
                 encode_stat_reply(m));
      break;
    }
    case ServiceOp::Kind::kShutdown:
      if (opts_.auto_drain && service_->pending() > 0) {
        service_drain(0, 0, /*send_ack=*/false);
      }
      post_frame(op.conn_id, FrameType::kAck, op.corr,
                 encode_ack({kNoRequest}));
      service_stop_.store(true, std::memory_order_release);
      loop_->post([this] { initiate_loop_shutdown(); });
      break;
  }
  service_next_id_.store(service_->next_request_id(),
                         std::memory_order_release);
}

void RpcServer::service_drain(std::uint64_t ack_conn, std::uint64_t ack_corr,
                              bool send_ack) {
  TELEM_SPAN("rpc", "server.drain");
  const std::vector<RequestResult> results = service_->drain();
  for (const RequestResult& r : results) {
    std::uint64_t conn = 0, corr = 0;
    const auto it = result_route_.find(r.request);
    if (it != result_route_.end()) {
      conn = it->second.first;
      corr = it->second.second;
      result_route_.erase(it);
    }
    if (conn != 0) {
      post_frame(conn, FrameType::kResult, corr, encode_result(r));
    }
  }
  if (send_ack) {
    post_frame(ack_conn, FrameType::kAck, ack_corr, encode_ack({kNoRequest}));
  }
}

}  // namespace vbs::rpc
