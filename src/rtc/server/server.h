// RpcServer: the networked front door of ReconfigService.
//
//   accept/read/write        decode/dispatch              model/commit
//  +-----------------+   vbs.rpc.v1   +-----------+   MpscRing   +---------+
//  | EventLoop thread | <-----------> | sessions  | -----------> | service |
//  | (src/net)        |               | (per conn)| <----------- | thread  |
//  +-----------------+                +-----------+  post()      +---------+
//
// Two threads. The *loop thread* owns every socket: it accepts, reads,
// parses frames (FrameReader), runs the per-connection handshake state
// machine and writes replies — all single-threaded, lock-free protocol
// state. The *service thread* owns the ReconfigService exclusively: it
// pops ServiceOps from a bounded MPSC ring, calls submit_*/drain() and
// hands completion frames back to the loop thread via EventLoop::post(),
// one post per frame (plus one that starts a remote shutdown). The
// service is never touched from two threads, so its single-threaded
// determinism contract (and its WAL journal) carries over unchanged.
//
// Admission control maps connection backpressure onto the service's
// priority-aware shedding in two rings:
//   1. ring full        -> immediate ERROR{kQueueFull} ("door shed"):
//                          the request never reaches the service.
//   2. outbuf overflow  -> a connection slower than its result stream
//                          has its reads paused while its outbuf holds
//                          more than 4 MiB (counters().reads_paused).
// Requests that reach the service are shed by *its* policy (priority-
// aware, typed kShed results) — the door never reorders tenants.
//
// Determinism: with auto_drain off (the admin replay mode), the service
// drains only at explicit DRAIN frames. A single admin connection
// replaying a trace — submits in trace order, one DRAIN per tick group —
// therefore produces the exact submit/drain sequence of the offline
// replay, and the journaled server state is fingerprint-identical to the
// offline replay of the same trace (Server.WireReplayFingerprintMatchesOffline
// and Server.JournaledWireReplayRecoversToSameFingerprint gate it).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "net/conn.h"
#include "net/event_loop.h"
#include "net/ring.h"
#include "rtc/server/wire.h"
#include "rtc/service/service.h"

namespace vbs::rpc {

struct RpcServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; the bound port is port() after start()
  /// Seed of the per-tenant handshake secrets (wire.h tenant_secret).
  std::uint64_t auth_seed = 1;
  /// Drain whenever the ring is empty and requests are pending. Off for
  /// the deterministic replay mode (drains only at DRAIN frames).
  bool auto_drain = true;
  /// Hostile-socket schedule injected into every accepted connection
  /// (net_short / net_eagain / net_drop sites).
  FaultPlan net_faults;
};

/// Loop-thread counters, readable from any thread.
struct ServerCounters {
  std::uint64_t accepted = 0;
  std::uint64_t active = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t door_sheds = 0;       ///< ring-full ERROR{kQueueFull}
  std::uint64_t handshake_rejects = 0;
  std::uint64_t proto_errors = 0;     ///< kNetProto / kNetFrame closes
  std::uint64_t reads_paused = 0;     ///< outbuf-overflow pause transitions
};

class RpcServer {
 public:
  /// `service` is borrowed, not owned: the caller constructs it (possibly
  /// journaled) and inspects it after stop() — e.g. state_fingerprint()
  /// for the replay-equality check. After start() the service belongs to
  /// the service thread until stop() returns.
  RpcServer(ReconfigService* service, RpcServerOptions opts);
  ~RpcServer();
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens and spawns the loop + service threads. Throws
  /// std::runtime_error when the bind fails. Returns the bound port.
  int start();
  /// Graceful stop (idempotent): flushes connections, joins both
  /// threads. Also triggered remotely by an admin SHUTDOWN frame.
  void stop();
  /// True from start() until the server has fully stopped (a SHUTDOWN
  /// frame also ends it); poll this after driving traffic.
  bool running() const { return running_.load(std::memory_order_acquire); }

  int port() const { return port_; }
  ServerCounters counters() const;

 private:
  struct ServiceOp {
    enum class Kind {
      kLoad, kUnload, kRelocate, kSetPriority, kDrain, kStat, kShutdown
    };
    Kind kind = Kind::kDrain;
    std::uint64_t conn_id = 0;
    std::uint64_t corr = 0;
    BitVector stream;          ///< kLoad
    std::int64_t target = -1;  ///< kUnload / kRelocate
    int tenant = 0;
    int priority = 0;          ///< kSetPriority
  };

  enum class SessionState { kAwaitHello, kAwaitAuth, kReady };

  struct Session {
    std::unique_ptr<net::Conn> conn;
    FrameReader reader;
    SessionState state = SessionState::kAwaitHello;
    int tenant = 0;
    std::uint64_t client_nonce = 0;
    std::uint64_t server_nonce = 0;
    bool read_paused = false;   ///< outbuf over its limit (ring 2)
    bool closing = false;       ///< close once outbuf flushes

    explicit Session(std::unique_ptr<net::Conn> c) : conn(std::move(c)) {}
  };

  // --- loop thread ----------------------------------------------------------
  void loop_main();
  void on_accept();
  void on_conn_event(std::uint64_t conn_id, std::uint32_t events);
  void handle_frame(Session& s, const Frame& f);
  void handle_handshake(Session& s, const Frame& f);
  void handle_request(Session& s, const Frame& f);
  bool push_op(ServiceOp op);  ///< false = ring full (caller door-sheds)
  void send_frame(Session& s, FrameType type, std::uint64_t corr,
                  const std::string& payload);
  void send_error(Session& s, std::uint64_t corr, VbsErrc code,
                  const std::string& message, bool close_after);
  /// A protocol violation: counts proto_errors, sends ERROR, then closes
  /// the session once its outbuf flushes.
  void proto_error(Session& s, std::uint64_t corr, VbsErrc code,
                   const std::string& message);
  void close_session(std::uint64_t conn_id);
  void update_interest(Session& s);
  /// Remote SHUTDOWN path, on the loop thread: stop accepting, then stop
  /// the loop once every outbuf has flushed.
  void initiate_loop_shutdown();
  /// While shutting down: stops the loop if no live connection holds
  /// unsent bytes. Called wherever a flush or a close may have finished.
  void stop_loop_if_flushed();
  /// Sends a frame to a (possibly gone) connection; service-thread safe
  /// via post().
  void post_frame(std::uint64_t conn_id, FrameType type, std::uint64_t corr,
                  std::string payload);

  // --- service thread -------------------------------------------------------
  void service_main();
  void service_handle(const ServiceOp& op);
  void service_drain(std::uint64_t ack_conn, std::uint64_t ack_corr,
                     bool send_ack);

  ReconfigService* service_;
  RpcServerOptions opts_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::unique_ptr<net::EventLoop> loop_;
  std::thread loop_thread_;
  std::thread service_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> service_stop_{false};
  std::mutex stop_mutex_;  ///< serializes stop() callers

  // loop-thread state
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t nonce_seq_ = 0;
  bool shutting_down_ = false;

  // loop -> service
  net::MpscRing<ServiceOp> ops_;
  std::mutex service_mutex_;
  std::condition_variable service_cv_;

  // service-thread state: submit corr -> where the eventual result goes
  std::map<RequestId, std::pair<std::uint64_t, std::uint64_t>> result_route_;

  /// Published by the service thread after every op so the loop thread
  /// can stamp AUTH_OK with the service's next request id race-free.
  std::atomic<long long> service_next_id_{0};

  // counters (loop thread writes; any thread reads)
  std::atomic<std::uint64_t> c_accepted_{0}, c_active_{0};
  std::atomic<std::uint64_t> c_frames_in_{0}, c_frames_out_{0};
  std::atomic<std::uint64_t> c_door_sheds_{0}, c_handshake_rejects_{0};
  std::atomic<std::uint64_t> c_proto_errors_{0}, c_reads_paused_{0};
};

}  // namespace vbs::rpc
