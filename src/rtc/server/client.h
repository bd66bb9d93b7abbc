// RPC clients for the networked reconfiguration service.
//
// Two clients share the vbs.rpc.v1 codec (wire.h):
//
//   RpcClient  — a simple *blocking* client: connect + handshake in the
//                constructor, then synchronous request/reply calls. This
//                is what the admin replay path and the tests use; every
//                wire failure surfaces as a typed VbsError (kNetClosed on
//                a dead peer, kNetTimeout when no frame arrives within
//                10 s, kNetAuth on a rejected handshake, or the server's
//                own error code relayed from an ERROR frame).
//
//   run_loadgen — a *closed-loop* load generator: one EventLoop drives
//                 `connections` concurrent non-blocking connections, each
//                 authenticated as its tenant and walking its slice of a
//                 reconfiguration trace one outstanding request at a time
//                 (send LOAD/UNLOAD/RELOCATE -> await ACK -> await RESULT
//                 -> next). Trace events are partitioned by tenant and
//                 round-robined across that tenant's connections;
//                 unload/relocate events ride with the connection that
//                 issued the referenced load, so every target id is known
//                 locally by the time it is needed. Per-request latency
//                 is wall time from the submit write to its RESULT frame
//                 — the number the bench reports as p50/p99 under
//                 steady/bursty/flash_crowd arrivals. The loop runs
//                 against a steady_clock deadline (timeout_ms).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/conn.h"
#include "rtc/server/wire.h"
#include "rtc/service/trace.h"
#include "util/bitvector.h"
#include "util/fault.h"

namespace vbs::rpc {

struct RpcClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int tenant = 0;  ///< kAdminTenant for the privileged session
  std::uint64_t auth_seed = 1;
};

class RpcClient {
 public:
  /// Connects and completes the handshake; throws VbsError{kNetClosed}
  /// when the peer is unreachable, {kNetAuth} when rejected.
  explicit RpcClient(RpcClientOptions opts);
  ~RpcClient();
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// The service request id the server will assign to the next submit —
  /// from AUTH_OK; advance it client-side by counting submits to predict
  /// ids without a round trip.
  long long next_request_id() const { return next_request_id_; }
  std::uint64_t session() const { return session_; }

  /// Submit calls block until the server's ACK and return the service
  /// request id. The eventual RESULT arrives via drain() (admin replay)
  /// or await_result() (auto-drain servers).
  RequestId send_load(const BitVector& stream, int tenant);
  RequestId send_unload(RequestId target, int tenant);
  RequestId send_relocate(RequestId target, int tenant);

  void set_priority(int tenant, int priority);  ///< admin only
  /// Admin drain barrier: returns every result the drain produced (the
  /// server streams them before the barrier's ACK).
  std::vector<RequestResult> drain();
  /// Blocks for the next RESULT frame (auto-drain mode).
  RequestResult await_result();
  StatReplyMsg stat();
  void ping();
  /// Graceful remote stop (admin only); returns after the server's ACK.
  void shutdown();

  void close();

 private:
  std::string send_and_wait(FrameType type, const std::string& payload,
                            FrameType expect);
  void send_frame(FrameType type, std::uint64_t corr,
                  const std::string& payload);
  /// Blocking receive of one frame; relays ERROR frames as VbsError.
  Frame recv_frame(bool relay_errors = true);
  RequestId submit(FrameType type, const std::string& payload);

  RpcClientOptions opts_;
  int fd_ = -1;
  std::string inbuf_;
  FrameReader reader_;
  std::uint64_t next_corr_ = 1;
  long long next_request_id_ = 0;
  std::uint64_t session_ = 0;
};

// --- closed-loop load generator ---------------------------------------------

struct LoadGenOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 32;
  std::uint64_t auth_seed = 1;
  Trace trace;
  /// Pre-built VBS streams, aligned with trace.kinds.
  std::vector<BitVector> kind_streams;
  int timeout_ms = 120'000;  ///< whole-run wall guard
  /// Client-side hostile-socket schedule (net_short/net_eagain/net_drop).
  FaultPlan net_faults;
};

struct LoadGenReport {
  int connections = 0;
  long long requests_sent = 0;
  long long acks = 0;
  long long results = 0;
  long long done = 0, shed = 0, rejected = 0, failed = 0, deadline = 0;
  long long door_sheds = 0;   ///< ERROR{kQueueFull}: shed at the ring
  long long wire_errors = 0;  ///< other ERROR frames / dead connections
  bool timed_out = false;
  double wall_seconds = 0.0;
  /// Submit-write -> RESULT wall latency, one entry per completed
  /// request, in issue-completion order (not sorted).
  std::vector<double> latencies_ms;
};

/// Runs the closed-loop generator to completion (every connection's
/// schedule exhausted, a dead server, or timeout_ms). Throws
/// VbsError{kNetClosed} only when no connection could be established at
/// all; partial failures are counted in the report instead.
LoadGenReport run_loadgen(const LoadGenOptions& opts);

}  // namespace vbs::rpc
