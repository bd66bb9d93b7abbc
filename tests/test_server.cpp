// RPC server tests: loopback end-to-end traffic, handshake auth,
// per-tenant session isolation, admission control under overload (door
// sheds, typed service sheds, read pauses for a slow reader), the
// closed-loop load generator and its run guard, hostile-socket fault
// schedules, remote shutdown — and the headline determinism contract: a
// journaled server replaying a trace over the wire lands on a state
// fingerprint identical to the offline replay of the same trace, before
// AND after recovery.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>

#include "flow/flow.h"
#include "netlist/generator.h"
#include "rtc/server/client.h"
#include "rtc/server/server.h"
#include "rtc/service/trace.h"
#include "util/telemetry.h"
#include "vbs/encoder.h"

namespace vbs {
namespace {

BitVector make_stream(int n_lut, int grid, std::uint64_t seed,
                      const ArchSpec& arch, int cluster = 1) {
  GenParams p;
  p.n_lut = n_lut;
  p.n_pi = 3;
  p.n_po = 3;
  p.seed = seed;
  FlowOptions o;
  o.arch = arch;
  o.seed = seed;
  FlowResult r = run_flow(generate_netlist(p), grid, grid, o);
  EXPECT_TRUE(r.routed());
  EncodeOptions eo;
  eo.cluster = cluster;
  return serialize_vbs(encode_vbs(*r.fabric, r.netlist, r.packed, r.placement,
                                  r.routing.routes, eo));
}

ArchSpec test_arch() {
  ArchSpec arch;
  arch.chan_width = 8;
  return arch;
}

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("vbs_server_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

/// The shared replay workload: a small bursty trace plus its streams.
struct Workload {
  Trace trace;
  std::vector<BitVector> streams;
  ArchSpec arch = test_arch();
};

const Workload& workload() {
  static const Workload* w = [] {
    auto* wl = new Workload;
    TraceGenOptions gopts;
    gopts.pattern = ArrivalPattern::kBursty;
    gopts.events = 36;
    gopts.ticks = 24;
    gopts.kinds = 3;
    gopts.fabric_w = 10;
    gopts.fabric_h = 8;
    wl->trace = generate_trace(gopts);
    for (const TraceTaskKind& k : wl->trace.kinds) {
      wl->streams.push_back(
          make_stream(k.n_lut, k.grid, k.seed, wl->arch, k.cluster));
    }
    return wl;
  }();
  return *w;
}

ServiceOptions replay_service_options() {
  ServiceOptions o;
  o.threads = 2;
  o.queue_limit = 8;
  o.deadline_ticks = 12;
  return o;
}

const std::map<int, int> kPriorities = {{0, 10}, {1, 0}};

/// Offline reference: submit each tick group, drain at the group
/// boundary — exactly the sequence the admin wire replay produces.
std::uint64_t offline_replay(ReconfigService& svc,
                             std::vector<RequestResult>* results_out) {
  const Workload& w = workload();
  for (const auto& [tenant, prio] : kPriorities) {
    svc.set_tenant_priority(tenant, prio);
  }
  std::map<int, RequestId> id_of_event;
  std::size_t i = 0;
  while (i < w.trace.events.size()) {
    const int tick = w.trace.events[i].tick;
    while (i < w.trace.events.size() && w.trace.events[i].tick == tick) {
      const TraceEvent& ev = w.trace.events[i];
      RequestId id = kNoRequest;
      switch (ev.kind) {
        case TraceEvent::Kind::kLoad:
          id = svc.submit_load(w.streams[static_cast<std::size_t>(ev.task_kind)],
                               ev.tenant);
          break;
        case TraceEvent::Kind::kUnload: {
          const auto it = id_of_event.find(ev.ref);
          id = svc.submit_unload(
              it == id_of_event.end() ? kNoRequest : it->second, ev.tenant);
          break;
        }
        case TraceEvent::Kind::kRelocate: {
          const auto it = id_of_event.find(ev.ref);
          id = svc.submit_relocate(
              it == id_of_event.end() ? kNoRequest : it->second, ev.tenant);
          break;
        }
      }
      id_of_event[static_cast<int>(i)] = id;
      ++i;
    }
    auto results = svc.drain();
    if (results_out) {
      results_out->insert(results_out->end(), results.begin(), results.end());
    }
  }
  return svc.state_fingerprint();
}

/// Wire replay through an admin session: same submits, a DRAIN frame per
/// tick group.
std::vector<RequestResult> wire_replay(rpc::RpcClient& admin) {
  const Workload& w = workload();
  for (const auto& [tenant, prio] : kPriorities) {
    admin.set_priority(tenant, prio);
  }
  std::vector<RequestResult> all;
  std::map<int, RequestId> id_of_event;
  std::size_t i = 0;
  while (i < w.trace.events.size()) {
    const int tick = w.trace.events[i].tick;
    while (i < w.trace.events.size() && w.trace.events[i].tick == tick) {
      const TraceEvent& ev = w.trace.events[i];
      RequestId id = kNoRequest;
      switch (ev.kind) {
        case TraceEvent::Kind::kLoad:
          id = admin.send_load(
              w.streams[static_cast<std::size_t>(ev.task_kind)], ev.tenant);
          break;
        case TraceEvent::Kind::kUnload: {
          const auto it = id_of_event.find(ev.ref);
          id = admin.send_unload(
              it == id_of_event.end() ? kNoRequest : it->second, ev.tenant);
          break;
        }
        case TraceEvent::Kind::kRelocate: {
          const auto it = id_of_event.find(ev.ref);
          id = admin.send_relocate(
              it == id_of_event.end() ? kNoRequest : it->second, ev.tenant);
          break;
        }
      }
      id_of_event[static_cast<int>(i)] = id;
      ++i;
    }
    const auto results = admin.drain();
    all.insert(all.end(), results.begin(), results.end());
  }
  return all;
}

sockaddr_in loopback_addr(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return addr;
}

/// A listening loopback socket on an ephemeral port, stored in `*port`.
int listen_loopback(int* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr = loopback_addr(0);
  auto* sa = reinterpret_cast<sockaddr*>(&addr);
  EXPECT_EQ(::bind(fd, sa, sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, 16), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, sa, &len), 0);
  *port = ntohs(addr.sin_port);
  return fd;
}

/// A blocking socket connected to `port`, with a 10 s receive timeout.
int dial_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  // A small receive window, set before connect, keeps the bytes the
  // kernel buffers for a slow reader small next to the server's outbuf.
  const int rcvbuf = 16 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  const timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const sockaddr_in addr = loopback_addr(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

rpc::Frame recv_frame(int fd, rpc::FrameReader& reader, std::string& in) {
  rpc::Frame f;
  while (!reader.next(in, f)) {
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_GT(n, 0) << "connection closed or timed out";
    if (n <= 0) break;
    in.append(buf, static_cast<std::size_t>(n));
  }
  return f;
}

long long loop_posts() {
  const telem::MetricsSnapshot snap = telem::snapshot();
  const auto it = snap.counters.find("net.loop_posts");
  return it == snap.counters.end() ? 0 : it->second;
}

rpc::RpcClientOptions client_opts(int port, int tenant,
                                  std::uint64_t auth_seed = 1) {
  rpc::RpcClientOptions o;
  o.port = port;
  o.tenant = tenant;
  o.auth_seed = auth_seed;
  return o;
}

// --- basics ------------------------------------------------------------------

TEST(Server, StartPingStatStop) {
  const Workload& w = workload();
  ReconfigService svc(w.arch, w.trace.fabric_w, w.trace.fabric_h,
                      replay_service_options());
  rpc::RpcServerOptions sopts;
  rpc::RpcServer server(&svc, sopts);
  const int port = server.start();
  ASSERT_GT(port, 0);
  {
    rpc::RpcClient client(client_opts(port, 0));
    client.ping();
    const rpc::StatReplyMsg stat = client.stat();
    EXPECT_EQ(stat.pending, 0u);
    EXPECT_EQ(stat.loads, 0);
    EXPECT_EQ(stat.fingerprint, svc.state_fingerprint());
  }
  server.stop();
  EXPECT_FALSE(server.running());
  const auto counters = server.counters();
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_GE(counters.frames_in, 4u);  // hello, auth, ping, stat
}

TEST(Server, AuthRejectWrongSeed) {
  const Workload& w = workload();
  ReconfigService svc(w.arch, w.trace.fabric_w, w.trace.fabric_h,
                      replay_service_options());
  rpc::RpcServerOptions sopts;
  sopts.auth_seed = 7;
  rpc::RpcServer server(&svc, sopts);
  const int port = server.start();
  try {
    rpc::RpcClient client(client_opts(port, 0, /*auth_seed=*/8));
    FAIL() << "expected kNetAuth";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kNetAuth);
  }
  server.stop();
  EXPECT_EQ(server.counters().handshake_rejects, 1u);
}

TEST(Server, TenantSpoofIsNetProto) {
  const Workload& w = workload();
  ReconfigService svc(w.arch, w.trace.fabric_w, w.trace.fabric_h,
                      replay_service_options());
  rpc::RpcServer server(&svc, rpc::RpcServerOptions{});
  const int port = server.start();
  {
    rpc::RpcClient client(client_opts(port, /*tenant=*/2));
    try {
      client.send_load(w.streams[0], /*tenant=*/3);  // not my tenant
      FAIL() << "expected kNetProto";
    } catch (const VbsError& e) {
      EXPECT_EQ(e.code(), VbsErrc::kNetProto);
    }
  }
  server.stop();
  EXPECT_EQ(server.counters().proto_errors, 1u);
  EXPECT_EQ(svc.stats().loads, 0);  // the spoof never reached the service
}

TEST(Server, AdminOnlyOpsRejectedForTenants) {
  const Workload& w = workload();
  ReconfigService svc(w.arch, w.trace.fabric_w, w.trace.fabric_h,
                      replay_service_options());
  rpc::RpcServer server(&svc, rpc::RpcServerOptions{});
  const int port = server.start();
  {
    rpc::RpcClient client(client_opts(port, /*tenant=*/1));
    try {
      client.set_priority(1, 99);
      FAIL() << "expected kNetProto";
    } catch (const VbsError& e) {
      EXPECT_EQ(e.code(), VbsErrc::kNetProto);
    }
  }
  server.stop();
}

TEST(Server, EndToEndLoadThenUnload) {
  const Workload& w = workload();
  ReconfigService svc(w.arch, w.trace.fabric_w, w.trace.fabric_h,
                      replay_service_options());
  rpc::RpcServer server(&svc, rpc::RpcServerOptions{});  // auto_drain on
  const int port = server.start();
  {
    rpc::RpcClient client(client_opts(port, 0));
    const RequestId load = client.send_load(w.streams[0], 0);
    EXPECT_GE(load, 0);
    const RequestResult r1 = client.await_result();
    EXPECT_EQ(r1.request, load);
    EXPECT_EQ(r1.status, RequestStatus::kDone);
    EXPECT_EQ(r1.kind, RequestKind::kLoad);
    EXPECT_EQ(r1.tenant, 0);

    const RequestId unload = client.send_unload(load, 0);
    const RequestResult r2 = client.await_result();
    EXPECT_EQ(r2.request, unload);
    EXPECT_EQ(r2.status, RequestStatus::kDone);
  }
  server.stop();
  EXPECT_EQ(svc.stats().loads, 1);
  EXPECT_EQ(svc.stats().unloads, 1);
  EXPECT_EQ(svc.controller().num_tasks(), 0);
}

// --- the determinism contract -----------------------------------------------

TEST(Server, WireReplayFingerprintMatchesOffline) {
  const Workload& w = workload();

  ReconfigService offline(w.arch, w.trace.fabric_w, w.trace.fabric_h,
                          replay_service_options());
  std::vector<RequestResult> offline_results;
  const std::uint64_t offline_fp = offline_replay(offline, &offline_results);

  ReconfigService served(w.arch, w.trace.fabric_w, w.trace.fabric_h,
                         replay_service_options());
  rpc::RpcServerOptions sopts;
  sopts.auto_drain = false;  // drains happen only at DRAIN frames
  rpc::RpcServer server(&served, sopts);
  const int port = server.start();
  std::vector<RequestResult> wire_results;
  std::uint64_t stat_fp = 0;
  {
    rpc::RpcClient admin(client_opts(port, rpc::kAdminTenant));
    wire_results = wire_replay(admin);
    stat_fp = admin.stat().fingerprint;
  }
  server.stop();

  EXPECT_EQ(served.state_fingerprint(), offline_fp);
  EXPECT_EQ(stat_fp, offline_fp);

  // Every modeled field of every result must match, in order: the wire
  // client observed exactly the offline run.
  ASSERT_EQ(wire_results.size(), offline_results.size());
  for (std::size_t i = 0; i < wire_results.size(); ++i) {
    const RequestResult& a = offline_results[i];
    const RequestResult& b = wire_results[i];
    EXPECT_EQ(a.request, b.request) << i;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.status, b.status) << i;
    EXPECT_EQ(a.task, b.task) << i;
    EXPECT_EQ(a.tenant, b.tenant) << i;
    EXPECT_EQ(a.priority, b.priority) << i;
    EXPECT_EQ(a.code, b.code) << i;
    EXPECT_EQ(a.latency_ticks, b.latency_ticks) << i;
    EXPECT_EQ(a.queue_wait_ticks, b.queue_wait_ticks) << i;
    EXPECT_EQ(a.exec_ticks, b.exec_ticks) << i;
  }
}

TEST(Server, JournaledWireReplayRecoversToSameFingerprint) {
  const Workload& w = workload();
  TempDir dir("journal");

  ReconfigService offline(w.arch, w.trace.fabric_w, w.trace.fabric_h,
                          replay_service_options());
  const std::uint64_t offline_fp = offline_replay(offline, nullptr);

  {
    ReconfigService served(w.arch, w.trace.fabric_w, w.trace.fabric_h,
                           replay_service_options());
    served.open_journal(dir.path);
    rpc::RpcServerOptions sopts;
    sopts.auto_drain = false;
    rpc::RpcServer server(&served, sopts);
    const int port = server.start();
    {
      rpc::RpcClient admin(client_opts(port, rpc::kAdminTenant));
      wire_replay(admin);
    }
    server.stop();
    EXPECT_EQ(served.state_fingerprint(), offline_fp);
  }

  // The journal alone rebuilds the served state.
  ReconfigService::RecoveryInfo info;
  const auto recovered = ReconfigService::recover(dir.path, /*threads=*/1,
                                                  &info);
  EXPECT_GT(info.records, 0);
  EXPECT_EQ(recovered->state_fingerprint(), offline_fp);
}

// Every frame the service thread produces reaches the loop in exactly one
// post: no per-pass or per-drain bookkeeping closures ride along.
TEST(Server, ServiceThreadPostsOncePerFrame) {
  const Workload& w = workload();
  telem::ScopedEnable telemetry_on;
  const long long posts0 = loop_posts();
  ReconfigService served(w.arch, w.trace.fabric_w, w.trace.fabric_h,
                         replay_service_options());
  rpc::RpcServerOptions sopts;
  sopts.auto_drain = false;
  rpc::RpcServer server(&served, sopts);
  const int port = server.start();
  std::vector<RequestResult> results;
  {
    rpc::RpcClient admin(client_opts(port, rpc::kAdminTenant));
    results = wire_replay(admin);
  }
  server.stop();

  // wire_replay receives an ACK per priority change and per submit, every
  // RESULT, and an ACK per DRAIN (one per tick group).
  long long drains = 0;
  for (std::size_t i = 0; i < w.trace.events.size(); ++i) {
    if (i == 0 || w.trace.events[i].tick != w.trace.events[i - 1].tick) {
      ++drains;
    }
  }
  const auto frames = static_cast<long long>(
      kPriorities.size() + w.trace.events.size() + results.size());
  EXPECT_EQ(loop_posts() - posts0, frames + drains);
}

// --- overload ----------------------------------------------------------------

TEST(Server, OverloadShedsWithTypedResults) {
  const Workload& w = workload();
  ServiceOptions so = replay_service_options();
  so.queue_limit = 2;
  ReconfigService svc(w.arch, w.trace.fabric_w, w.trace.fabric_h, so);
  rpc::RpcServerOptions sopts;
  sopts.auto_drain = false;
  rpc::RpcServer server(&svc, sopts);
  const int port = server.start();
  int shed = 0, done = 0;
  {
    rpc::RpcClient admin(client_opts(port, rpc::kAdminTenant));
    for (int i = 0; i < 6; ++i) admin.send_load(w.streams[0], 0);
    for (const RequestResult& r : admin.drain()) {
      if (r.status == RequestStatus::kShed) {
        ++shed;
        EXPECT_EQ(r.code, VbsErrc::kQueueFull);
      } else if (r.status == RequestStatus::kDone) {
        ++done;
      }
    }
  }
  server.stop();
  EXPECT_EQ(shed, 4);  // queue_limit 2 of 6 admitted
  EXPECT_EQ(done, 2);
  EXPECT_EQ(svc.stats().shed, 4);
}

// A client that writes without reading: once its outbuf passes the limit
// the server stops reading it, and every reply still arrives, in order,
// when the client catches up.
TEST(Server, SlowReaderPausesReads) {
  ReconfigService svc(test_arch(), 10, 8, replay_service_options());
  rpc::RpcServer server(&svc, rpc::RpcServerOptions{});
  const int port = server.start();
  const int fd = dial_loopback(port);

  rpc::FrameReader reader;
  std::string in;
  constexpr std::uint64_t kNonce = 0x5105;
  send_all(fd, rpc::encode_frame(rpc::FrameType::kHello, 1,
                                 rpc::encode_hello({0, kNonce})));
  const rpc::Frame challenge = recv_frame(fd, reader, in);
  ASSERT_EQ(challenge.type, rpc::FrameType::kChallenge);
  const std::uint64_t proof =
      rpc::auth_proof(rpc::tenant_secret(1, 0), 0, kNonce,
                      rpc::decode_challenge(challenge.payload).server_nonce);
  send_all(fd, rpc::encode_frame(rpc::FrameType::kAuth, 1,
                                 rpc::encode_auth({proof})));
  ASSERT_EQ(recv_frame(fd, reader, in).type, rpc::FrameType::kAuthOk);
  constexpr std::uint64_t kHandshakeFrames = 2;

  // Write PING batches and never read, until the server pauses. Each
  // batch waits until the server has read the previous one, so at most one
  // batch is in flight when reads pause. A deep inbuf costs the server
  // linear time: FrameReader consumes through an offset (consume_front).
  constexpr std::uint64_t kBatch = 4096;
  constexpr std::uint64_t kMaxPings = 1'000'000;  // ~22 MB: 5x the limit
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::string out;
  std::size_t off = 0;
  std::uint64_t pings = 0;
  while (server.counters().reads_paused == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "reads never paused after " << pings << " PINGs";
    if (off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + off, out.size() - off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
    } else if (server.counters().frames_in >= kHandshakeFrames + pings) {
      ASSERT_LT(pings, kMaxPings) << "reads never paused";
      out.clear();
      off = 0;
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        out += rpc::encode_frame(rpc::FrameType::kPing, ++pings, "");
      }
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  // Catch up: read every PONG in order while the rest of the batch goes
  // out, which the server reads once its outbuf has drained.
  std::uint64_t expect = 1;
  while (expect <= pings) {
    pollfd p{fd, static_cast<short>(POLLIN | (off < out.size() ? POLLOUT : 0)),
             0};
    ASSERT_GT(::poll(&p, 1, 10'000), 0) << "stalled before PONG " << expect;
    if (p.revents & POLLOUT) {
      const ssize_t n = ::send(fd, out.data() + off, out.size() - off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) off += static_cast<std::size_t>(n);
    }
    if (p.revents & POLLIN) {
      char buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      ASSERT_GT(n, 0);
      in.append(buf, static_cast<std::size_t>(n));
      rpc::Frame f;
      while (reader.next(in, f)) {
        ASSERT_EQ(f.type, rpc::FrameType::kPong);
        ASSERT_EQ(f.corr, expect);
        ++expect;
      }
    }
  }
  ::close(fd);
  server.stop();
  EXPECT_GE(server.counters().reads_paused, 1u);
  EXPECT_EQ(server.counters().frames_in, kHandshakeFrames + pings);
}

// --- closed-loop load generator ---------------------------------------------

// A peer that accepts TCP but never answers the HELLO: the run's guard
// ends the loadgen, which reports that no connection came up.
TEST(Server, LoadGenGuardEndsSilentPeer) {
  int port = 0;
  const int listen_fd = listen_loopback(&port);  // never accept()ed
  rpc::LoadGenOptions lopts;
  lopts.port = port;
  lopts.connections = 2;
  TraceEvent load;
  load.task_kind = 0;
  lopts.trace.events = {load, load};
  lopts.kind_streams = {BitVector()};  // never sent: no handshake completes
  lopts.timeout_ms = 200;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)rpc::run_loadgen(lopts);
    ADD_FAILURE() << "expected kNetClosed";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kNetClosed);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  ::close(listen_fd);
}

TEST(Server, LoadGenClosedLoopSmoke) {
  const Workload& w = workload();
  for (const int connections : {8, 32}) {
    SCOPED_TRACE(connections);
    ServiceOptions so;
    so.threads = 2;  // unbounded queue, no deadlines: every request resolves
    ReconfigService svc(w.arch, w.trace.fabric_w, w.trace.fabric_h, so);
    rpc::RpcServer server(&svc, rpc::RpcServerOptions{});
    const int port = server.start();

    rpc::LoadGenOptions lopts;
    lopts.port = port;
    lopts.connections = connections;
    lopts.trace = w.trace;
    lopts.kind_streams = w.streams;
    lopts.timeout_ms = 60'000;
    const rpc::LoadGenReport report = rpc::run_loadgen(lopts);

    // A remote SHUTDOWN after the load must stop the loop cleanly.
    {
      rpc::RpcClient admin(client_opts(port, rpc::kAdminTenant));
      admin.shutdown();
    }
    for (int i = 0; i < 2500 && server.running(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_FALSE(server.running()) << "no clean stop within 5 s";
    server.stop();

    EXPECT_FALSE(report.timed_out);
    EXPECT_EQ(report.requests_sent,
              static_cast<long long>(w.trace.events.size()));
    EXPECT_EQ(report.results, report.requests_sent);
    EXPECT_EQ(report.acks, report.requests_sent);
    EXPECT_GT(report.done, 0);
    // Every result is one of the typed terminal states.
    EXPECT_EQ(report.done + report.shed + report.rejected + report.failed +
                  report.deadline,
              report.results);
    EXPECT_EQ(report.latencies_ms.size(),
              static_cast<std::size_t>(report.results));
    for (const double ms : report.latencies_ms) EXPECT_GE(ms, 0.0);
    EXPECT_EQ(report.wire_errors, 0);
    EXPECT_EQ(report.door_sheds, 0);
    EXPECT_GT(svc.stats().loads, 0);
  }
}

TEST(Server, HostileSocketsNeverCrashTheServer) {
  const Workload& w = workload();
  ReconfigService svc(w.arch, w.trace.fabric_w, w.trace.fabric_h,
                      replay_service_options());
  rpc::RpcServerOptions sopts;
  // Aggressive schedule: truncated reads, spurious EAGAINs, and ~2% of
  // socket ops severing the connection mid-frame.
  sopts.net_faults = FaultPlan::parse(
      "seed=11,net_short=0.3,net_eagain=0.2,net_drop=0.02");
  rpc::RpcServer server(&svc, sopts);
  const int port = server.start();

  rpc::LoadGenOptions lopts;
  lopts.port = port;
  lopts.connections = 8;
  lopts.trace = w.trace;
  lopts.kind_streams = w.streams;
  lopts.timeout_ms = 60'000;
  try {
    (void)rpc::run_loadgen(lopts);
  } catch (const VbsError& e) {
    // Every connection dying early is an acceptable outcome — the server
    // surviving is the contract under test.
    EXPECT_EQ(e.code(), VbsErrc::kNetClosed);
  }
  EXPECT_TRUE(server.running());
  // The server is still healthy: a clean client eventually works end to
  // end (its own server-side connection rides the same fault schedule, so
  // a few attempts may be severed).
  bool healthy = false;
  for (int attempt = 0; attempt < 8 && !healthy; ++attempt) {
    try {
      rpc::RpcClient client(client_opts(port, 0));
      client.ping();
      (void)client.stat();
      healthy = true;
    } catch (const VbsError&) {
    }
  }
  EXPECT_TRUE(healthy);
  server.stop();
}

TEST(Server, RemoteShutdownStopsServer) {
  const Workload& w = workload();
  ReconfigService svc(w.arch, w.trace.fabric_w, w.trace.fabric_h,
                      replay_service_options());
  rpc::RpcServer server(&svc, rpc::RpcServerOptions{});
  const int port = server.start();
  {
    rpc::RpcClient admin(client_opts(port, rpc::kAdminTenant));
    admin.shutdown();  // returns after the server's ACK
  }
  for (int i = 0; i < 500 && server.running(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(server.running());
  EXPECT_THROW(rpc::RpcClient(client_opts(port, 0)), VbsError);
  server.stop();  // joins the already-exited threads
}

}  // namespace
}  // namespace vbs
