// Trace-driven benchmark of the multi-tenant reconfiguration service: the
// online-workload counterpart of flow_bench.
//
// For each trace (the bundled steady/bursty/diurnal/churn suite, or a
// vbs.rtc_trace.v1 file via --trace) the harness builds the trace's task
// library through the offline flow once, then replays the event sequence
// against a ReconfigService tick by tick and records throughput, load
// latency percentiles, cache effectiveness, fragmentation and evictions.
//
// After the classic suite, two adversarial overload legs (flash_crowd,
// unique_flood) replay with a bounded admission queue, per-request
// deadlines, tenant priorities (tenant 0 = high-priority background,
// tenant 1 = the flood) and a deterministic fault plan; the harness
// reports per-tenant latency percentiles in modeled ticks plus
// shed/retry/deadline counters, and FAILS unless the high-priority
// tenant is never shed and its p99 stays at or below the flood's.
//
// Each classic trace is replayed four times:
//   warm @ --threads  the headline run (decoded-stream cache enabled);
//   cold @ --threads  cache capacity 0 — loads and relocations re-pay
//                     devirtualization (batch-level dedup of identical
//                     streams stays active, so the cold/warm ratio is a
//                     conservative cache headline), and the final
//                     configuration memory must be byte-identical to the
//                     warm run (cached payloads are real decodes);
//   warm @ 1, warm @ 2  determinism legs: final config_memory and the
//                     eviction log must be byte-identical to the headline
//                     run at any thread count.
//
// After the overload legs, a recovery leg replays each overload trace
// once more with a write-ahead journal attached (src/rtc/service/journal),
// then rebuilds a service from the journal directory alone and compares
// state fingerprints: journaling must be transparent (the journaled run
// fingerprints identically to an unjournaled one) and recovery must be
// byte-identical to the run it replaces. The leg reports journal size,
// WAL record counts, journaling overhead and the cold-recovery replay
// rate in records per second.
//
// After the recovery legs, a latency-decomposition leg (new in v4)
// replays each overload trace once more with the trace-event buffer
// sliced around the replay: every RequestResult must satisfy the tick
// identity latency == queue_wait + backoff + spike + exec, and the
// modeled-tick request/phase spans in the sliced trace must sum, per
// tenant, to exactly the breakdown TenantStats reports — so a Chrome
// trace written with --trace-out is a faithful rendering of the numbers
// in the JSON.
//
// After the breakdown legs, the networked legs (new in v5) move the same
// workloads onto the wire: an in-process RpcServer (src/rtc/server) fronts
// the service on a loopback socket and the closed-loop load generator
// drives hundreds of concurrent connections through the vbs.rpc.v1
// protocol. For steady, bursty and flash_crowd arrivals the leg reports
// wall-clock p50/p99 request latency, throughput and shed rates at
// --connections concurrent sessions (256 full, 32 smoke); a final
// server-replay leg replays a trace through a *journaled* server via one
// admin session (DRAIN barrier per tick group) and FAILS unless the
// server's state fingerprint is identical to the offline replay of the
// same trace — and still identical after a cold recovery from the
// server's journal.
//
// Results go to stdout as a table and to a JSON file (vbs.rtc_bench.v5,
// documented in bench/README.md). BENCH_rtc.json at the repo root is the
// committed trajectory. The telemetry registry is always on in this
// harness (the JSON embeds its counters); every determinism and
// fingerprint check holds with telemetry on or off.
//
// Standalone network modes (all errors exit typed — exit_code_for(code),
// --json prints {"error": {"code", "errc", "message"}} on stdout):
//   rtc_bench --serve [--port N] [--port-file F] [--auth-seed S]
//       front a fresh service on a loopback socket until a remote
//       SHUTDOWN frame (admin session) stops it;
//   rtc_bench --connect --port N [--shutdown] [--auth-seed S] [--json]
//       admin-connect to a running server: ping + stat (or a graceful
//       remote shutdown with --shutdown);
//   rtc_bench --server-smoke [--connections N]
//       the CI loopback gate: in-process server + N-connection closed
//       loop + remote shutdown, exit 0 only on a clean end-to-end pass.
//
// Usage:
//   rtc_bench [--smoke] [--trace FILE] [--policy P] [--threads T]
//             [--cache-bits N] [--events N] [--ticks K] [--seed S]
//             [--queue-limit N] [--deadline T] [--faults SPEC]
//             [--connections N] [--trace-out trace.json] [--metrics]
//             [--out PATH] [--json]
//             [--serve | --connect | --server-smoke] [--port N]
//             [--port-file F] [--auth-seed S] [--shutdown]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "flow/flow.h"
#include "netlist/generator.h"
#include "rtc/server/client.h"
#include "rtc/server/server.h"
#include "rtc/service/service.h"
#include "rtc/service/trace.h"
#include "util/build_info.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"
#include "vbs/encoder.h"

using namespace vbs;

namespace {

/// Offline flow per distinct task recipe, shared across traces.
class StreamLibrary {
 public:
  explicit StreamLibrary(const ArchSpec& arch) : arch_(arch) {}

  const BitVector& stream_for(const TraceTaskKind& kind) {
    const auto key = std::make_tuple(kind.n_lut, kind.grid, kind.seed,
                                     kind.cluster);
    const auto it = streams_.find(key);
    if (it != streams_.end()) return it->second;
    GenParams gp;
    gp.n_lut = kind.n_lut;
    gp.n_pi = 3;
    gp.n_po = 3;
    gp.seed = kind.seed;
    FlowOptions opts;
    opts.arch = arch_;
    opts.seed = kind.seed;
    FlowResult flow =
        run_flow(generate_netlist(gp), kind.grid, kind.grid, opts);
    if (!flow.routed()) {
      throw std::runtime_error("library task unroutable: " + kind.name);
    }
    EncodeOptions eo;
    eo.cluster = kind.cluster;
    BitVector stream =
        serialize_vbs(encode_vbs(*flow.fabric, flow.netlist, flow.packed,
                                 flow.placement, flow.routing.routes, eo));
    return streams_.emplace(key, std::move(stream)).first->second;
  }

 private:
  ArchSpec arch_;
  std::map<std::tuple<int, int, std::uint64_t, int>, BitVector> streams_;
};

struct Replay {
  ServiceStats stats;
  BitVector config;
  std::vector<EvictionEvent> evictions;
  std::vector<double> load_latencies;  ///< seconds, committed loads only
  long long done = 0, rejected = 0, failed = 0;
  long long shed = 0, deadline_misses = 0;
  double drain_seconds = 0.0;
  double frag_sum = 0.0;
  int frag_samples = 0;
  double frag_final = 0.0;
  double occupancy_final = 0.0;
  long long cache_hits = 0, cache_misses = 0;
  long long cache_insertions = 0, cache_evictions = 0;
  std::size_t cache_size_bits = 0;
  /// Per-request outcome stream (admission order per drain), for replay
  /// equality across thread counts: status and modeled latency of every
  /// request.
  std::vector<int> statuses;
  std::vector<long long> latency_ticks;
  /// Modeled-tick latencies of committed loads, by tenant.
  std::map<int, std::vector<double>> tenant_done_ticks;
  std::map<int, TenantStats> tenants;
  /// Every result satisfied latency == queue_wait + backoff + spike + exec.
  bool tick_identity_ok = true;
};

Replay replay_trace(const Trace& trace, StreamLibrary& lib,
                    const ArchSpec& arch, const ServiceOptions& opts,
                    const std::map<int, int>& priorities = {},
                    const std::string& journal_dir = {},
                    std::uint64_t* fingerprint_out = nullptr) {
  ReconfigService svc(arch, trace.fabric_w, trace.fabric_h, opts);
  // The journal must attach before any journaled mutation — priority
  // assignments included — so recovery replays the whole run.
  if (!journal_dir.empty()) svc.open_journal(journal_dir);
  for (const auto& [tenant, prio] : priorities) {
    svc.set_tenant_priority(tenant, prio);
  }
  Replay out;
  std::vector<RequestId> request_of_event(trace.events.size(), kNoRequest);

  std::size_t next = 0;
  while (next < trace.events.size()) {
    const int tick = trace.events[next].tick;
    // Admit everything that arrives this tick, then let the service drain
    // the queue — the batching the bursty pattern exists to exercise.
    while (next < trace.events.size() && trace.events[next].tick == tick) {
      const TraceEvent& e = trace.events[next];
      switch (e.kind) {
        case TraceEvent::Kind::kLoad:
          request_of_event[next] = svc.submit_load(
              lib.stream_for(
                  trace.kinds[static_cast<std::size_t>(e.task_kind)]),
              e.tenant);
          break;
        case TraceEvent::Kind::kUnload:
          request_of_event[next] = svc.submit_unload(
              request_of_event[static_cast<std::size_t>(e.ref)], e.tenant);
          break;
        case TraceEvent::Kind::kRelocate:
          request_of_event[next] = svc.submit_relocate(
              request_of_event[static_cast<std::size_t>(e.ref)], e.tenant);
          break;
      }
      ++next;
    }
    const std::uint64_t t0 = telem::now_ns();
    const std::vector<RequestResult> results = svc.drain();
    out.drain_seconds += telem::seconds_since(t0);
    for (const RequestResult& r : results) {
      switch (r.status) {
        case RequestStatus::kDone: ++out.done; break;
        case RequestStatus::kRejected: ++out.rejected; break;
        case RequestStatus::kFailed: ++out.failed; break;
        case RequestStatus::kShed: ++out.shed; break;
        case RequestStatus::kDeadline: ++out.deadline_misses; break;
        case RequestStatus::kQueued: break;
      }
      if (r.kind == RequestKind::kLoad && r.status == RequestStatus::kDone) {
        out.load_latencies.push_back(r.latency_seconds);
        out.tenant_done_ticks[r.tenant].push_back(
            static_cast<double>(r.latency_ticks));
      }
      out.statuses.push_back(static_cast<int>(r.status));
      out.latency_ticks.push_back(r.latency_ticks);
      out.tick_identity_ok &=
          r.latency_ticks == r.queue_wait_ticks + r.backoff_ticks +
                                 r.spike_ticks + r.exec_ticks;
    }
    out.frag_sum += svc.fragmentation();
    ++out.frag_samples;
  }

  out.stats = svc.stats();
  out.config = svc.controller().config_memory();
  out.evictions = svc.eviction_log();
  out.frag_final = svc.fragmentation();
  out.occupancy_final = svc.controller().occupancy();
  out.cache_hits = svc.cache().hits();
  out.cache_misses = svc.cache().misses();
  out.cache_insertions = svc.cache().insertions();
  out.cache_evictions = svc.cache().evictions();
  out.cache_size_bits = svc.cache().size_bits();
  out.tenants = svc.tenant_stats();
  if (fingerprint_out != nullptr) *fingerprint_out = svc.state_fingerprint();
  return out;
}

bool same_evictions(const std::vector<EvictionEvent>& a,
                    const std::vector<EvictionEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].seq != b[i].seq || a[i].task != b[i].task ||
        !(a[i].rect == b[i].rect) || a[i].cause != b[i].cause) {
      return false;
    }
  }
  return true;
}

struct TraceRecord {
  Trace trace;
  Replay warm;       ///< headline run at --threads
  long long cold_nodes = 0;
  bool warm_equals_cold = false;
  bool deterministic = false;
  double p50_ms = 0.0, p99_ms = 0.0, max_ms = 0.0;
  double throughput = 0.0;
};

/// One adversarial overload leg: bounded queue + deadlines + priorities +
/// fault plan. No cold comparison (the fault plan's decode faults key off
/// cache misses by design), but the replay must still be byte-identical
/// across thread counts — statuses and tick latencies included.
struct OverloadRecord {
  Trace trace;
  Replay run;
  bool deterministic = false;
  /// p50/p99 of committed-load latency in modeled ticks, per tenant.
  std::map<int, std::pair<double, double>> tick_percentiles;
};

/// One crash-recovery leg: an overload trace replayed with a write-ahead
/// journal attached, then a service rebuilt from the journal directory
/// alone. Both fingerprint comparisons are part of the bench's FAIL gate.
struct RecoveryRecord {
  Trace trace;
  ReconfigService::RecoveryInfo info;
  double baseline_seconds = 0.0;   ///< drain time, no journal
  double journaled_seconds = 0.0;  ///< drain time with the journal attached
  double recover_seconds = 0.0;    ///< rebuild-from-journal wall time
  double replay_rps = 0.0;         ///< WAL records replayed per second
  bool journal_transparent = false;  ///< journaled fp == unjournaled fp
  bool fingerprint_ok = false;       ///< recovered fp == journaled fp
};

/// The latency-decomposition leg (new in v4): one more overload replay
/// with the trace-event buffer sliced around it, so the modeled-tick spans
/// can be summed per tenant and compared against TenantStats.
struct BreakdownRecord {
  Trace trace;
  Replay run;
  bool identity_ok = false;   ///< per-result tick identity held throughout
  bool spans_ok = false;      ///< span sums == per-tenant breakdown
  std::string pairing_error;  ///< first event-pairing violation, or empty
};

/// One networked leg (new in v5): the closed-loop load generator driving
/// --connections concurrent sessions against an in-process RpcServer.
struct ServerRecord {
  Trace trace;
  int connections = 0;
  rpc::LoadGenReport report;
  rpc::ServerCounters counters;
  double p50_ms = 0.0, p99_ms = 0.0;  ///< wall latency, submit -> RESULT
  double shed_rate = 0.0;             ///< kShed results / results
  double throughput = 0.0;            ///< requests per wall second
  /// Every request sent was accounted for: a RESULT, a door shed, or a
  /// typed wire error — nothing vanished, nothing timed out.
  bool accounted = false;
};

/// The server-replay determinism leg: a journaled wire replay through one
/// admin session vs the offline replay of the same trace, fingerprints
/// compared live and after a cold recovery from the server's journal.
struct ServerReplayRecord {
  Trace trace;
  std::uint64_t offline_fp = 0, wire_fp = 0, recovered_fp = 0;
  bool wire_ok = false;     ///< served fingerprint == offline fingerprint
  bool recover_ok = false;  ///< recovered fingerprint == offline fingerprint
  double wall_seconds = 0.0;
  long long wire_results = 0;
};

/// Replays a trace through an admin RpcClient: the same submit order as
/// replay_trace, with a DRAIN frame at each tick-group boundary (the
/// server runs auto_drain=false, so drains happen only at the barriers —
/// the wire twin of the offline replay loop). Returns the result count.
long long admin_wire_replay(int port, std::uint64_t auth_seed,
                            const Trace& trace, StreamLibrary& lib,
                            const std::map<int, int>& priorities) {
  rpc::RpcClientOptions copts;
  copts.port = port;
  copts.tenant = rpc::kAdminTenant;
  copts.auth_seed = auth_seed;
  rpc::RpcClient admin(copts);
  for (const auto& [tenant, prio] : priorities) {
    admin.set_priority(tenant, prio);
  }
  long long results = 0;
  std::vector<RequestId> request_of_event(trace.events.size(), kNoRequest);
  std::size_t next = 0;
  while (next < trace.events.size()) {
    const int tick = trace.events[next].tick;
    while (next < trace.events.size() && trace.events[next].tick == tick) {
      const TraceEvent& e = trace.events[next];
      switch (e.kind) {
        case TraceEvent::Kind::kLoad:
          request_of_event[next] = admin.send_load(
              lib.stream_for(
                  trace.kinds[static_cast<std::size_t>(e.task_kind)]),
              e.tenant);
          break;
        case TraceEvent::Kind::kUnload:
          request_of_event[next] = admin.send_unload(
              request_of_event[static_cast<std::size_t>(e.ref)], e.tenant);
          break;
        case TraceEvent::Kind::kRelocate:
          request_of_event[next] = admin.send_relocate(
              request_of_event[static_cast<std::size_t>(e.ref)], e.tenant);
          break;
      }
      ++next;
    }
    results += static_cast<long long>(admin.drain().size());
  }
  return results;
}

/// Prints a typed failure (--json object on stdout, or a stderr line) and
/// returns the CLI exit code for it — the same contract vbsdecode uses.
int typed_exit(const VbsError& e, bool json) {
  if (json) {
    std::printf(
        "{\n  \"error\": {\"code\": \"%s\", \"errc\": %d, "
        "\"message\": \"%s\"}\n}\n",
        to_string(e.code()), static_cast<int>(e.code()),
        json_escape(e.what()).c_str());
  } else {
    std::fprintf(stderr, "rtc_bench: %s [%s]\n", e.what(),
                 to_string(e.code()));
  }
  return exit_code_for(e.code());
}

/// --serve: front a fresh service on a loopback socket until an admin
/// session sends SHUTDOWN.
int run_serve(const CliArgs& args, bool json) {
  try {
    ArchSpec arch;
    arch.chan_width = 8;
    ServiceOptions so;
    so.threads = static_cast<int>(args.int_or("--threads", 2));
    so.queue_limit = static_cast<std::size_t>(args.int_or("--queue-limit", 8));
    so.deadline_ticks = args.int_or("--deadline", 12);
    ReconfigService svc(arch, 16, 12, so);
    rpc::RpcServerOptions sopts;
    sopts.port = static_cast<int>(args.int_or("--port", 0));
    sopts.auth_seed =
        static_cast<std::uint64_t>(args.int_or("--auth-seed", 1));
    rpc::RpcServer server(&svc, sopts);
    const int port = server.start();
    if (const auto pf = args.value("--port-file")) {
      FILE* f = std::fopen(pf->c_str(), "w");
      if (f == nullptr) throw std::runtime_error("cannot write " + *pf);
      std::fprintf(f, "%d\n", port);
      std::fclose(f);
    }
    std::printf(
        "rtc_bench: serving vbs.rpc.v1 on 127.0.0.1:%d "
        "(an admin SHUTDOWN frame stops it)\n",
        port);
    std::fflush(stdout);
    while (server.running()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    server.stop();
    const rpc::ServerCounters c = server.counters();
    if (json) {
      std::printf(
          "{\n  \"serve\": {\"port\": %d, \"accepted\": %llu, "
          "\"frames_in\": %llu, \"frames_out\": %llu, \"door_sheds\": %llu, "
          "\"handshake_rejects\": %llu, \"proto_errors\": %llu, "
          "\"fingerprint\": %llu}\n}\n",
          port, static_cast<unsigned long long>(c.accepted),
          static_cast<unsigned long long>(c.frames_in),
          static_cast<unsigned long long>(c.frames_out),
          static_cast<unsigned long long>(c.door_sheds),
          static_cast<unsigned long long>(c.handshake_rejects),
          static_cast<unsigned long long>(c.proto_errors),
          static_cast<unsigned long long>(svc.state_fingerprint()));
    } else {
      std::printf(
          "rtc_bench: server stopped: %llu connections, %llu frames in, "
          "%llu out, fingerprint %016llx\n",
          static_cast<unsigned long long>(c.accepted),
          static_cast<unsigned long long>(c.frames_in),
          static_cast<unsigned long long>(c.frames_out),
          static_cast<unsigned long long>(svc.state_fingerprint()));
    }
    return 0;
  } catch (const VbsError& e) {
    return typed_exit(e, json);
  }
}

/// --connect: admin-connect to a running server for a ping + stat, or a
/// graceful remote shutdown with --shutdown.
int run_connect(const CliArgs& args, bool json) {
  try {
    rpc::RpcClientOptions copts;
    copts.port = static_cast<int>(args.int_or("--port", 0));
    if (copts.port <= 0) throw std::runtime_error("--connect needs --port N");
    copts.tenant = rpc::kAdminTenant;
    copts.auth_seed =
        static_cast<std::uint64_t>(args.int_or("--auth-seed", 1));
    rpc::RpcClient admin(copts);
    admin.ping();
    const rpc::StatReplyMsg s = admin.stat();
    const bool shutdown = args.has_flag("--shutdown");
    if (shutdown) admin.shutdown();
    if (json) {
      std::printf(
          "{\n  \"connect\": {\"port\": %d, \"fingerprint\": %llu, "
          "\"now_ticks\": %lld, \"pending\": %llu, \"loads\": %lld, "
          "\"unloads\": %lld, \"relocates\": %lld, \"shed\": %lld, "
          "\"deadline_misses\": %lld, \"failed\": %lld, \"rejected\": %lld, "
          "\"shutdown\": %s}\n}\n",
          copts.port, static_cast<unsigned long long>(s.fingerprint),
          static_cast<long long>(s.now_ticks),
          static_cast<unsigned long long>(s.pending),
          static_cast<long long>(s.loads), static_cast<long long>(s.unloads),
          static_cast<long long>(s.relocates), static_cast<long long>(s.shed),
          static_cast<long long>(s.deadline_misses),
          static_cast<long long>(s.failed), static_cast<long long>(s.rejected),
          shutdown ? "true" : "false");
    } else {
      std::printf(
          "rtc_bench: server at :%d alive: fingerprint %016llx, tick %lld, "
          "%llu pending, %lld loads%s\n",
          copts.port, static_cast<unsigned long long>(s.fingerprint),
          static_cast<long long>(s.now_ticks),
          static_cast<unsigned long long>(s.pending),
          static_cast<long long>(s.loads),
          shutdown ? "; shutdown sent" : "");
    }
    return 0;
  } catch (const VbsError& e) {
    return typed_exit(e, json);
  }
}

/// --server-smoke: the CI loopback gate. In-process server, a
/// --connections closed loop over a small bursty trace, then a remote
/// shutdown; exits 0 only on a fully accounted run and a clean stop.
int run_server_smoke(const CliArgs& args, bool json) {
  try {
    ArchSpec arch;
    arch.chan_width = 8;
    TraceGenOptions gopts;
    gopts.pattern = ArrivalPattern::kBursty;
    gopts.events = static_cast<int>(args.int_or("--events", 96));
    gopts.ticks = 24;
    gopts.kinds = 3;
    gopts.fabric_w = 12;
    gopts.fabric_h = 10;
    gopts.seed = static_cast<std::uint64_t>(args.int_or("--seed", 1));
    const Trace t = generate_trace(gopts);
    StreamLibrary lib(arch);
    std::vector<BitVector> streams;
    for (const TraceTaskKind& k : t.kinds) streams.push_back(lib.stream_for(k));

    ServiceOptions so;
    so.threads = static_cast<int>(args.int_or("--threads", 2));
    ReconfigService svc(arch, t.fabric_w, t.fabric_h, so);
    rpc::RpcServerOptions sopts;
    sopts.auth_seed =
        static_cast<std::uint64_t>(args.int_or("--auth-seed", 1));
    rpc::RpcServer server(&svc, sopts);
    const int port = server.start();

    rpc::LoadGenOptions lopts;
    lopts.port = port;
    lopts.connections =
        static_cast<int>(args.int_or("--connections", 32));
    lopts.auth_seed = sopts.auth_seed;
    lopts.trace = t;
    lopts.kind_streams = streams;
    const rpc::LoadGenReport report = rpc::run_loadgen(lopts);

    {  // remote shutdown through an admin session: the clean-stop gate
      rpc::RpcClientOptions copts;
      copts.port = port;
      copts.tenant = rpc::kAdminTenant;
      copts.auth_seed = sopts.auth_seed;
      rpc::RpcClient admin(copts);
      admin.shutdown();
    }
    for (int i = 0; i < 2500 && server.running(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const bool stopped = !server.running();
    server.stop();
    const rpc::ServerCounters c = server.counters();

    const bool accounted =
        report.results + report.door_sheds + report.wire_errors ==
        report.requests_sent;
    const bool ok = stopped && !report.timed_out && accounted &&
                    report.results > 0 && report.done > 0;
    std::printf(
        "rtc_bench: server smoke: %d connections, %lld requests, %lld "
        "results (%lld done), %llu accepted, clean shutdown %s: %s\n",
        lopts.connections, report.requests_sent, report.results, report.done,
        static_cast<unsigned long long>(c.accepted), stopped ? "yes" : "NO",
        ok ? "ok" : "FAIL");
    return ok ? 0 : 1;
  } catch (const VbsError& e) {
    return typed_exit(e, json);
  }
}

bool same_outcomes(const Replay& a, const Replay& b) {
  return a.config == b.config && same_evictions(a.evictions, b.evictions) &&
         a.statuses == b.statuses && a.latency_ticks == b.latency_ticks &&
         a.stats.shed == b.stats.shed && a.stats.retries == b.stats.retries &&
         a.stats.deadline_misses == b.stats.deadline_misses &&
         a.stats.faults_injected == b.stats.faults_injected;
}

void write_json(const std::string& path, const std::vector<TraceRecord>& recs,
                const std::vector<OverloadRecord>& over,
                const std::vector<RecoveryRecord>& recov,
                const std::vector<BreakdownRecord>& breakdown,
                const std::vector<ServerRecord>& servers,
                const std::vector<ServerReplayRecord>& server_replay,
                bool smoke, const ServiceOptions& sopts,
                const ServiceOptions& oopts, std::uint64_t seed) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"vbs.rtc_bench.v5\",\n");
  std::fprintf(f,
               "  \"options\": {\"smoke\": %s, \"policy\": \"%s\", "
               "\"threads\": %d, \"cache_bits\": %zu, \"evict_to_fit\": %s, "
               "\"max_batch\": %d, \"seed\": %llu},\n",
               smoke ? "true" : "false", sopts.policy.c_str(), sopts.threads,
               sopts.cache_capacity_bits, sopts.evict_to_fit ? "true" : "false",
               sopts.max_batch, static_cast<unsigned long long>(seed));
  std::fprintf(f,
               "  \"overload_options\": {\"queue_limit\": %zu, "
               "\"deadline_ticks\": %lld, \"retry_limit\": %d, "
               "\"retry_backoff_ticks\": %lld, \"faults\": \"%s\"},\n",
               oopts.queue_limit, oopts.deadline_ticks, oopts.retry_limit,
               oopts.retry_backoff_ticks, oopts.faults.spec().c_str());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"build\": %s,\n", build_info_json(2).c_str());
  std::fprintf(f, "  \"metrics\": %s,\n",
               telem::snapshot().to_json(2).c_str());
  std::fprintf(f, "  \"traces\": [\n");
  long long tot_events = 0, tot_warm = 0, tot_cold = 0, tot_evict = 0;
  long long tot_hits = 0, tot_lookups = 0;
  double tot_seconds = 0.0;
  bool all_det = true, all_wc = true;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const TraceRecord& r = recs[i];
    const Replay& w = r.warm;
    tot_events += static_cast<long long>(r.trace.events.size());
    tot_warm += w.stats.decode.nodes_expanded;
    tot_cold += r.cold_nodes;
    tot_evict += w.stats.task_evictions;
    tot_hits += w.cache_hits;
    tot_lookups += w.cache_hits + w.cache_misses;
    tot_seconds += w.drain_seconds;
    all_det &= r.deterministic;
    all_wc &= r.warm_equals_cold;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"fabric\": {\"w\": %d, \"h\": %d}, "
                 "\"events\": %zu, \"kinds\": %zu,\n",
                 r.trace.name.c_str(), r.trace.fabric_w, r.trace.fabric_h,
                 r.trace.events.size(), r.trace.kinds.size());
    std::fprintf(f,
                 "     \"requests\": {\"loads\": %lld, \"unloads\": %lld, "
                 "\"relocates\": %lld, \"done\": %lld, \"rejected\": %lld, "
                 "\"failed\": %lld, \"shed\": %lld, \"deadline_misses\": "
                 "%lld, \"retries\": %lld},\n",
                 w.stats.loads, w.stats.unloads, w.stats.relocates, w.done,
                 w.rejected, w.failed, w.shed, w.deadline_misses,
                 w.stats.retries);
    std::fprintf(f,
                 "     \"replay_seconds\": %.4f, \"throughput_rps\": %.0f, "
                 "\"load_latency_ms\": {\"p50\": %.3f, \"p99\": %.3f, "
                 "\"max\": %.3f},\n",
                 w.drain_seconds, r.throughput, r.p50_ms, r.p99_ms, r.max_ms);
    std::fprintf(f,
                 "     \"cache\": {\"hits\": %lld, \"misses\": %lld, "
                 "\"hit_rate\": %.3f, \"insertions\": %lld, \"evictions\": "
                 "%lld, \"size_bits\": %zu},\n",
                 w.cache_hits, w.cache_misses,
                 w.cache_hits + w.cache_misses > 0
                     ? static_cast<double>(w.cache_hits) /
                           static_cast<double>(w.cache_hits + w.cache_misses)
                     : 0.0,
                 w.cache_insertions, w.cache_evictions, w.cache_size_bits);
    std::fprintf(f,
                 "     \"warm_loads\": %lld, \"cold_loads\": %lld, "
                 "\"relocates_cached\": %lld, \"relocates_decoded\": %lld,\n",
                 w.stats.warm_loads, w.stats.cold_loads,
                 w.stats.relocates_cached, w.stats.relocates_decoded);
    std::fprintf(f,
                 "     \"decode_nodes_warm\": %lld, \"decode_nodes_cold\": "
                 "%lld, \"decode_node_ratio\": %.2f,\n",
                 w.stats.decode.nodes_expanded, r.cold_nodes,
                 w.stats.decode.nodes_expanded > 0
                     ? static_cast<double>(r.cold_nodes) /
                           static_cast<double>(w.stats.decode.nodes_expanded)
                     : 0.0);
    std::fprintf(f,
                 "     \"task_evictions\": %lld, \"fragmentation_avg\": %.3f, "
                 "\"fragmentation_final\": %.3f, \"occupancy_final\": %.3f,\n",
                 w.stats.task_evictions,
                 w.frag_samples > 0 ? w.frag_sum / w.frag_samples : 0.0,
                 w.frag_final, w.occupancy_final);
    std::fprintf(f,
                 "     \"warm_equals_cold_config\": %s, \"determinism\": "
                 "{\"thread_counts\": [1, 2, %d], \"identical\": %s}}%s\n",
                 r.warm_equals_cold ? "true" : "false", sopts.threads,
                 r.deterministic ? "true" : "false",
                 i + 1 < recs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"overload\": [\n");
  bool all_over = true;
  for (std::size_t i = 0; i < over.size(); ++i) {
    const OverloadRecord& r = over[i];
    const Replay& w = r.run;
    all_over &= r.deterministic;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %zu, \"kinds\": %zu, "
                 "\"done\": %lld, \"rejected\": %lld, \"failed\": %lld, "
                 "\"shed\": %lld, \"deadline_misses\": %lld, \"retries\": "
                 "%lld, \"faults_injected\": %lld, \"determinism_ok\": %s,\n",
                 r.trace.name.c_str(), r.trace.events.size(),
                 r.trace.kinds.size(), w.done, w.rejected, w.failed, w.shed,
                 w.deadline_misses, w.stats.retries, w.stats.faults_injected,
                 r.deterministic ? "true" : "false");
    std::fprintf(f, "     \"tenants\": [");
    bool first = true;
    for (const auto& [tenant, ts] : w.tenants) {
      const auto pct = r.tick_percentiles.find(tenant);
      std::fprintf(
          f,
          "%s\n      {\"tenant\": %d, \"priority\": %d, \"submitted\": "
          "%lld, \"done\": %lld, \"rejected\": %lld, \"failed\": %lld, "
          "\"shed\": %lld, \"deadline_misses\": %lld, \"retries\": %lld, "
          "\"latency_ticks\": {\"p50\": %.1f, \"p99\": %.1f}}",
          first ? "" : ",", tenant, ts.priority, ts.submitted, ts.done,
          ts.rejected, ts.failed, ts.shed, ts.deadline_misses, ts.retries,
          pct != r.tick_percentiles.end() ? pct->second.first : 0.0,
          pct != r.tick_percentiles.end() ? pct->second.second : 0.0);
      first = false;
    }
    std::fprintf(f, "]}%s\n", i + 1 < over.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"recovery\": [\n");
  bool all_recov = true;
  for (std::size_t i = 0; i < recov.size(); ++i) {
    const RecoveryRecord& r = recov[i];
    all_recov &= r.fingerprint_ok && r.journal_transparent;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"events\": %zu, \"journal_bytes\": %llu, "
        "\"wal_records\": %lld, \"admits\": %lld, \"commits\": %lld, "
        "\"epoch\": %llu,\n",
        r.trace.name.c_str(), r.trace.events.size(),
        static_cast<unsigned long long>(r.info.journal_bytes), r.info.records,
        r.info.admits, r.info.commits,
        static_cast<unsigned long long>(r.info.epoch));
    std::fprintf(
        f,
        "     \"baseline_seconds\": %.4f, \"journaled_seconds\": %.4f, "
        "\"journal_overhead\": %.3f, \"recover_seconds\": %.4f, "
        "\"replay_records_per_sec\": %.0f,\n",
        r.baseline_seconds, r.journaled_seconds,
        r.baseline_seconds > 0 ? r.journaled_seconds / r.baseline_seconds
                               : 0.0,
        r.recover_seconds, r.replay_rps);
    std::fprintf(f,
                 "     \"journal_transparent\": %s, \"fingerprint_ok\": "
                 "%s}%s\n",
                 r.journal_transparent ? "true" : "false",
                 r.fingerprint_ok ? "true" : "false",
                 i + 1 < recov.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"latency_breakdown\": [\n");
  bool all_bd = true;
  for (std::size_t i = 0; i < breakdown.size(); ++i) {
    const BreakdownRecord& r = breakdown[i];
    all_bd &= r.identity_ok && r.spans_ok && r.pairing_error.empty();
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"identity_ok\": %s, "
                 "\"spans_match_stats\": %s, \"event_pairing_ok\": %s,\n",
                 r.trace.name.c_str(), r.identity_ok ? "true" : "false",
                 r.spans_ok ? "true" : "false",
                 r.pairing_error.empty() ? "true" : "false");
    std::fprintf(f, "     \"tenants\": [");
    bool first = true;
    for (const auto& [tenant, ts] : r.run.tenants) {
      std::fprintf(f,
                   "%s\n      {\"tenant\": %d, \"latency_ticks\": %lld, "
                   "\"queue_wait_ticks\": %lld, \"backoff_ticks\": %lld, "
                   "\"spike_ticks\": %lld, \"exec_ticks\": %lld}",
                   first ? "" : ",", tenant, ts.latency_ticks,
                   ts.queue_wait_ticks, ts.backoff_ticks, ts.spike_ticks,
                   ts.exec_ticks);
      first = false;
    }
    std::fprintf(f, "]}%s\n", i + 1 < breakdown.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"server\": [\n");
  bool all_srv = true;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const ServerRecord& r = servers[i];
    const rpc::LoadGenReport& g = r.report;
    all_srv &= r.accounted;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"connections\": %d, \"events\": %zu, "
        "\"requests\": %lld, \"acks\": %lld, \"results\": %lld,\n",
        r.trace.name.c_str(), r.connections, r.trace.events.size(),
        g.requests_sent, g.acks, g.results);
    std::fprintf(
        f,
        "     \"done\": %lld, \"shed\": %lld, \"rejected\": %lld, "
        "\"failed\": %lld, \"deadline\": %lld, \"door_sheds\": %lld, "
        "\"wire_errors\": %lld, \"shed_rate\": %.3f,\n",
        g.done, g.shed, g.rejected, g.failed, g.deadline, g.door_sheds,
        g.wire_errors, r.shed_rate);
    std::fprintf(
        f,
        "     \"wall_seconds\": %.4f, \"throughput_rps\": %.0f, "
        "\"latency_ms\": {\"p50\": %.3f, \"p99\": %.3f},\n",
        g.wall_seconds, r.throughput, r.p50_ms, r.p99_ms);
    std::fprintf(
        f,
        "     \"server_counters\": {\"accepted\": %llu, \"frames_in\": %llu, "
        "\"frames_out\": %llu, \"door_sheds\": %llu, \"reads_paused\": "
        "%llu}, \"accounted\": %s}%s\n",
        static_cast<unsigned long long>(r.counters.accepted),
        static_cast<unsigned long long>(r.counters.frames_in),
        static_cast<unsigned long long>(r.counters.frames_out),
        static_cast<unsigned long long>(r.counters.door_sheds),
        static_cast<unsigned long long>(r.counters.reads_paused),
        r.accounted ? "true" : "false", i + 1 < servers.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"server_replay\": [\n");
  bool all_sr = true;
  for (std::size_t i = 0; i < server_replay.size(); ++i) {
    const ServerReplayRecord& r = server_replay[i];
    all_sr &= r.wire_ok && r.recover_ok;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"events\": %zu, \"wire_results\": %lld, "
        "\"wall_seconds\": %.4f, \"offline_fingerprint\": %llu, "
        "\"wire_fingerprint\": %llu, \"recovered_fingerprint\": %llu, "
        "\"wire_matches_offline\": %s, \"recover_matches_offline\": %s}%s\n",
        r.trace.name.c_str(), r.trace.events.size(), r.wire_results,
        r.wall_seconds, static_cast<unsigned long long>(r.offline_fp),
        static_cast<unsigned long long>(r.wire_fp),
        static_cast<unsigned long long>(r.recovered_fp),
        r.wire_ok ? "true" : "false", r.recover_ok ? "true" : "false",
        i + 1 < server_replay.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"summary\": {\"traces\": %zu, \"events\": %lld, "
      "\"replay_seconds\": %.4f, \"throughput_rps\": %.0f, "
      "\"decode_nodes_warm\": %lld, \"decode_nodes_cold\": %lld, "
      "\"decode_node_ratio\": %.2f, \"cache_hit_rate\": %.3f, "
      "\"task_evictions\": %lld, \"determinism_ok\": %s, "
      "\"warm_equals_cold_ok\": %s, \"overload_ok\": %s, "
      "\"recovery_ok\": %s, \"breakdown_ok\": %s, \"server_ok\": %s, "
      "\"server_replay_ok\": %s}\n",
      recs.size(), tot_events, tot_seconds,
      tot_seconds > 0 ? static_cast<double>(tot_events) / tot_seconds : 0.0,
      tot_warm, tot_cold,
      tot_warm > 0 ? static_cast<double>(tot_cold) / static_cast<double>(tot_warm)
                   : 0.0,
      tot_lookups > 0
          ? static_cast<double>(tot_hits) / static_cast<double>(tot_lookups)
          : 0.0,
      tot_evict, all_det ? "true" : "false", all_wc ? "true" : "false",
      all_over ? "true" : "false", all_recov ? "true" : "false",
      all_bd ? "true" : "false", all_srv ? "true" : "false",
      all_sr ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv,
               {"--trace", "--policy", "--threads", "--cache-bits",
                "--events", "--ticks", "--seed", "--out", "--queue-limit",
                "--deadline", "--faults", "--trace-out", "--connections",
                "--port", "--port-file", "--auth-seed"},
               {"--smoke", "--no-evict", "--metrics", "--serve", "--connect",
                "--server-smoke", "--shutdown", "--json"});
  const bool json = args.has_flag("--json");
  // Standalone network modes: typed exit codes, no bench suite.
  if (args.has_flag("--serve")) return run_serve(args, json);
  if (args.has_flag("--connect")) return run_connect(args, json);
  if (args.has_flag("--server-smoke")) return run_server_smoke(args, json);
  // Handled directly (not via TelemetryCli): the breakdown legs slice the
  // event buffer with take_trace(), so the file is written from the
  // accumulated slices at the end.
  const std::string trace_out = args.value_or("--trace-out", "");
  const bool want_metrics = args.has_flag("--metrics");
  telem::set_enabled(true);  // harness JSON embeds the counters
  const bool smoke = args.has_flag("--smoke");
  ServiceOptions sopts;
  sopts.policy = args.value_or("--policy", "first_fit");
  sopts.threads = static_cast<int>(args.int_or("--threads", 8));
  sopts.cache_capacity_bits = static_cast<std::size_t>(
      args.int_or("--cache-bits",
                  static_cast<long long>(sopts.cache_capacity_bits)));
  sopts.evict_to_fit = !args.has_flag("--no-evict");
  const auto seed = static_cast<std::uint64_t>(args.int_or("--seed", 1));
  const std::string out = args.value_or("--out", "BENCH_rtc.json");

  // The overload legs: bounded queue, modeled-tick deadlines, retries and
  // a deterministic fault plan on top of the headline options.
  ServiceOptions oopts = sopts;
  oopts.queue_limit =
      static_cast<std::size_t>(args.int_or("--queue-limit", 8));
  oopts.deadline_ticks = args.int_or("--deadline", 12);
  oopts.faults = FaultPlan::parse(args.value_or(
      "--faults", "seed=9,decode=0.05,alloc=0.05,latency=0.1x6"));

  ArchSpec arch;
  arch.chan_width = 8;  // small tasks; W=8 keeps the library flow fast

  // The bundled suite: one trace per arrival pattern, or a caller trace.
  std::vector<Trace> traces;
  if (const auto path = args.value("--trace")) {
    traces.push_back(read_trace_file(*path));
  } else {
    TraceGenOptions gopts;
    gopts.events = static_cast<int>(args.int_or("--events", smoke ? 48 : 160));
    gopts.ticks = static_cast<int>(args.int_or("--ticks", smoke ? 24 : 64));
    gopts.kinds = smoke ? 4 : 6;
    gopts.seed = seed;
    for (const ArrivalPattern p :
         {ArrivalPattern::kSteady, ArrivalPattern::kBursty,
          ArrivalPattern::kDiurnal, ArrivalPattern::kChurn}) {
      gopts.pattern = p;
      traces.push_back(generate_trace(gopts));
    }
  }

  std::printf("building task libraries (offline flow, shared across traces)"
              "...\n");
  StreamLibrary lib(arch);
  for (const Trace& t : traces) {
    for (const TraceTaskKind& k : t.kinds) lib.stream_for(k);
  }

  // Adversarial overload traces (skipped when replaying a caller trace).
  std::vector<Trace> overload_traces;
  if (!args.value("--trace")) {
    TraceGenOptions gopts;
    gopts.events = static_cast<int>(args.int_or("--events", smoke ? 64 : 220));
    gopts.ticks = static_cast<int>(args.int_or("--ticks", smoke ? 16 : 48));
    gopts.kinds = smoke ? 4 : 6;
    gopts.seed = seed;
    for (const ArrivalPattern p :
         {ArrivalPattern::kFlashCrowd, ArrivalPattern::kUniqueFlood}) {
      gopts.pattern = p;
      overload_traces.push_back(generate_trace(gopts));
    }
    for (const Trace& t : overload_traces) {
      for (const TraceTaskKind& k : t.kinds) lib.stream_for(k);
    }
  }

  std::vector<TraceRecord> recs;
  for (const Trace& t : traces) {
    TraceRecord rec;
    rec.trace = t;
    std::printf("replaying %-8s (%zu events, %dx%d fabric)...\n",
                t.name.c_str(), t.events.size(), t.fabric_w, t.fabric_h);
    rec.warm = replay_trace(t, lib, arch, sopts);

    ServiceOptions cold = sopts;
    cold.cache_capacity_bits = 0;
    const Replay cold_run = replay_trace(t, lib, arch, cold);
    rec.cold_nodes = cold_run.stats.decode.nodes_expanded;
    rec.warm_equals_cold = rec.warm.config == cold_run.config &&
                           same_evictions(rec.warm.evictions,
                                          cold_run.evictions);

    rec.deterministic = true;
    for (const int threads : {1, 2}) {
      ServiceOptions d = sopts;
      d.threads = threads;
      const Replay run = replay_trace(t, lib, arch, d);
      rec.deterministic &= run.config == rec.warm.config &&
                           same_evictions(run.evictions, rec.warm.evictions);
    }

    rec.p50_ms = 1e3 * percentile(rec.warm.load_latencies, 0.50);
    rec.p99_ms = 1e3 * percentile(rec.warm.load_latencies, 0.99);
    rec.max_ms = 1e3 * percentile(rec.warm.load_latencies, 1.0);
    rec.throughput =
        rec.warm.drain_seconds > 0
            ? static_cast<double>(t.events.size()) / rec.warm.drain_seconds
            : 0.0;
    recs.push_back(std::move(rec));
  }

  // Overload legs: tenant 0 is the high-priority background workload,
  // tenant 1 the flood. Replayed at --threads and re-checked at 1 and 2:
  // statuses, tick latencies, sheds, retries and the final configuration
  // must be byte-identical — the fault schedule is part of the model.
  const std::map<int, int> priorities = {{0, 10}, {1, 0}};
  std::vector<OverloadRecord> over;
  for (const Trace& t : overload_traces) {
    OverloadRecord rec;
    rec.trace = t;
    std::printf("replaying %-12s overload leg (%zu events, queue %zu, "
                "deadline %lld)...\n",
                t.name.c_str(), t.events.size(), oopts.queue_limit,
                oopts.deadline_ticks);
    rec.run = replay_trace(t, lib, arch, oopts, priorities);
    rec.deterministic = true;
    for (const int threads : {1, 2}) {
      ServiceOptions d = oopts;
      d.threads = threads;
      const Replay run = replay_trace(t, lib, arch, d, priorities);
      rec.deterministic &= same_outcomes(run, rec.run);
    }
    for (const auto& [tenant, ticks] : rec.run.tenant_done_ticks) {
      rec.tick_percentiles[tenant] = {percentile(ticks, 0.50),
                                      percentile(ticks, 0.99)};
    }
    over.push_back(std::move(rec));
  }

  // Recovery legs: the overload traces once more, this time journaled,
  // then rebuilt from the journal directory alone. Journaling must not
  // perturb the replay and the cold recovery must fingerprint identically.
  std::vector<RecoveryRecord> recov;
  if (!overload_traces.empty()) {
    namespace fs = std::filesystem;
    const fs::path jroot =
        fs::temp_directory_path() /
        ("vbs_rtc_bench_" +
         std::to_string(static_cast<long long>(::getpid())));
    for (const Trace& t : overload_traces) {
      RecoveryRecord rec;
      rec.trace = t;
      std::printf("replaying %-12s recovery leg (journaled, then cold "
                  "recover)...\n",
                  t.name.c_str());
      const fs::path jdir = jroot / t.name;
      fs::remove_all(jdir);
      std::uint64_t fp_live = 0, fp_journaled = 0;
      rec.baseline_seconds =
          replay_trace(t, lib, arch, oopts, priorities, {}, &fp_live)
              .drain_seconds;
      rec.journaled_seconds =
          replay_trace(t, lib, arch, oopts, priorities, jdir.string(),
                       &fp_journaled)
              .drain_seconds;
      rec.journal_transparent = fp_journaled == fp_live;
      const std::uint64_t t0 = telem::now_ns();
      const std::unique_ptr<ReconfigService> back =
          ReconfigService::recover(jdir.string(), oopts.threads, &rec.info);
      rec.recover_seconds = telem::seconds_since(t0);
      rec.replay_rps =
          rec.recover_seconds > 0
              ? static_cast<double>(rec.info.records) / rec.recover_seconds
              : 0.0;
      rec.fingerprint_ok = back->state_fingerprint() == fp_journaled;
      recov.push_back(std::move(rec));
    }
    fs::remove_all(jroot);
  }

  // Latency-decomposition legs: everything traced so far moves to
  // all_events, then each overload trace replays once more with its own
  // clean slice of the event buffer.
  std::vector<telem::TraceEvent> all_events = telem::take_trace();
  std::vector<BreakdownRecord> breakdown;
  for (const Trace& t : overload_traces) {
    BreakdownRecord rec;
    rec.trace = t;
    std::printf("replaying %-12s breakdown leg (span-model check)...\n",
                t.name.c_str());
    rec.run = replay_trace(t, lib, arch, oopts, priorities);
    std::vector<telem::TraceEvent> ev = telem::take_trace();
    rec.identity_ok = rec.run.tick_identity_ok;
    rec.pairing_error = telem::check_event_pairing(ev);
    // Sum the modeled-tick spans per tenant lane: the parent "request"
    // spans and each phase span, in nanoseconds (1 tick == 1000 ns).
    std::map<std::uint64_t, long long> request_ns;
    std::map<std::uint64_t, std::map<std::string, long long>> phase_ns;
    for (const telem::TraceEvent& e : ev) {
      if (e.pid != telem::kPidTicks) continue;
      if (e.name == "request") {
        request_ns[e.tid] += static_cast<long long>(e.dur_ns);
      } else {
        phase_ns[e.tid][e.name] += static_cast<long long>(e.dur_ns);
      }
    }
    rec.spans_ok = true;
    for (const auto& [tenant, ts] : rec.run.tenants) {
      const auto tid = static_cast<std::uint64_t>(tenant);
      const auto phase = [&](const char* name) {
        const auto it = phase_ns.find(tid);
        if (it == phase_ns.end()) return 0LL;
        const auto jt = it->second.find(name);
        return jt == it->second.end() ? 0LL : jt->second;
      };
      rec.spans_ok &= request_ns[tid] == ts.latency_ticks * 1000 &&
                      phase("queue_wait") == ts.queue_wait_ticks * 1000 &&
                      phase("backoff") == ts.backoff_ticks * 1000 &&
                      phase("spike") == ts.spike_ticks * 1000 &&
                      phase("exec") == ts.exec_ticks * 1000;
    }
    all_events.insert(all_events.end(), ev.begin(), ev.end());
    breakdown.push_back(std::move(rec));
  }

  // Networked legs: the same service behind the RPC front end on a
  // loopback socket, hammered by the closed-loop load generator at
  // --connections concurrent authenticated sessions.
  const int connections =
      static_cast<int>(args.int_or("--connections", smoke ? 32 : 256));
  std::vector<ServerRecord> servers;
  std::vector<ServerReplayRecord> server_replay;
  if (!args.value("--trace")) {
    TraceGenOptions gopts;
    gopts.events = static_cast<int>(args.int_or("--events", smoke ? 64 : 220));
    gopts.ticks = static_cast<int>(args.int_or("--ticks", smoke ? 16 : 48));
    gopts.kinds = smoke ? 4 : 6;
    gopts.seed = seed;
    // The service behind the wire runs the overload admission policy
    // (bounded queue + deadlines) but no model fault plan: the latency
    // numbers measure the wire and the service, not injected faults.
    ServiceOptions wopts = sopts;
    wopts.queue_limit = oopts.queue_limit;
    wopts.deadline_ticks = oopts.deadline_ticks;
    for (const ArrivalPattern p :
         {ArrivalPattern::kSteady, ArrivalPattern::kBursty,
          ArrivalPattern::kFlashCrowd}) {
      gopts.pattern = p;
      const Trace t = generate_trace(gopts);
      std::vector<BitVector> streams;
      for (const TraceTaskKind& k : t.kinds) {
        streams.push_back(lib.stream_for(k));
      }
      ServerRecord rec;
      rec.trace = t;
      rec.connections = connections;
      std::printf("serving   %-12s to %d closed-loop connections "
                  "(%zu events)...\n",
                  t.name.c_str(), connections, t.events.size());
      ReconfigService svc(arch, t.fabric_w, t.fabric_h, wopts);
      rpc::RpcServer server(&svc, rpc::RpcServerOptions{});
      const int port = server.start();
      rpc::LoadGenOptions lopts;
      lopts.port = port;
      lopts.connections = connections;
      lopts.trace = t;
      lopts.kind_streams = streams;
      rec.report = rpc::run_loadgen(lopts);
      server.stop();
      rec.counters = server.counters();
      rec.p50_ms = percentile(rec.report.latencies_ms, 0.50);
      rec.p99_ms = percentile(rec.report.latencies_ms, 0.99);
      rec.shed_rate =
          rec.report.results > 0
              ? static_cast<double>(rec.report.shed) /
                    static_cast<double>(rec.report.results)
              : 0.0;
      rec.throughput =
          rec.report.wall_seconds > 0
              ? static_cast<double>(rec.report.requests_sent) /
                    rec.report.wall_seconds
              : 0.0;
      rec.accounted =
          !rec.report.timed_out && rec.report.results > 0 &&
          rec.report.results + rec.report.door_sheds +
                  rec.report.wire_errors ==
              rec.report.requests_sent;
      servers.push_back(std::move(rec));
    }

    // The server-replay leg: the flash_crowd overload trace once more,
    // through a *journaled* server via one admin session, fingerprinted
    // against the offline replay and against a cold journal recovery.
    if (!overload_traces.empty()) {
      const Trace& t = overload_traces.front();
      ServerReplayRecord rec;
      rec.trace = t;
      std::printf("replaying %-12s server-replay leg (journaled wire "
                  "replay vs offline)...\n",
                  t.name.c_str());
      replay_trace(t, lib, arch, wopts, priorities, {}, &rec.offline_fp);

      namespace fs = std::filesystem;
      const fs::path jdir =
          fs::temp_directory_path() /
          ("vbs_rtc_bench_srv_" +
           std::to_string(static_cast<long long>(::getpid())));
      fs::remove_all(jdir);
      {
        ReconfigService svc(arch, t.fabric_w, t.fabric_h, wopts);
        svc.open_journal(jdir.string());
        rpc::RpcServerOptions ropts;
        ropts.auto_drain = false;  // drains only at the admin's barriers
        rpc::RpcServer server(&svc, ropts);
        const int port = server.start();
        const std::uint64_t t0 = telem::now_ns();
        rec.wire_results =
            admin_wire_replay(port, ropts.auth_seed, t, lib, priorities);
        rec.wall_seconds = telem::seconds_since(t0);
        server.stop();
        rec.wire_fp = svc.state_fingerprint();
      }
      rec.recovered_fp =
          ReconfigService::recover(jdir.string())->state_fingerprint();
      fs::remove_all(jdir);
      rec.wire_ok = rec.wire_fp == rec.offline_fp;
      rec.recover_ok = rec.recovered_fp == rec.offline_fp;
      server_replay.push_back(std::move(rec));
    }
  }

  TablePrinter table({"trace", "events", "rps", "p50 ms", "p99 ms",
                      "hit rate", "nodes w/c", "evict", "frag", "det"});
  for (const TraceRecord& r : recs) {
    const long long lookups = r.warm.cache_hits + r.warm.cache_misses;
    table.add_row(
        {r.trace.name, TablePrinter::fmt_int(static_cast<long long>(
                           r.trace.events.size())),
         TablePrinter::fmt(r.throughput, 0), TablePrinter::fmt(r.p50_ms, 2),
         TablePrinter::fmt(r.p99_ms, 2),
         TablePrinter::fmt(lookups > 0 ? static_cast<double>(r.warm.cache_hits) /
                                             static_cast<double>(lookups)
                                       : 0.0,
                           2),
         TablePrinter::fmt_int(r.warm.stats.decode.nodes_expanded) + "/" +
             TablePrinter::fmt_int(r.cold_nodes),
         TablePrinter::fmt_int(r.warm.stats.task_evictions),
         TablePrinter::fmt(r.warm.frag_samples > 0
                               ? r.warm.frag_sum / r.warm.frag_samples
                               : 0.0,
                           2),
         r.deterministic && r.warm_equals_cold ? "ok" : "FAIL"});
  }
  table.print();

  if (!over.empty()) {
    std::printf("\noverload legs (latency in modeled ticks):\n");
    TablePrinter otable({"trace", "tenant", "prio", "submitted", "done",
                         "shed", "deadline", "retries", "p50 t", "p99 t"});
    for (const OverloadRecord& r : over) {
      for (const auto& [tenant, ts] : r.run.tenants) {
        const auto pct = r.tick_percentiles.find(tenant);
        otable.add_row(
            {r.trace.name, TablePrinter::fmt_int(tenant),
             TablePrinter::fmt_int(ts.priority),
             TablePrinter::fmt_int(ts.submitted),
             TablePrinter::fmt_int(ts.done), TablePrinter::fmt_int(ts.shed),
             TablePrinter::fmt_int(ts.deadline_misses),
             TablePrinter::fmt_int(ts.retries),
             TablePrinter::fmt(
                 pct != r.tick_percentiles.end() ? pct->second.first : 0.0, 1),
             TablePrinter::fmt(
                 pct != r.tick_percentiles.end() ? pct->second.second : 0.0,
                 1)});
      }
    }
    otable.print();
  }

  if (!recov.empty()) {
    std::printf("\nrecovery legs (journaled replay + cold recover):\n");
    TablePrinter rtable({"trace", "wal bytes", "records", "admits",
                         "commits", "jrnl ovh", "recover ms", "rec/s",
                         "ok"});
    for (const RecoveryRecord& r : recov) {
      rtable.add_row(
          {r.trace.name,
           TablePrinter::fmt_int(
               static_cast<long long>(r.info.journal_bytes)),
           TablePrinter::fmt_int(r.info.records),
           TablePrinter::fmt_int(r.info.admits),
           TablePrinter::fmt_int(r.info.commits),
           TablePrinter::fmt(r.baseline_seconds > 0
                                 ? r.journaled_seconds / r.baseline_seconds
                                 : 0.0,
                             2),
           TablePrinter::fmt(1e3 * r.recover_seconds, 2),
           TablePrinter::fmt(r.replay_rps, 0),
           r.fingerprint_ok && r.journal_transparent ? "ok" : "FAIL"});
    }
    rtable.print();
  }

  if (!breakdown.empty()) {
    std::printf("\nlatency decomposition (per-tenant tick sums):\n");
    TablePrinter btable({"trace", "tenant", "latency", "queue", "backoff",
                         "spike", "exec", "spans"});
    for (const BreakdownRecord& r : breakdown) {
      for (const auto& [tenant, ts] : r.run.tenants) {
        btable.add_row(
            {r.trace.name, TablePrinter::fmt_int(tenant),
             TablePrinter::fmt_int(ts.latency_ticks),
             TablePrinter::fmt_int(ts.queue_wait_ticks),
             TablePrinter::fmt_int(ts.backoff_ticks),
             TablePrinter::fmt_int(ts.spike_ticks),
             TablePrinter::fmt_int(ts.exec_ticks),
             r.identity_ok && r.spans_ok && r.pairing_error.empty()
                 ? "ok"
                 : "FAIL"});
      }
    }
    btable.print();
  }

  if (!servers.empty()) {
    std::printf("\nnetworked legs (closed-loop loopback, wall latency):\n");
    TablePrinter stable({"trace", "conns", "requests", "results", "done",
                         "shed", "rps", "p50 ms", "p99 ms", "ok"});
    for (const ServerRecord& r : servers) {
      stable.add_row(
          {r.trace.name, TablePrinter::fmt_int(r.connections),
           TablePrinter::fmt_int(r.report.requests_sent),
           TablePrinter::fmt_int(r.report.results),
           TablePrinter::fmt_int(r.report.done),
           TablePrinter::fmt_int(r.report.shed),
           TablePrinter::fmt(r.throughput, 0),
           TablePrinter::fmt(r.p50_ms, 2), TablePrinter::fmt(r.p99_ms, 2),
           r.accounted ? "ok" : "FAIL"});
    }
    stable.print();
  }

  if (!server_replay.empty()) {
    std::printf("\nserver-replay legs (wire vs offline fingerprints):\n");
    TablePrinter srtable({"trace", "results", "wall s", "wire==offline",
                          "recover==offline"});
    for (const ServerReplayRecord& r : server_replay) {
      srtable.add_row({r.trace.name, TablePrinter::fmt_int(r.wire_results),
                       TablePrinter::fmt(r.wall_seconds, 3),
                       r.wire_ok ? "ok" : "FAIL",
                       r.recover_ok ? "ok" : "FAIL"});
    }
    srtable.print();
  }

  write_json(out, recs, over, recov, breakdown, servers, server_replay,
             smoke, sopts, oopts, seed);
  std::printf("\nwrote %s\n", out.c_str());

  if (!trace_out.empty()) {
    const std::vector<telem::TraceEvent> tail = telem::take_trace();
    all_events.insert(all_events.end(), tail.begin(), tail.end());
    telem::write_trace_file(trace_out, all_events);
    std::printf("wrote %s (%zu trace events)\n", trace_out.c_str(),
                all_events.size());
  }
  if (want_metrics) {
    std::fprintf(stderr, "%s\n", telem::snapshot().to_json(0).c_str());
  }

  // Fail loudly: a nondeterministic replay or a cached commit that diverges
  // from a fresh decode would invalidate every number above.
  bool ok = true;
  long long warm_nodes = 0, cold_nodes = 0;
  for (const TraceRecord& r : recs) {
    warm_nodes += r.warm.stats.decode.nodes_expanded;
    cold_nodes += r.cold_nodes;
    if (!r.deterministic) {
      std::fprintf(stderr, "FAIL: %s replay differs across thread counts\n",
                   r.trace.name.c_str());
      ok = false;
    }
    if (!r.warm_equals_cold) {
      std::fprintf(stderr,
                   "FAIL: %s warm (cached) config diverged from cold decode\n",
                   r.trace.name.c_str());
      ok = false;
    }
  }
  // The cache headline the bundled suite promises: a warm replay does >=
  // 10x less devirtualization than a cold one. Smoke traces are too short
  // to promise a fixed ratio; there the check is only that caching helps.
  const double ratio = warm_nodes > 0 ? static_cast<double>(cold_nodes) /
                                            static_cast<double>(warm_nodes)
                                      : 0.0;
  const double floor = smoke || args.value("--trace") ? 1.0 : 10.0;
  if (ratio < floor) {
    std::fprintf(stderr, "FAIL: decode node ratio %.2f below %.1f\n", ratio,
                 floor);
    ok = false;
  }
  // QoS promises of the overload legs: the flood is shed, the
  // high-priority tenant never is, and its p99 stays at or below the
  // flood's — all under an identical replay at every thread count.
  for (const OverloadRecord& r : over) {
    if (!r.deterministic) {
      std::fprintf(stderr,
                   "FAIL: %s overload replay differs across thread counts\n",
                   r.trace.name.c_str());
      ok = false;
    }
    const auto t0 = r.run.tenants.find(0);
    const auto t1 = r.run.tenants.find(1);
    if (t0 == r.run.tenants.end() || t1 == r.run.tenants.end()) {
      std::fprintf(stderr, "FAIL: %s overload leg missing a tenant\n",
                   r.trace.name.c_str());
      ok = false;
      continue;
    }
    if (t0->second.shed != 0) {
      std::fprintf(stderr, "FAIL: %s shed %lld high-priority requests\n",
                   r.trace.name.c_str(), t0->second.shed);
      ok = false;
    }
    if (t1->second.shed == 0) {
      std::fprintf(stderr, "FAIL: %s overload leg never shed the flood\n",
                   r.trace.name.c_str());
      ok = false;
    }
    const auto p0 = r.tick_percentiles.find(0);
    const auto p1 = r.tick_percentiles.find(1);
    if (p0 != r.tick_percentiles.end() && p1 != r.tick_percentiles.end() &&
        p0->second.second > p1->second.second) {
      std::fprintf(stderr,
                   "FAIL: %s high-priority p99 %.1f ticks above flood p99 "
                   "%.1f\n",
                   r.trace.name.c_str(), p0->second.second, p1->second.second);
      ok = false;
    }
  }
  // The span model is part of the bench contract: the tick identity must
  // hold for every result, and the exported spans must be the same numbers
  // TenantStats reports.
  for (const BreakdownRecord& r : breakdown) {
    if (!r.identity_ok) {
      std::fprintf(stderr,
                   "FAIL: %s latency breakdown violates the tick identity\n",
                   r.trace.name.c_str());
      ok = false;
    }
    if (!r.spans_ok) {
      std::fprintf(stderr,
                   "FAIL: %s trace spans diverge from the TenantStats "
                   "breakdown\n",
                   r.trace.name.c_str());
      ok = false;
    }
    if (!r.pairing_error.empty()) {
      std::fprintf(stderr, "FAIL: %s trace pairing: %s\n",
                   r.trace.name.c_str(), r.pairing_error.c_str());
      ok = false;
    }
  }
  // Promises of the networked legs: every request a closed-loop client
  // sends is accounted for (RESULT, door shed, or typed error — nothing
  // lost, nothing timed out), and the wire replay of a trace through a
  // journaled server fingerprints identically to the offline replay,
  // live and after a cold recovery.
  for (const ServerRecord& r : servers) {
    if (!r.accounted) {
      std::fprintf(stderr,
                   "FAIL: %s server leg lost requests (%lld sent, %lld "
                   "results, %lld door sheds, %lld wire errors%s)\n",
                   r.trace.name.c_str(), r.report.requests_sent,
                   r.report.results, r.report.door_sheds,
                   r.report.wire_errors,
                   r.report.timed_out ? ", TIMED OUT" : "");
      ok = false;
    }
  }
  for (const ServerReplayRecord& r : server_replay) {
    if (!r.wire_ok) {
      std::fprintf(stderr,
                   "FAIL: %s served fingerprint diverged from the offline "
                   "replay\n",
                   r.trace.name.c_str());
      ok = false;
    }
    if (!r.recover_ok) {
      std::fprintf(stderr,
                   "FAIL: %s fingerprint recovered from the server journal "
                   "diverged from the offline replay\n",
                   r.trace.name.c_str());
      ok = false;
    }
  }
  // Durability promises of the recovery legs: attaching a journal is
  // invisible to the model, and a service rebuilt from the journal alone
  // is byte-identical to the one it replaces.
  for (const RecoveryRecord& r : recov) {
    if (!r.journal_transparent) {
      std::fprintf(stderr, "FAIL: %s journaled replay diverged from the "
                           "unjournaled run\n",
                   r.trace.name.c_str());
      ok = false;
    }
    if (!r.fingerprint_ok) {
      std::fprintf(stderr,
                   "FAIL: %s recovered fingerprint diverged from the "
                   "journaled run\n",
                   r.trace.name.c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr,
               "rtc_bench: %s\n"
               "usage: rtc_bench [--smoke] [--trace FILE] [--policy P] "
               "[--threads T] [--cache-bits N] [--events N] [--ticks K] "
               "[--seed S] [--no-evict] [--queue-limit N] [--deadline T] "
               "[--faults SPEC] [--connections N] [--trace-out trace.json] "
               "[--metrics] [--out PATH] [--json] "
               "[--serve | --connect | --server-smoke] [--port N] "
               "[--port-file F] [--auth-seed S] [--shutdown]\n",
               e.what());
  return 1;
}
