// vbsserve — the reconfiguration service behind its vbs.rpc.v1 front door
// (src/rtc/server) as a command-line tool, plus the admin probe that
// talks to it.
//
// Usage:
//   vbsserve --serve [--port N] [--port-file F] [--auth-seed S]
//            [--threads T] [--queue-limit N] [--deadline T] [--json]
//       front a fresh service on a loopback socket until an admin session
//       sends SHUTDOWN; --port 0 (default) picks an ephemeral port, which
//       --port-file records for scripts;
//   vbsserve --connect --port N [--auth-seed S] [--shutdown] [--json]
//       admin-connect to a running server: ping + stat, or a graceful
//       remote shutdown with --shutdown.
//
// Errors exit typed: a VbsError maps to exit_code_for(code) (10 + the
// numeric VbsErrc; a dead port is net-closed, exit 31), and with --json
// the tool prints {"error": {"code", "errc", "message"}} on stdout. Exit
// code 1 stays reserved for untyped errors (bad CLI usage).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "rtc/server/client.h"
#include "rtc/server/server.h"
#include "rtc/service/service.h"
#include "util/cli.h"
#include "util/error.h"

using namespace vbs;

namespace {

constexpr const char* kUsage =
    "vbsserve --serve [--port N] [--port-file F] [--auth-seed S] "
    "[--threads T] [--queue-limit N] [--deadline T] [--json] | "
    "vbsserve --connect --port N [--auth-seed S] [--shutdown] [--json]";

std::uint64_t auth_seed_of(const CliArgs& args) {
  return static_cast<std::uint64_t>(args.int_or("--auth-seed", 1));
}

int run_serve(const CliArgs& args, bool json) {
  ArchSpec arch;
  arch.chan_width = 8;
  ServiceOptions so;
  so.threads = threads_or(args, 2);
  so.queue_limit = static_cast<std::size_t>(args.int_or("--queue-limit", 8));
  so.deadline_ticks = args.int_or("--deadline", 12);
  ReconfigService svc(arch, 16, 12, so);
  rpc::RpcServerOptions sopts;
  sopts.port = static_cast<int>(args.int_or("--port", 0));
  sopts.auth_seed = auth_seed_of(args);
  rpc::RpcServer server(&svc, sopts);
  const int port = server.start();
  if (const auto pf = args.value("--port-file")) {
    FILE* f = std::fopen(pf->c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + *pf);
    std::fprintf(f, "%d\n", port);
    std::fclose(f);
  }
  std::printf(
      "vbsserve: serving vbs.rpc.v1 on 127.0.0.1:%d "
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
        "vbsserve: server stopped: %llu connections, %llu frames in, "
        "%llu out, fingerprint %016llx\n",
        static_cast<unsigned long long>(c.accepted),
        static_cast<unsigned long long>(c.frames_in),
        static_cast<unsigned long long>(c.frames_out),
        static_cast<unsigned long long>(svc.state_fingerprint()));
  }
  return 0;
}

int run_connect(const CliArgs& args, bool json) {
  rpc::RpcClientOptions copts;
  copts.port = static_cast<int>(args.int_or("--port", 0));
  if (copts.port <= 0) throw std::runtime_error("--connect needs --port N");
  copts.tenant = rpc::kAdminTenant;
  copts.auth_seed = auth_seed_of(args);
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
        "vbsserve: server at :%d alive: fingerprint %016llx, tick %lld, "
        "%llu pending, %lld loads%s\n",
        copts.port, static_cast<unsigned long long>(s.fingerprint),
        static_cast<long long>(s.now_ticks),
        static_cast<unsigned long long>(s.pending),
        static_cast<long long>(s.loads), shutdown ? "; shutdown sent" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tool_main("vbsserve", kUsage, [&] {
    const CliArgs args(argc, argv,
                       {"--port", "--port-file", "--auth-seed", "--threads",
                        "--queue-limit", "--deadline"},
                       {"--serve", "--connect", "--shutdown", "--json"});
    const bool serve = args.has_flag("--serve");
    if (serve == args.has_flag("--connect") || !args.positional().empty()) {
      throw std::runtime_error("give exactly one of --serve or --connect");
    }
    const bool json = args.has_flag("--json");
    try {
      return serve ? run_serve(args, json) : run_connect(args, json);
    } catch (const VbsError& e) {
      return typed_error_exit("vbsserve", e, json);
    }
  });
}
