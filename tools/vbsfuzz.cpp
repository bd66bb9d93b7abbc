// vbsfuzz — seeded mutational fuzzer for the hostile-input surfaces: the
// VBS deserializer, the VBS2 / vbs.artifact.v1 file containers, the
// controller's load path, and the service's submit/drain loop.
//
// The harness builds a small vbsgen-style corpus in-process (two routed
// tasks, cluster 1 and cluster 2, each as the encoder writes it, version
// 4) and adds the checked-in version-2 and version-3 samples
// (tests/data/sample_v2.vbs, sample_v3.vbs), each valid under its own
// version's decoder contract, then repeatedly mutates a corpus stream —
// truncation at a random bit, 1-8 random bit flips, targeted flips in the
// preamble/header bits, appended garbage bits, spliced runs — and feeds
// the mutant to the decode stack. The contract under test (the fuzz
// invariant):
//
//   * deserialize_vbs either succeeds, and then serialize_vbs gives back
//     exactly the parsed bits, or throws a typed VbsError — never any
//     other exception type, never a crash or sanitizer report;
//   * a stream that parses but fails later (decode, placement, arch)
//     rolls the controller back completely: configuration memory all
//     zero and occupancy 0 after the rejected load;
//   * the service survives mutant submissions and reports per-request
//     typed failures instead of tearing down the drain loop;
//   * mutated VBS2 / artifact files are rejected with the typed
//     container errors, and a file round-trip of a surviving mutant is
//     bit-exact;
//   * a mutated service journal (truncated / bit-flipped / record-spliced
//     WAL or snapshot) either recovers to a working service — a torn tail
//     is legitimately survivable — or is rejected with a typed VbsError
//     (kBadJournal and friends); never any other exception, crash, or
//     unbounded allocation.
//
// --rpc-frame switches the harness to the network surface instead: a
// corpus of valid vbs.rpc.v1 frames (every frame type, LOAD carrying a
// real artifact container) is concatenated, byte-mutated (truncation,
// bit flips, splices, hostile length prefixes, garbage) and replayed
// through FrameReader in randomly-sized chunks, then through the per-type
// payload decoders. The contract: every frame either parses completely or
// raises a typed VbsError (kNetFrame and friends) — never another
// exception, never a crash, never an allocation proportional to a hostile
// declared length, and the reader always makes progress.
//
// Everything is a pure function of --seed, so a failure line
// ("iter 123 seed 7") is a standalone repro. Exit status: 0 if every
// iteration upheld the contract, 1 with a repro line otherwise.
//
// Usage:
//   vbsfuzz [--iters N] [--seed S] [--smoke] [--rpc-frame]
//
// --smoke caps the run at the CI budget (600 iterations) regardless of
// --iters; the asan-ubsan CI job runs `vbsfuzz --smoke` and
// `vbsfuzz --rpc-frame --smoke`.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "flow/artifact_io.h"
#include "flow/flow.h"
#include "netlist/generator.h"
#include "rtc/controller.h"
#include "rtc/server/wire.h"
#include "rtc/service/service.h"
#include "util/bytes.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/io.h"
#include "util/rng.h"
#include "vbs/encoder.h"
#include "vbs/vbs_file.h"
#include "vbs/vbs_format.h"

using namespace vbs;

namespace {

constexpr const char* kUsage =
    "vbsfuzz [--iters N] [--seed S] [--smoke] [--rpc-frame]";

/// One corpus entry: a valid serialized stream plus the arch it targets.
struct CorpusEntry {
  BitVector stream;
  ArchSpec spec;
  int grid = 0;
};

CorpusEntry make_entry(int n_lut, std::uint64_t seed, int grid, int cluster) {
  GenParams p;
  p.n_lut = n_lut;
  p.n_pi = 3;
  p.n_po = 3;
  p.seed = seed;
  FlowOptions o;
  o.seed = seed;
  const FlowResult r = run_flow(generate_netlist(p), grid, grid, o);
  if (!r.routed()) throw std::runtime_error("vbsfuzz: corpus task unroutable");
  EncodeOptions eo;
  eo.cluster = cluster;
  CorpusEntry e;
  e.stream = serialize_vbs(encode_vbs(*r.fabric, r.netlist, r.packed,
                                      r.placement, r.routing.routes, eo));
  e.spec = r.fabric->spec();
  e.grid = grid;
  return e;
}

/// A checked-in stream of an older version, as files and journals hold
/// it. A fresh encode relabelled to that version would not do: its lists
/// were validated under version 4's decoder contract, not the old one.
CorpusEntry legacy_entry(const char* file) {
  CorpusEntry e;
  e.stream = read_vbs_file(std::string(VBS_TEST_DATA_DIR) + "/" + file);
  const VbsImage img = deserialize_vbs(e.stream);
  e.spec = img.spec;
  e.grid = std::max(img.task_w, img.task_h);
  return e;
}

/// Applies one randomly chosen mutation; returns a description for repros.
std::string mutate(Rng& rng, BitVector& bits) {
  const std::size_t n = bits.size();
  // A prior truncation can leave the stream empty; the only mutation that
  // still applies is appending garbage (case 3 below, inlined).
  if (n == 0) {
    const std::size_t extra = 1 + rng.next_below(64);
    BitVector t(extra);
    for (std::size_t i = 0; i < extra; ++i) t.set(i, rng.next_below(2) != 0);
    bits = std::move(t);
    return "append" + std::to_string(extra);
  }
  switch (rng.next_below(5)) {
    case 0: {  // truncate at a random bit
      const std::size_t cut = rng.next_below(n);
      BitVector t(cut);
      for (std::size_t i = 0; i < cut; ++i) t.set(i, bits.get(i));
      bits = std::move(t);
      return "truncate@" + std::to_string(cut);
    }
    case 1: {  // flip 1-8 random bits anywhere
      const int flips = 1 + static_cast<int>(rng.next_below(8));
      for (int i = 0; i < flips; ++i) {
        const std::size_t at = rng.next_below(n);
        bits.set(at, !bits.get(at));
      }
      return "flip" + std::to_string(flips);
    }
    case 2: {  // targeted flip in the preamble/header bits
      const std::size_t at = rng.next_below(std::min<std::size_t>(n, 31));
      bits.set(at, !bits.get(at));
      return "header-flip@" + std::to_string(at);
    }
    case 3: {  // append 1-64 garbage bits
      const std::size_t extra = 1 + rng.next_below(64);
      BitVector t(n + extra);
      for (std::size_t i = 0; i < n; ++i) t.set(i, bits.get(i));
      for (std::size_t i = n; i < n + extra; ++i)
        t.set(i, rng.next_below(2) != 0);
      bits = std::move(t);
      return "append" + std::to_string(extra);
    }
    default: {  // splice a random run of the stream over another position
      const std::size_t len = 1 + rng.next_below(std::min<std::size_t>(n, 96));
      const std::size_t src = rng.next_below(n - len + 1);
      const std::size_t dst = rng.next_below(n - len + 1);
      for (std::size_t i = 0; i < len; ++i)
        bits.set(dst + i, bits.get(src + i));
      return "splice" + std::to_string(len);
    }
  }
}

/// Replaces `path` in place (no temp file: the mutation is the point).
void overwrite_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("vbsfuzz: rewrite " + path);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

/// Byte-level mutation of a file on disk: truncate or flip one byte.
void mutate_file(Rng& rng, const std::string& path) {
  std::string bytes = read_file(path);
  if (bytes.empty()) return;
  if (rng.next_below(2) == 0) {
    bytes.resize(rng.next_below(bytes.size()));
  } else {
    bytes[rng.next_below(bytes.size())] ^=
        static_cast<char>(1u << rng.next_below(8));
  }
  overwrite_file(path, bytes);
}

/// Journal-specific file mutation: truncation, bit flips, or a record
/// splice (a byte run copied over another position — forges duplicated /
/// reordered records with valid checksums).
std::string mutate_journal_file(Rng& rng, const std::string& path) {
  std::string bytes = read_file(path);
  std::string what;
  if (bytes.empty()) return "empty";
  switch (rng.next_below(3)) {
    case 0: {  // truncate: mid-record cuts must read as a torn tail
      const std::size_t cut = rng.next_below(bytes.size());
      bytes.resize(cut);
      what = "truncate@" + std::to_string(cut);
      break;
    }
    case 1: {  // flip 1-4 bits anywhere
      const int flips = 1 + static_cast<int>(rng.next_below(4));
      for (int i = 0; i < flips; ++i) {
        bytes[rng.next_below(bytes.size())] ^=
            static_cast<char>(1u << rng.next_below(8));
      }
      what = "flip" + std::to_string(flips);
      break;
    }
    default: {  // splice a byte run over another position
      const std::size_t len =
          1 + rng.next_below(std::min<std::size_t>(bytes.size(), 64));
      const std::size_t src = rng.next_below(bytes.size() - len + 1);
      const std::size_t dst = rng.next_below(bytes.size() - len + 1);
      bytes.replace(dst, len, bytes, src, len);
      what = "splice" + std::to_string(len);
      break;
    }
  }
  overwrite_file(path, bytes);
  return what;
}

/// One valid frame of every vbs.rpc.v1 type (LOAD carrying a real
/// artifact container): the rpc-frame corpus.
std::vector<std::string> make_frame_corpus(const BitVector& stream) {
  using namespace rpc;
  std::vector<std::string> frames;
  HelloMsg hello;
  hello.tenant = 3;
  hello.client_nonce = 0x1234;
  frames.push_back(encode_frame(FrameType::kHello, 1, encode_hello(hello)));
  ChallengeMsg chal;
  chal.server_nonce = 0x5678;
  frames.push_back(
      encode_frame(FrameType::kChallenge, 1, encode_challenge(chal)));
  AuthMsg auth;
  auth.proof = auth_proof(tenant_secret(1, 3), 3, 0x1234, 0x5678);
  frames.push_back(encode_frame(FrameType::kAuth, 2, encode_auth(auth)));
  AuthOkMsg ok;
  ok.next_request_id = 7;
  ok.session = 0xabcd;
  frames.push_back(encode_frame(FrameType::kAuthOk, 2, encode_auth_ok(ok)));
  ErrorMsg err;
  err.code = VbsErrc::kQueueFull;
  err.message = "shed at the door";
  frames.push_back(encode_frame(FrameType::kError, 3, encode_error(err)));
  frames.push_back(encode_frame(FrameType::kLoad, 4, encode_load(3, stream)));
  TargetMsg tgt;
  tgt.tenant = 3;
  tgt.target = 7;
  frames.push_back(encode_frame(FrameType::kUnload, 5, encode_target(tgt)));
  frames.push_back(encode_frame(FrameType::kRelocate, 6, encode_target(tgt)));
  RequestResult res;
  res.request = 7;
  res.status = RequestStatus::kDone;
  res.tenant = 3;
  res.latency_ticks = 4;
  frames.push_back(encode_frame(FrameType::kResult, 4, encode_result(res)));
  AckMsg ack;
  ack.request_id = 7;
  frames.push_back(encode_frame(FrameType::kAck, 4, encode_ack(ack)));
  PriorityMsg prio;
  prio.tenant = 3;
  prio.priority = 10;
  frames.push_back(
      encode_frame(FrameType::kSetPriority, 8, encode_priority(prio)));
  frames.push_back(encode_frame(FrameType::kDrain, 9, ""));
  frames.push_back(encode_frame(FrameType::kStat, 10, ""));
  StatReplyMsg stat;
  stat.fingerprint = 0xfeedULL;
  stat.loads = 2;
  frames.push_back(
      encode_frame(FrameType::kStatReply, 10, encode_stat_reply(stat)));
  frames.push_back(encode_frame(FrameType::kPing, 11, ""));
  frames.push_back(encode_frame(FrameType::kPong, 11, ""));
  frames.push_back(encode_frame(FrameType::kShutdown, 12, ""));
  return frames;
}

/// Applies one byte-level mutation in place; returns a repro tag.
std::string mutate_bytes(Rng& rng, std::string& bytes) {
  if (bytes.empty()) {
    const std::size_t extra = 1 + rng.next_below(64);
    for (std::size_t i = 0; i < extra; ++i)
      bytes.push_back(static_cast<char>(rng.next_below(256)));
    return "append" + std::to_string(extra);
  }
  switch (rng.next_below(5)) {
    case 0: {  // truncate anywhere (mid-header, mid-payload)
      const std::size_t cut = rng.next_below(bytes.size());
      bytes.resize(cut);
      return "truncate@" + std::to_string(cut);
    }
    case 1: {  // flip 1-8 bits
      const int flips = 1 + static_cast<int>(rng.next_below(8));
      for (int i = 0; i < flips; ++i) {
        bytes[rng.next_below(bytes.size())] ^=
            static_cast<char>(1u << rng.next_below(8));
      }
      return "flip" + std::to_string(flips);
    }
    case 2: {  // hostile length prefix at the head frame
      static constexpr std::uint32_t kLens[] = {0u, 1u, 17u, 1u << 24,
                                                0x7fffffffu, 0xffffffffu};
      const std::uint32_t len = kLens[rng.next_below(6)];
      std::string prefix;
      put_u32(prefix, len);
      const std::size_t n = std::min<std::size_t>(4, bytes.size());
      bytes.replace(0, n, prefix, 0, n);
      return "len-prefix=" + std::to_string(len);
    }
    case 3: {  // append garbage
      const std::size_t extra = 1 + rng.next_below(64);
      for (std::size_t i = 0; i < extra; ++i)
        bytes.push_back(static_cast<char>(rng.next_below(256)));
      return "append" + std::to_string(extra);
    }
    default: {  // splice a run over another position
      const std::size_t len =
          1 + rng.next_below(std::min<std::size_t>(bytes.size(), 64));
      const std::size_t src = rng.next_below(bytes.size() - len + 1);
      const std::size_t dst = rng.next_below(bytes.size() - len + 1);
      bytes.replace(dst, len, bytes, src, len);
      return "splice" + std::to_string(len);
    }
  }
}

/// Runs the per-type payload decoder on a parsed frame. Throws only
/// VbsError on malformed payloads — part of the fuzz contract.
void decode_payload(const rpc::Frame& f) {
  using rpc::FrameType;
  switch (f.type) {
    case FrameType::kHello: (void)rpc::decode_hello(f.payload); break;
    case FrameType::kChallenge: (void)rpc::decode_challenge(f.payload); break;
    case FrameType::kAuth: (void)rpc::decode_auth(f.payload); break;
    case FrameType::kAuthOk: (void)rpc::decode_auth_ok(f.payload); break;
    case FrameType::kError: (void)rpc::decode_error(f.payload); break;
    case FrameType::kLoad: (void)rpc::decode_load(f.payload); break;
    case FrameType::kUnload:
    case FrameType::kRelocate: (void)rpc::decode_target(f.payload); break;
    case FrameType::kResult: (void)rpc::decode_result(f.payload); break;
    case FrameType::kAck: (void)rpc::decode_ack(f.payload); break;
    case FrameType::kSetPriority: (void)rpc::decode_priority(f.payload); break;
    case FrameType::kStatReply: (void)rpc::decode_stat_reply(f.payload); break;
    case FrameType::kDrain:
    case FrameType::kStat:
    case FrameType::kPing:
    case FrameType::kPong:
    case FrameType::kShutdown: break;  // no payload
  }
}

/// The --rpc-frame harness: mutated frame byte streams through
/// FrameReader (in random chunk sizes) and the payload decoders.
int run_rpc_frame_fuzz(long long iters, std::uint64_t seed) {
  const CorpusEntry entry = make_entry(18, 5, seed % 2 == 0 ? 5 : 6, 1);
  const std::vector<std::string> corpus = make_frame_corpus(entry.stream);
  // Tight reader cap: a hostile 4 GiB length prefix must bounce off the
  // declared-length check, never allocate.
  constexpr std::size_t kReaderCap = 1u << 20;

  Rng rng(seed ^ 0x9e3779b9u);
  long long frames_parsed = 0, payload_rejected = 0, stream_rejected = 0;
  for (long long iter = 0; iter < iters; ++iter) {
    std::string bytes;
    const std::size_t picks = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < picks; ++i)
      bytes += corpus[static_cast<std::size_t>(rng.next_below(corpus.size()))];
    // Every third iteration also re-frames a hostile payload under a
    // *valid* checksum: the only way garbage reaches the payload decoders
    // (a byte flip in a framed payload dies at the checksum instead).
    if (iter % 3 == 0) {
      const auto type = static_cast<rpc::FrameType>(1 + rng.next_below(17));
      std::string payload;
      if (rng.next_below(2) == 0) {  // truncated valid payload
        const std::string& donor =
            corpus[static_cast<std::size_t>(rng.next_below(corpus.size()))];
        const std::string body = donor.substr(rpc::kFrameHeaderBytes);
        payload = body.substr(0, rng.next_below(body.size() + 1));
      } else {  // pure garbage
        const std::size_t len = rng.next_below(96);
        for (std::size_t i = 0; i < len; ++i)
          payload.push_back(static_cast<char>(rng.next_below(256)));
      }
      bytes += rpc::encode_frame(type, rng.next_below(1 << 16), payload);
    }
    std::string what = mutate_bytes(rng, bytes);
    if (rng.next_below(2) == 0) what += "+" + mutate_bytes(rng, bytes);

    const auto fail = [&](const std::string& msg) {
      std::fprintf(stderr,
                   "vbsfuzz: RPC-FRAME CONTRACT VIOLATION at iter %lld seed "
                   "%llu (%s): %s\n",
                   iter, static_cast<unsigned long long>(seed), what.c_str(),
                   msg.c_str());
      return 1;
    };

    rpc::FrameReader reader(kReaderCap);
    std::string buf;
    std::size_t off = 0;
    bool severed = false;  // a real connection closes on the first bad frame
    while (!severed) {
      if (off < bytes.size()) {
        const std::size_t take =
            std::min<std::size_t>(1 + rng.next_below(1024), bytes.size() - off);
        buf.append(bytes, off, take);
        off += take;
      }
      try {
        rpc::Frame f;
        while (reader.next(buf, f)) {
          ++frames_parsed;
          try {
            decode_payload(f);
          } catch (const VbsError& e) {
            if (e.code() == VbsErrc::kNone) {
              return fail("payload VbsError with code ok");
            }
            ++payload_rejected;
          }
        }
        if (off >= bytes.size()) break;  // drained; rest is a partial frame
      } catch (const VbsError& e) {
        if (e.code() == VbsErrc::kNone) {
          return fail("frame VbsError with code ok");
        }
        ++stream_rejected;
        severed = true;
      } catch (const std::exception& e) {
        return fail(std::string("untyped exception: ") + e.what());
      }
    }
  }
  std::printf(
      "vbsfuzz: rpc-frame %lld iters seed %llu: %lld frames parsed, %lld "
      "payloads rejected typed, %lld streams rejected typed, 0 contract "
      "violations\n",
      iters, static_cast<unsigned long long>(seed), frames_parsed,
      payload_rejected, stream_rejected);
  return 0;
}

bool config_is_clean(const ReconfigController& rtc) {
  if (rtc.occupancy() != 0.0 || rtc.num_tasks() != 0) return false;
  const BitVector& cfg = rtc.config_memory();
  for (const std::uint64_t w : cfg.words())
    if (w != 0) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  return tool_main("vbsfuzz", kUsage, [&] {
    const CliArgs args(argc, argv, {"--iters", "--seed"},
                       {"--smoke", "--rpc-frame", "--help"});
    if (args.has_flag("--help") || !args.positional().empty()) {
      std::fprintf(stderr, "usage: %s\n", kUsage);
      return args.has_flag("--help") ? 0 : 1;
    }
    long long iters = args.int_or("--iters", 600);
    if (args.has_flag("--smoke")) iters = std::min<long long>(iters, 600);
    if (iters < 1) throw std::runtime_error("--iters must be >= 1");
    const std::uint64_t seed = seed_or(args, 1);

    if (args.has_flag("--rpc-frame")) return run_rpc_frame_fuzz(iters, seed);

    std::vector<CorpusEntry> corpus = {
        make_entry(18, 5, 5, 1),
        make_entry(25, 31, 6, 2),
    };
    corpus.push_back(legacy_entry("sample_v2.vbs"));
    corpus.push_back(legacy_entry("sample_v3.vbs"));
    const auto tmp = std::filesystem::temp_directory_path() /
                     ("vbsfuzz." + std::to_string(seed));
    std::filesystem::create_directories(tmp);

    // A pristine journal directory (WAL + one snapshot), copied and
    // mutated by the journal leg below.
    const std::string pristine = (tmp / "journal_pristine").string();
    {
      ReconfigService svc(corpus[1].spec, corpus[1].grid, corpus[1].grid);
      svc.open_journal(pristine);
      svc.submit_load(corpus[0].stream);
      svc.submit_load(corpus[1].stream);
      svc.drain();
      svc.compact_journal();
      svc.submit_load(corpus[0].stream);  // warm load after the snapshot
      svc.drain();
    }

    long long parsed = 0, rejected = 0, loaded = 0, load_rejected = 0;
    long long journal_recovered = 0, journal_rejected = 0;
    Rng rng(seed ^ 0x5bd1e995u);
    for (long long iter = 0; iter < iters; ++iter) {
      const CorpusEntry& base =
          corpus[static_cast<std::size_t>(rng.next_below(corpus.size()))];
      BitVector bits = base.stream;
      std::string what = mutate(rng, bits);
      if (rng.next_below(3) == 0) what += "+" + mutate(rng, bits);

      const auto fail = [&](const std::string& msg) {
        std::fprintf(stderr,
                     "vbsfuzz: CONTRACT VIOLATION at iter %lld seed %llu "
                     "(%s): %s\n",
                     iter, static_cast<unsigned long long>(seed), what.c_str(),
                     msg.c_str());
        return 1;
      };

      // 1. Parse: success or typed VbsError, nothing else. Every coding
      // is canonical, so a parsed stream re-serializes to its own bits.
      bool ok = false;
      VbsImage img;
      try {
        img = deserialize_vbs(bits);
        ok = true;
        ++parsed;
      } catch (const VbsError& e) {
        if (e.code() == VbsErrc::kNone) return fail("VbsError with code ok");
        ++rejected;
      } catch (const std::exception& e) {
        return fail(std::string("untyped exception: ") + e.what());
      }
      try {
        if (ok && serialize_vbs(img) != bits) {
          return fail("parsed stream re-serializes to other bits");
        }
      } catch (const std::exception& e) {
        return fail(std::string("parsed stream does not serialize: ") +
                    e.what());
      }

      // 2. Survivors meet the controller: load either commits or rolls
      // back to a pristine fabric.
      if (ok) {
        ReconfigController rtc(base.spec, base.grid, base.grid);
        try {
          const TaskId id = rtc.load(bits);
          if (id != kNoTask) {
            ++loaded;
            rtc.unload(id);
          }
          if (!config_is_clean(rtc)) {
            return fail("config dirty after load+unload");
          }
        } catch (const VbsError&) {
          ++load_rejected;
          if (!config_is_clean(rtc)) {
            return fail("config dirty after rejected load");
          }
        } catch (const std::exception& e) {
          return fail(std::string("untyped load exception: ") + e.what());
        }
      }

      // 3. Every 4th iteration: the service drain loop must survive the
      // mutant and report a per-request status instead of throwing.
      if (iter % 4 == 0) {
        ReconfigService svc(base.spec, base.grid, base.grid);
        try {
          svc.submit_load(bits);
          svc.submit_load(base.stream);  // a valid load must still succeed
          const auto results = svc.drain();
          long long done = 0;
          for (const RequestResult& r : results)
            if (r.status == RequestStatus::kDone) ++done;
          if (done < 1) return fail("valid load failed after mutant");
        } catch (const std::exception& e) {
          return fail(std::string("service drain threw: ") + e.what());
        }
      }

      // 4. Every 8th iteration: container files. A surviving mutant must
      // round-trip bit-exactly; a mutated file must be rejected typed.
      if (iter % 8 == 0) {
        const std::string vpath = (tmp / "fuzz.vbs").string();
        const std::string apath = (tmp / "fuzz.var").string();
        try {
          write_vbs_file(vpath, bits);
          if (read_vbs_file(vpath) != bits) {
            return fail("VBS container round-trip not bit-exact");
          }
          write_artifact_file(apath, ArtifactStage::kEncode, 0xfeedULL, bits);
          const std::uint64_t want_fp = 0xfeedULL;
          if (read_artifact_file(apath, ArtifactStage::kEncode, &want_fp) !=
              bits) {
            return fail("artifact round-trip not bit-exact");
          }
          mutate_file(rng, vpath);
          mutate_file(rng, apath);
          try {
            const BitVector back = read_vbs_file(vpath);
            if (back != bits) return fail("mutated VBS container read garbage");
          } catch (const VbsError&) {
          } catch (const std::exception& e) {
            return fail(std::string("untyped VBS container error: ") + e.what());
          }
          try {
            const BitVector back =
                read_artifact_file(apath, ArtifactStage::kEncode, &want_fp);
            if (back != bits) return fail("mutated artifact read garbage");
          } catch (const VbsError& e) {
            if (e.code() != VbsErrc::kBadContainer &&
                e.code() != VbsErrc::kTruncated) {
              return fail(std::string("artifact error of another code: ") +
                          e.what());
            }
          } catch (const std::exception& e) {
            return fail(std::string("untyped artifact error: ") + e.what());
          }
        } catch (const std::exception& e) {
          return fail(std::string("container leg threw: ") + e.what());
        }
      }

      // 5. Every 6th iteration: the durability surface. A mutated journal
      // directory must either recover into a working service (torn tails
      // are survivable by design) or be rejected with a typed VbsError.
      if (iter % 6 == 2) {
        const std::string jdir = (tmp / "journal_fuzz").string();
        std::filesystem::remove_all(jdir);
        std::filesystem::copy(pristine, jdir,
                              std::filesystem::copy_options::recursive);
        // Mostly the WAL; sometimes the snapshot artifact.
        std::string target = jdir + "/journal.wal";
        if (rng.next_below(4) == 0) {
          for (const auto& entry :
               std::filesystem::directory_iterator(jdir)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("snap.", 0) == 0) target = entry.path().string();
          }
        }
        const std::string jwhat = mutate_journal_file(rng, target);
        try {
          const auto svc = ReconfigService::recover(jdir);
          ++journal_recovered;
          // Whatever prefix survived must be a working service.
          svc->submit_load(corpus[1].stream);
          if (svc->drain().empty()) {
            return fail("recovered service drained nothing (" + jwhat + ")");
          }
        } catch (const VbsError& e) {
          if (e.code() == VbsErrc::kNone) {
            return fail("journal VbsError with code ok (" + jwhat + ")");
          }
          ++journal_rejected;
        } catch (const std::exception& e) {
          return fail("untyped journal exception (" + jwhat + "): " +
                      e.what());
        }
      }
    }

    std::error_code ec;
    std::filesystem::remove_all(tmp, ec);
    std::printf(
        "vbsfuzz: %lld iters seed %llu: %lld parsed (%lld loaded, %lld "
        "load-rejected), %lld rejected typed, journals %lld recovered / "
        "%lld rejected typed, 0 contract violations\n",
        iters, static_cast<unsigned long long>(seed), parsed, loaded,
        load_rejected, rejected, journal_recovered, journal_rejected);
    return 0;
  });
}
