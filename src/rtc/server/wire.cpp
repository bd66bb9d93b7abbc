#include "rtc/server/wire.h"

#include "util/bytes.h"
#include "util/hash.h"

namespace vbs::rpc {

namespace {

[[noreturn]] void bad_frame(const std::string& what) {
  throw VbsError(VbsErrc::kNetFrame, "rpc frame: " + what);
}

ByteReader payload_reader(std::string_view payload) {
  return ByteReader(payload, VbsErrc::kNetFrame, "rpc frame");
}

/// Checksum coverage: version byte, type byte, corr, payload — the frame
/// minus the length prefix and the checksum field itself.
std::uint64_t frame_checksum(std::uint8_t ver, std::uint8_t type,
                             std::uint64_t corr, std::string_view payload) {
  std::uint64_t h = fnv1a64(&ver, 1);
  h = fnv1a64(&type, 1, h);
  h = hash_u64(h, corr);
  return fnv1a64(payload.data(), payload.size(), h);
}

}  // namespace

bool frame_type_known(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kHello) &&
         raw <= static_cast<std::uint8_t>(FrameType::kShutdown);
}

// --- frame codec -------------------------------------------------------------

std::string encode_frame(FrameType type, std::uint64_t corr,
                         const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  const std::uint32_t n =
      static_cast<std::uint32_t>(18 + payload.size());  // ver..payload
  put_u32(out, n);
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u64(out, corr);
  put_u64(out, frame_checksum(kWireVersion, static_cast<std::uint8_t>(type),
                              corr, payload));
  out.append(payload);
  return out;
}

bool FrameReader::next(std::string& buf, Frame& out) {
  if (buf.size() < consumed_ + 4) return false;
  ByteReader r = payload_reader(std::string_view(buf).substr(consumed_));
  const std::uint32_t n = r.u32();
  if (n < 18) bad_frame("declared length " + std::to_string(n) + " < 18");
  if (n > max_frame_) {
    // Checked on the declared length alone: a hostile prefix can never
    // make the reader buffer (or allocate) an unbounded frame.
    bad_frame("declared length " + std::to_string(n) + " exceeds limit " +
              std::to_string(max_frame_));
  }
  if (r.remaining() < n) return false;
  const std::uint8_t ver = r.u8();
  if (ver != kWireVersion) {
    bad_frame("unknown version " + std::to_string(ver));
  }
  const std::uint8_t type = r.u8();
  if (!frame_type_known(type)) {
    bad_frame("unknown frame type " + std::to_string(type));
  }
  const std::uint64_t corr = r.u64();
  const std::uint64_t declared_sum = r.u64();
  const std::string_view payload = r.take(n - 18);
  if (declared_sum != frame_checksum(ver, type, corr, payload)) {
    bad_frame("checksum mismatch");
  }
  out.type = static_cast<FrameType>(type);
  out.corr = corr;
  out.payload.assign(payload);
  consume_front(buf, consumed_, r.pos());
  return true;
}

// --- handshake ---------------------------------------------------------------

std::uint64_t tenant_secret(std::uint64_t auth_seed, int tenant) {
  return splitmix64(splitmix64(auth_seed) ^
                    static_cast<std::uint64_t>(static_cast<std::int64_t>(tenant)));
}

std::uint64_t auth_proof(std::uint64_t secret, int tenant,
                         std::uint64_t client_nonce,
                         std::uint64_t server_nonce) {
  std::uint64_t h = hash_u64(kFnvOffset64, secret);
  h = hash_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(tenant)));
  h = hash_u64(h, client_nonce);
  h = hash_u64(h, server_nonce);
  return splitmix64(h);
}

std::string encode_hello(const HelloMsg& m) {
  std::string s;
  put_i32(s, m.tenant);
  put_u64(s, m.client_nonce);
  return s;
}

HelloMsg decode_hello(const std::string& payload) {
  ByteReader r = payload_reader(payload);
  HelloMsg m;
  m.tenant = r.i32();
  m.client_nonce = r.u64();
  r.expect_end("hello");
  return m;
}

std::string encode_challenge(const ChallengeMsg& m) {
  std::string s;
  put_u64(s, m.server_nonce);
  return s;
}

ChallengeMsg decode_challenge(const std::string& payload) {
  ByteReader r = payload_reader(payload);
  ChallengeMsg m;
  m.server_nonce = r.u64();
  r.expect_end("challenge");
  return m;
}

std::string encode_auth(const AuthMsg& m) {
  std::string s;
  put_u64(s, m.proof);
  return s;
}

AuthMsg decode_auth(const std::string& payload) {
  ByteReader r = payload_reader(payload);
  AuthMsg m;
  m.proof = r.u64();
  r.expect_end("auth");
  return m;
}

std::string encode_auth_ok(const AuthOkMsg& m) {
  std::string s;
  put_i64(s, m.next_request_id);
  put_u64(s, m.session);
  return s;
}

AuthOkMsg decode_auth_ok(const std::string& payload) {
  ByteReader r = payload_reader(payload);
  AuthOkMsg m;
  m.next_request_id = r.i64();
  m.session = r.u64();
  r.expect_end("auth_ok");
  return m;
}

// --- requests ----------------------------------------------------------------

std::string encode_error(const ErrorMsg& m) {
  std::string s;
  put_i32(s, static_cast<std::int32_t>(m.code));
  s.append(m.message);
  return s;
}

ErrorMsg decode_error(const std::string& payload) {
  ByteReader r = payload_reader(payload);
  ErrorMsg m;
  m.code = static_cast<VbsErrc>(r.i32());
  m.message = r.take(r.remaining());
  return m;
}

std::string encode_load(int tenant, const BitVector& stream) {
  std::string s;
  put_i32(s, tenant);
  s.append(artifact_container_bytes(ArtifactStage::kEncode, /*fingerprint=*/0,
                                    stream));
  return s;
}

LoadMsg decode_load(const std::string& payload) {
  ByteReader r = payload_reader(payload);
  LoadMsg m;
  m.tenant = r.i32();
  try {
    m.stream = parse_artifact_container(r.take(r.remaining()),
                                        ArtifactStage::kEncode,
                                        /*expected_fingerprint=*/nullptr,
                                        /*fingerprint_out=*/nullptr,
                                        "rpc load");
  } catch (const VbsError& e) {
    // A torn/tampered container is a wire-level reject, typed as such.
    bad_frame(std::string("load container: ") + e.what());
  }
  return m;
}

std::string encode_target(const TargetMsg& m) {
  std::string s;
  put_i32(s, m.tenant);
  put_i64(s, m.target);
  return s;
}

TargetMsg decode_target(const std::string& payload) {
  ByteReader r = payload_reader(payload);
  TargetMsg m;
  m.tenant = r.i32();
  m.target = r.i64();
  r.expect_end("target");
  return m;
}

std::string encode_priority(const PriorityMsg& m) {
  std::string s;
  put_i32(s, m.tenant);
  put_i32(s, m.priority);
  return s;
}

PriorityMsg decode_priority(const std::string& payload) {
  ByteReader r = payload_reader(payload);
  PriorityMsg m;
  m.tenant = r.i32();
  m.priority = r.i32();
  r.expect_end("priority");
  return m;
}

std::string encode_ack(const AckMsg& m) {
  std::string s;
  put_i64(s, m.request_id);
  return s;
}

AckMsg decode_ack(const std::string& payload) {
  ByteReader r = payload_reader(payload);
  AckMsg m;
  m.request_id = r.i64();
  r.expect_end("ack");
  return m;
}

std::string encode_result(const RequestResult& r) {
  std::string s;
  put_i64(s, r.request);
  put_u8(s, static_cast<std::uint8_t>(r.kind));
  put_u8(s, static_cast<std::uint8_t>(r.status));
  put_i32(s, r.task);
  put_i32(s, r.rect.x);
  put_i32(s, r.rect.y);
  put_i32(s, r.rect.w);
  put_i32(s, r.rect.h);
  put_i32(s, r.tenant);
  put_i32(s, r.priority);
  put_i32(s, r.attempts);
  put_u8(s, r.cache_hit ? 1 : 0);
  put_i32(s, r.evicted_tasks);
  put_i32(s, static_cast<std::int32_t>(r.code));
  put_i64(s, r.latency_ticks);
  put_i64(s, r.queue_wait_ticks);
  put_i64(s, r.backoff_ticks);
  put_i64(s, r.spike_ticks);
  put_i64(s, r.exec_ticks);
  return s;
}

RequestResult decode_result(const std::string& payload) {
  ByteReader in = payload_reader(payload);
  RequestResult r;
  r.request = in.i64();
  r.kind = static_cast<RequestKind>(in.u8());
  r.status = static_cast<RequestStatus>(in.u8());
  r.task = in.i32();
  r.rect.x = in.i32();
  r.rect.y = in.i32();
  r.rect.w = in.i32();
  r.rect.h = in.i32();
  r.tenant = in.i32();
  r.priority = in.i32();
  r.attempts = in.i32();
  r.cache_hit = in.u8() != 0;
  r.evicted_tasks = in.i32();
  r.code = static_cast<VbsErrc>(in.i32());
  r.latency_ticks = in.i64();
  r.queue_wait_ticks = in.i64();
  r.backoff_ticks = in.i64();
  r.spike_ticks = in.i64();
  r.exec_ticks = in.i64();
  in.expect_end("result");
  return r;
}

std::string encode_stat_reply(const StatReplyMsg& m) {
  std::string s;
  put_u64(s, m.fingerprint);
  put_i64(s, m.now_ticks);
  put_u64(s, m.pending);
  put_i64(s, m.loads);
  put_i64(s, m.unloads);
  put_i64(s, m.relocates);
  put_i64(s, m.shed);
  put_i64(s, m.deadline_misses);
  put_i64(s, m.failed);
  put_i64(s, m.rejected);
  return s;
}

StatReplyMsg decode_stat_reply(const std::string& payload) {
  ByteReader r = payload_reader(payload);
  StatReplyMsg m;
  m.fingerprint = r.u64();
  m.now_ticks = r.i64();
  m.pending = r.u64();
  m.loads = r.i64();
  m.unloads = r.i64();
  m.relocates = r.i64();
  m.shed = r.i64();
  m.deadline_misses = r.i64();
  m.failed = r.i64();
  m.rejected = r.i64();
  r.expect_end("stat_reply");
  return m;
}

}  // namespace vbs::rpc
