#include "rtc/server/wire.h"

#include <cstring>

#include "util/hash.h"

namespace vbs::rpc {

namespace {

[[noreturn]] void bad_frame(const std::string& what) {
  throw VbsError(VbsErrc::kNetFrame, "rpc frame: " + what);
}

/// Checksum coverage: version byte, type byte, corr, payload — the frame
/// minus the length prefix and the checksum field itself.
std::uint64_t frame_checksum(std::uint8_t ver, std::uint8_t type,
                             std::uint64_t corr, const char* payload,
                             std::size_t payload_len) {
  std::uint64_t h = fnv1a64(&ver, 1);
  h = fnv1a64(&type, 1, h);
  h = hash_u64(h, corr);
  return fnv1a64(payload, payload_len, h);
}

}  // namespace

bool frame_type_known(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kHello) &&
         raw <= static_cast<std::uint8_t>(FrameType::kShutdown);
}

// --- field primitives --------------------------------------------------------

void put_u8(std::string& s, std::uint8_t v) {
  s.push_back(static_cast<char>(v));
}

void put_u32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_i32(std::string& s, std::int32_t v) {
  put_u32(s, static_cast<std::uint32_t>(v));
}

void put_i64(std::string& s, std::int64_t v) {
  put_u64(s, static_cast<std::uint64_t>(v));
}

std::uint8_t get_u8(const std::string& s, std::size_t& off) {
  if (off + 1 > s.size()) bad_frame("payload truncated (u8)");
  return static_cast<std::uint8_t>(s[off++]);
}

std::uint32_t get_u32(const std::string& s, std::size_t& off) {
  if (off + 4 > s.size()) bad_frame("payload truncated (u32)");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(s[off + i]))
         << (8 * i);
  }
  off += 4;
  return v;
}

std::uint64_t get_u64(const std::string& s, std::size_t& off) {
  if (off + 8 > s.size()) bad_frame("payload truncated (u64)");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(s[off + i]))
         << (8 * i);
  }
  off += 8;
  return v;
}

std::int32_t get_i32(const std::string& s, std::size_t& off) {
  return static_cast<std::int32_t>(get_u32(s, off));
}

std::int64_t get_i64(const std::string& s, std::size_t& off) {
  return static_cast<std::int64_t>(get_u64(s, off));
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
                              corr, payload.data(), payload.size()));
  out.append(payload);
  return out;
}

bool FrameReader::next(std::string& buf, Frame& out) {
  if (buf.size() < 4) return false;
  std::size_t off = 0;
  const std::uint32_t n = get_u32(buf, off);
  if (n < 18) bad_frame("declared length " + std::to_string(n) + " < 18");
  if (n > max_frame_) {
    // Checked on the declared length alone: a hostile prefix can never
    // make the reader buffer (or allocate) an unbounded frame.
    bad_frame("declared length " + std::to_string(n) + " exceeds limit " +
              std::to_string(max_frame_));
  }
  if (buf.size() < 4 + static_cast<std::size_t>(n)) return false;
  const std::uint8_t ver = get_u8(buf, off);
  if (ver != kWireVersion) {
    bad_frame("unknown version " + std::to_string(ver));
  }
  const std::uint8_t type = get_u8(buf, off);
  if (!frame_type_known(type)) {
    bad_frame("unknown frame type " + std::to_string(type));
  }
  const std::uint64_t corr = get_u64(buf, off);
  const std::uint64_t declared_sum = get_u64(buf, off);
  const std::size_t payload_len = n - 18;
  const std::uint64_t actual_sum =
      frame_checksum(ver, type, corr, buf.data() + off, payload_len);
  if (declared_sum != actual_sum) bad_frame("checksum mismatch");
  out.type = static_cast<FrameType>(type);
  out.corr = corr;
  out.payload.assign(buf, off, payload_len);
  buf.erase(0, 4 + static_cast<std::size_t>(n));
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
  std::size_t off = 0;
  HelloMsg m;
  m.tenant = get_i32(payload, off);
  m.client_nonce = get_u64(payload, off);
  if (off != payload.size()) bad_frame("hello: trailing bytes");
  return m;
}

std::string encode_challenge(const ChallengeMsg& m) {
  std::string s;
  put_u64(s, m.server_nonce);
  return s;
}

ChallengeMsg decode_challenge(const std::string& payload) {
  std::size_t off = 0;
  ChallengeMsg m;
  m.server_nonce = get_u64(payload, off);
  if (off != payload.size()) bad_frame("challenge: trailing bytes");
  return m;
}

std::string encode_auth(const AuthMsg& m) {
  std::string s;
  put_u64(s, m.proof);
  return s;
}

AuthMsg decode_auth(const std::string& payload) {
  std::size_t off = 0;
  AuthMsg m;
  m.proof = get_u64(payload, off);
  if (off != payload.size()) bad_frame("auth: trailing bytes");
  return m;
}

std::string encode_auth_ok(const AuthOkMsg& m) {
  std::string s;
  put_i64(s, m.next_request_id);
  put_u64(s, m.session);
  return s;
}

AuthOkMsg decode_auth_ok(const std::string& payload) {
  std::size_t off = 0;
  AuthOkMsg m;
  m.next_request_id = get_i64(payload, off);
  m.session = get_u64(payload, off);
  if (off != payload.size()) bad_frame("auth_ok: trailing bytes");
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
  std::size_t off = 0;
  ErrorMsg m;
  m.code = static_cast<VbsErrc>(get_i32(payload, off));
  m.message = payload.substr(off);
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
  std::size_t off = 0;
  LoadMsg m;
  m.tenant = get_i32(payload, off);
  try {
    m.stream = parse_artifact_container(payload.substr(off),
                                        ArtifactStage::kEncode,
                                        /*expected_fingerprint=*/nullptr,
                                        /*fingerprint_out=*/nullptr,
                                        "rpc load");
  } catch (const ArtifactError& e) {
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
  std::size_t off = 0;
  TargetMsg m;
  m.tenant = get_i32(payload, off);
  m.target = get_i64(payload, off);
  if (off != payload.size()) bad_frame("target: trailing bytes");
  return m;
}

std::string encode_priority(const PriorityMsg& m) {
  std::string s;
  put_i32(s, m.tenant);
  put_i32(s, m.priority);
  return s;
}

PriorityMsg decode_priority(const std::string& payload) {
  std::size_t off = 0;
  PriorityMsg m;
  m.tenant = get_i32(payload, off);
  m.priority = get_i32(payload, off);
  if (off != payload.size()) bad_frame("priority: trailing bytes");
  return m;
}

std::string encode_ack(const AckMsg& m) {
  std::string s;
  put_i64(s, m.request_id);
  return s;
}

AckMsg decode_ack(const std::string& payload) {
  std::size_t off = 0;
  AckMsg m;
  m.request_id = get_i64(payload, off);
  if (off != payload.size()) bad_frame("ack: trailing bytes");
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
  std::size_t off = 0;
  RequestResult r;
  r.request = get_i64(payload, off);
  r.kind = static_cast<RequestKind>(get_u8(payload, off));
  r.status = static_cast<RequestStatus>(get_u8(payload, off));
  r.task = get_i32(payload, off);
  r.rect.x = get_i32(payload, off);
  r.rect.y = get_i32(payload, off);
  r.rect.w = get_i32(payload, off);
  r.rect.h = get_i32(payload, off);
  r.tenant = get_i32(payload, off);
  r.priority = get_i32(payload, off);
  r.attempts = get_i32(payload, off);
  r.cache_hit = get_u8(payload, off) != 0;
  r.evicted_tasks = get_i32(payload, off);
  r.code = static_cast<VbsErrc>(get_i32(payload, off));
  r.latency_ticks = get_i64(payload, off);
  r.queue_wait_ticks = get_i64(payload, off);
  r.backoff_ticks = get_i64(payload, off);
  r.spike_ticks = get_i64(payload, off);
  r.exec_ticks = get_i64(payload, off);
  if (off != payload.size()) bad_frame("result: trailing bytes");
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
  std::size_t off = 0;
  StatReplyMsg m;
  m.fingerprint = get_u64(payload, off);
  m.now_ticks = get_i64(payload, off);
  m.pending = get_u64(payload, off);
  m.loads = get_i64(payload, off);
  m.unloads = get_i64(payload, off);
  m.relocates = get_i64(payload, off);
  m.shed = get_i64(payload, off);
  m.deadline_misses = get_i64(payload, off);
  m.failed = get_i64(payload, off);
  m.rejected = get_i64(payload, off);
  if (off != payload.size()) bad_frame("stat_reply: trailing bytes");
  return m;
}

}  // namespace vbs::rpc
