// `vbs.rpc.v1`: the compact binary wire protocol of the networked
// reconfiguration service.
//
// Every message is one length-prefixed, checksummed frame. The frame
// header and every payload field are coded by the shared byte codec
// (util/bytes.h: put_u8/u32/u64/i32/i64, read back through a ByteReader
// that throws kNetFrame):
//
//   bytes 0-3    payload-independent length N, u32: the byte count of
//                everything after this prefix
//   byte  4      protocol version (1)
//   byte  5      frame type (FrameType)
//   bytes 6-13   correlation id, u64: echoed verbatim in every reply so a
//                pipelined client can match responses
//   bytes 14-21  checksum, u64: FNV-1a over bytes 4..5 and 6..13 and the
//                payload (i.e. the frame minus the length prefix and the
//                checksum field itself)
//   bytes 22-    payload (N - 18 bytes), layout per frame type
//
// A frame is rejected with VbsError{kNetFrame} — never a crash, never an
// allocation proportional to a hostile length — when the version or type
// is unknown, N is short (< 18) or exceeds the reader's max_frame_bytes,
// or the checksum mismatches. tools/vbsfuzz --rpc-frame holds this as a
// fuzz contract.
//
// Session handshake (per connection, before anything else):
//
//   client                                server
//     HELLO{tenant, client_nonce}  ---->
//                                  <----  CHALLENGE{server_nonce}
//     AUTH{proof}                  ---->
//                                  <----  AUTH_OK{next_request_id, session}
//                                    or   ERROR{kNetAuth, ...} + close
//
// with proof = auth_proof(tenant_secret(auth_seed, tenant), tenant,
// client_nonce, server_nonce): a keyed FNV chain — a lightweight shared-
// secret challenge-response that keeps replayed or cross-tenant AUTH
// frames out without any crypto dependency. Tenant -1 is the *admin*
// session: it may submit on behalf of any tenant, set priorities, force
// drains and shut the server down; a normal session is locked to its
// authenticated tenant (a mismatched tenant field is kNetProto).
//
// Request payloads reuse the vbs.artifact.v1 container codec
// (flow/artifact_io.h) for bit streams: a LOAD carries the tenant plus a
// full container (stage kEncode), so a stream travels the wire with the
// same magic, declared-size and content-hash checks a checkpoint file
// gets. Results mirror RequestResult field for field on the modeled-tick
// timebase, so a wire client sees exactly what an offline replay sees.
#pragma once

#include <cstdint>
#include <string>

#include "flow/artifact_io.h"
#include "rtc/service/service.h"
#include "util/bitvector.h"
#include "util/error.h"

namespace vbs::rpc {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 22;  ///< incl. length prefix
inline constexpr std::size_t kMaxFrameBytesDefault = 16u << 20;

/// The admin tenant: may act for any tenant, set priorities, drain,
/// shut down. Authenticated like any tenant (it has its own secret).
inline constexpr int kAdminTenant = -1;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kChallenge = 2,
  kAuth = 3,
  kAuthOk = 4,
  kError = 5,        ///< ErrorMsg; corr names the offending request (or 0)
  kLoad = 6,         ///< LoadMsg -> kAck{request_id}, later kResult
  kUnload = 7,       ///< TargetMsg -> kAck{request_id}, later kResult
  kRelocate = 8,     ///< TargetMsg -> kAck{request_id}, later kResult
  kResult = 9,       ///< ResultMsg, corr of the originating submit
  kAck = 10,         ///< AckMsg: the service request id (or kNoRequest)
  kSetPriority = 11, ///< PriorityMsg -> kAck (admin only)
  kDrain = 12,       ///< force a drain barrier -> results, then kAck (admin)
  kStat = 13,        ///< -> kStatReply
  kStatReply = 14,
  kPing = 15,        ///< -> kPong
  kPong = 16,
  kShutdown = 17,    ///< graceful stop -> kAck, then server closes (admin)
};

/// True for type values this protocol version defines.
bool frame_type_known(std::uint8_t raw);

struct Frame {
  FrameType type = FrameType::kPing;
  std::uint64_t corr = 0;
  std::string payload;
};

/// Serializes one frame (length prefix, version, checksum included).
std::string encode_frame(FrameType type, std::uint64_t corr,
                         const std::string& payload);

/// Incremental frame parser over a connection's receive buffer.
///
/// next() consumes at most one complete frame from the front of `buf`:
/// returns false (nothing consumed) when bytes are still missing, true
/// with `out` filled when a frame was consumed, and throws
/// VbsError{kNetFrame} when the bytes can never become a valid frame (bad
/// version/type/length/checksum). The oversize check fires on the
/// *declared* length, before any payload bytes arrive.
///
/// Consumed frames leave `buf` through a read offset the reader keeps
/// (consume_front, util/bytes.h): the prefix is erased only once it passes
/// half the buffer, and a fully consumed buffer is left empty. So a reader
/// serves one buffer for its life: pass the same one on every call, append
/// to it freely, and never remove bytes from it yourself.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kMaxFrameBytesDefault)
      : max_frame_(max_frame_bytes) {}

  bool next(std::string& buf, Frame& out);

 private:
  std::size_t max_frame_;
  std::size_t consumed_ = 0;  ///< bytes of `buf` already parsed
};

// --- handshake ---------------------------------------------------------------

/// Per-tenant shared secret derived from the server's auth seed
/// (splitmix64 chain). Both ends compute it; it never travels the wire.
std::uint64_t tenant_secret(std::uint64_t auth_seed, int tenant);

/// Keyed FNV chain binding the secret to both nonces and the tenant.
std::uint64_t auth_proof(std::uint64_t secret, int tenant,
                         std::uint64_t client_nonce,
                         std::uint64_t server_nonce);

struct HelloMsg {
  int tenant = 0;
  std::uint64_t client_nonce = 0;
};
std::string encode_hello(const HelloMsg& m);
HelloMsg decode_hello(const std::string& payload);

struct ChallengeMsg {
  std::uint64_t server_nonce = 0;
};
std::string encode_challenge(const ChallengeMsg& m);
ChallengeMsg decode_challenge(const std::string& payload);

struct AuthMsg {
  std::uint64_t proof = 0;
};
std::string encode_auth(const AuthMsg& m);
AuthMsg decode_auth(const std::string& payload);

struct AuthOkMsg {
  std::int64_t next_request_id = 0;  ///< service id the next submit gets
  std::uint64_t session = 0;
};
std::string encode_auth_ok(const AuthOkMsg& m);
AuthOkMsg decode_auth_ok(const std::string& payload);

// --- requests ----------------------------------------------------------------

struct ErrorMsg {
  VbsErrc code = VbsErrc::kNetProto;
  std::string message;
};
std::string encode_error(const ErrorMsg& m);
ErrorMsg decode_error(const std::string& payload);

/// LOAD: tenant + the stream wrapped in a vbs.artifact.v1 container
/// (stage kEncode). decode re-verifies the container's magic, declared
/// size and content hash; a torn or tampered stream is kNetFrame at the
/// door, not a service-level failure.
std::string encode_load(int tenant, const BitVector& stream);
struct LoadMsg {
  int tenant = 0;
  BitVector stream;
};
LoadMsg decode_load(const std::string& payload);

struct TargetMsg {
  int tenant = 0;
  std::int64_t target = -1;  ///< service request id of the original load
};
std::string encode_target(const TargetMsg& m);
TargetMsg decode_target(const std::string& payload);

struct PriorityMsg {
  int tenant = 0;
  int priority = 0;
};
std::string encode_priority(const PriorityMsg& m);
PriorityMsg decode_priority(const std::string& payload);

struct AckMsg {
  std::int64_t request_id = -1;  ///< kNoRequest for non-submit acks
};
std::string encode_ack(const AckMsg& m);
AckMsg decode_ack(const std::string& payload);

/// The wire image of RequestResult: every modeled-tick field a replay
/// compares, none of the wall-clock diagnostics.
std::string encode_result(const RequestResult& r);
RequestResult decode_result(const std::string& payload);

struct StatReplyMsg {
  std::uint64_t fingerprint = 0;  ///< live state_fingerprint()
  std::int64_t now_ticks = 0;
  std::uint64_t pending = 0;
  std::int64_t loads = 0, unloads = 0, relocates = 0;
  std::int64_t shed = 0, deadline_misses = 0, failed = 0, rejected = 0;
};
std::string encode_stat_reply(const StatReplyMsg& m);
StatReplyMsg decode_stat_reply(const std::string& payload);

}  // namespace vbs::rpc
