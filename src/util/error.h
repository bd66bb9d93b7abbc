// Typed error taxonomy for every trust-the-input path: VBS streams,
// container files, artifacts, journals, the wire, and the service's
// admission layer.
//
// Anything that consumes bytes it did not produce (a serialized VBS, a
// .vbs/.art file, a journal) rejects malformed input by throwing a
// VbsError carrying a stable VbsErrc code — never an assert, never
// undefined behaviour, never silent garbage. VbsError has no subtypes:
// callers dispatch on the code alone.
//
// The numeric code values are a stable contract: tools expose them as
// process exit codes (exit_code_for) and in --json error objects, so they
// must never be renumbered — append only.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace vbs {

/// Stable error codes. Append only; values are exposed as CLI exit codes.
enum class VbsErrc : std::uint8_t {
  kNone = 0,           ///< success (never thrown)
  kTruncated = 1,      ///< read past the end of a stream or file
  kBadVersion = 2,     ///< unsupported format version
  kBadHeader = 3,      ///< malformed preamble / architecture / dimensions
  kBadEntry = 4,       ///< entry position, count or logic payload invalid
  kBadConnection = 5,  ///< connection endpoint/count out of range
  kTrailingBits = 6,   ///< stream longer than its own content
  kResourceLimit = 7,  ///< well-formed but absurd: decode cost guard
  kBadContainer = 8,   ///< file container (VBS1 / VAR1) malformed
  kBadTrace = 9,       ///< reserved: the retired rtc trace text format
  kArchMismatch = 10,  ///< stream targets a different architecture
  kDecodeFailed = 11,  ///< connection list failed to route in-region
  kNoPlacement = 12,   ///< no free region (even after eviction)
  kFaultInjected = 13, ///< deterministic fault-plan injection
  kQueueFull = 14,     ///< shed by bounded-queue admission control
  kDeadline = 15,      ///< per-request deadline exceeded before commit
  kBadJournal = 16,    ///< service journal malformed beyond a torn tail
  kTornWrite = 17,     ///< in-flight write cut short (injected or detected)
  kNetFrame = 18,      ///< vbs.rpc.v1 frame malformed (length/checksum/type)
  kNetAuth = 19,       ///< RPC handshake rejected (bad proof / bad state)
  kNetProto = 20,      ///< frame valid but illegal in the session state
  kNetClosed = 21,     ///< peer gone: connect refused / closed mid-frame
  kNetTimeout = 22,    ///< RPC deadline expired waiting on the wire
};

/// Stable kebab-case name of a code ("truncated", "bad-header", ...).
const char* to_string(VbsErrc c);

/// Process exit code a CLI tool reports for a typed failure: 0 for kNone,
/// otherwise 10 + the numeric code (1 stays reserved for untyped errors).
int exit_code_for(VbsErrc c);

/// Base class of every typed rejection.
class VbsError : public std::runtime_error {
 public:
  VbsError(VbsErrc code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  VbsErrc code() const { return code_; }

 private:
  VbsErrc code_;
};

}  // namespace vbs
