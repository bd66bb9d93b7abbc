// File container for serialized Virtual Bit-Streams.
//
// The on-wire VBS is a raw bit sequence (vbs_format.h); on disk it is
// wrapped in a tiny byte-oriented container so that the exact bit length
// survives the round trip and silent corruption cannot. Every field is
// coded by the shared byte codec (util/bytes.h):
//
//   bytes 0-3   magic "VBS2"
//   bytes 4-11  bit count, u64
//   bytes 12-19 content_hash of the payload, u64
//   bytes 20-   payload: pack_bits of the stream
//
// The checksum makes every single-byte corruption detectable: a reader
// either returns exactly the written bits or throws a typed VbsError
// (kBadContainer / kTruncated / kBadVersion for legacy VBS1 files).
#pragma once

#include <string>

#include "util/bitvector.h"
#include "util/bytes.h"

namespace vbs {

/// Writes a serialized stream to disk atomically (util/io.h AtomicFile,
/// injection via the thread-local injector); throws std::runtime_error on
/// I/O failure.
void write_vbs_file(const std::string& path, const BitVector& stream);

/// Reads a stream written by write_vbs_file; throws std::runtime_error on
/// I/O failure or a malformed container.
BitVector read_vbs_file(const std::string& path);

}  // namespace vbs
