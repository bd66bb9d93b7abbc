// Build provenance: what produced a given --json report. Tools embed
// build_info_json() so a report records compiler, build type, sanitizer
// configuration and the machine's hardware thread count alongside the
// numbers it qualifies.
#pragma once

#include <string>

namespace vbs {

struct BuildInfo {
  std::string version;     ///< repo version, bumped per PR sequence
  std::string compiler;    ///< __VERSION__ of the compiler that built this TU
  std::string build_type;  ///< CMAKE_BUILD_TYPE (VBS_BUILD_TYPE macro)
  std::string sanitizers;  ///< "none", or comma-joined "thread"/"address"/...
  unsigned hardware_threads = 0;
};

/// The process's build info (hardware_threads sampled at call time).
BuildInfo build_info();

/// The "build" JSON object block: {"version": ..., "compiler": ...,
/// "build_type": ..., "sanitizers": ..., "hardware_threads": N}. `indent`
/// is the number of leading spaces on the block's own lines.
std::string build_info_json(int indent);

}  // namespace vbs
