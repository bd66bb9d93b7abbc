#include "util/build_info.h"

#include <cstdio>
#include <thread>

#include "util/json.h"

namespace vbs {

namespace {

std::string detect_sanitizers() {
  std::string out;
  [[maybe_unused]] const auto add = [&out](const char* name) {
    if (!out.empty()) out += ",";
    out += name;
  };
#if defined(__SANITIZE_ADDRESS__)
  add("address");
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  add("address");
#endif
#endif
#if defined(__SANITIZE_THREAD__)
  add("thread");
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  add("thread");
#endif
#endif
#if defined(__SANITIZE_UNDEFINED__)
  add("undefined");
#endif
  if (out.empty()) out = "none";
  return out;
}

}  // namespace

BuildInfo build_info() {
  BuildInfo info;
  info.version = "0.8.0";
#if defined(__VERSION__)
  info.compiler = __VERSION__;
#else
  info.compiler = "unknown";
#endif
#if defined(VBS_BUILD_TYPE)
  info.build_type = VBS_BUILD_TYPE;
#else
  info.build_type = "unknown";
#endif
  info.sanitizers = detect_sanitizers();
  info.hardware_threads = std::thread::hardware_concurrency();
  return info;
}

std::string build_info_json(int indent) {
  const BuildInfo info = build_info();
  const std::string pad(indent, ' ');
  const std::string pad2(indent + 2, ' ');
  std::string out = "{\n";
  out += pad2 + "\"version\": \"" + json_escape(info.version) + "\",\n";
  out += pad2 + "\"compiler\": \"" + json_escape(info.compiler) + "\",\n";
  out += pad2 + "\"build_type\": \"" + json_escape(info.build_type) + "\",\n";
  out += pad2 + "\"sanitizers\": \"" + json_escape(info.sanitizers) + "\",\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"hardware_threads\": %u\n",
                info.hardware_threads);
  out += pad2 + buf;
  out += pad + "}";
  return out;
}

}  // namespace vbs
