// Lowercase hex of a byte string, for tests that pin exact on-disk or
// on-wire bytes.
#pragma once

#include <string>

namespace vbs {

inline std::string hex_of(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

}  // namespace vbs
