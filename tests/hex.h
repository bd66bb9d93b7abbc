// Lowercase hex of a byte string and back, for tests that pin exact
// on-disk or on-wire bytes.
#pragma once

#include <string>
#include <string_view>

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

/// Inverse of hex_of; `hex` holds an even count of lowercase digits.
inline std::string bytes_of_hex(std::string_view hex) {
  const auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

}  // namespace vbs
