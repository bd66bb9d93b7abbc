// Plain-text table printer used by tools/vbspaper and vbsinfo so every
// reproduced table/figure prints aligned, copy-pasteable rows.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace vbs {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Renders to stdout (or any FILE*).
  void print(std::FILE* out = stdout) const;

  /// Helpers for formatting cells.
  static std::string fmt(double v, int precision = 2);
  static std::string fmt_int(long long v);
  /// Bits rendered with a thousands separator for readability.
  static std::string fmt_bits(unsigned long long bits);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vbs
