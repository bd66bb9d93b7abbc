// Minimal command-line option parser for the tools/ binaries, plus the
// shared helpers for the flags every tool spells the same way
// (--seed/--threads, WxH / X,Y pair values), the common main() shell and
// the typed-error report.
//
// Supports `--flag`, `--key value` and positional arguments; unknown
// options raise std::runtime_error so typos fail loudly.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/json.h"
#include "util/telemetry.h"
#include "util/trace_export.h"

namespace vbs {

class CliArgs {
 public:
  /// `value_opts` lists options that consume a value; `flag_opts` those
  /// that do not. Option names include the leading dashes ("--cluster").
  CliArgs(int argc, char** argv, std::set<std::string> value_opts,
          std::set<std::string> flag_opts) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        if (flag_opts.count(arg) != 0) {
          flags_.insert(arg);
        } else if (value_opts.count(arg) != 0) {
          if (i + 1 >= argc) {
            throw std::runtime_error("option " + arg + " needs a value");
          }
          values_[arg] = argv[++i];
        } else {
          throw std::runtime_error("unknown option " + arg);
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  bool has_flag(const std::string& name) const {
    return flags_.count(name) != 0;
  }

  std::optional<std::string> value(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  std::string value_or(const std::string& name, std::string def) const {
    return value(name).value_or(std::move(def));
  }

  // Numeric values must consume the whole token: std::stoll/std::stod stop
  // at the first bad character, which would let typos like "1O" or "0.5x"
  // pass silently — the opposite of this parser's fail-loudly contract.
  long long int_or(const std::string& name, long long def) const {
    const auto v = value(name);
    if (!v) return def;
    try {
      std::size_t used = 0;
      const long long out = std::stoll(*v, &used);
      if (used != v->size()) throw std::invalid_argument("trailing garbage");
      return out;
    } catch (const std::exception&) {
      throw std::runtime_error("option " + name + ": not a number: " + *v);
    }
  }

  double double_or(const std::string& name, double def) const {
    const auto v = value(name);
    if (!v) return def;
    try {
      std::size_t used = 0;
      const double out = std::stod(*v, &used);
      if (used != v->size()) throw std::invalid_argument("trailing garbage");
      return out;
    } catch (const std::exception&) {
      throw std::runtime_error("option " + name + ": not a number: " + *v);
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_;
  std::vector<std::string> positional_;
};

// --- shared flag conventions -------------------------------------------------

/// `--seed S` as every tool spells it (default 1, the flow's default seed).
inline std::uint64_t seed_or(const CliArgs& args, long long def = 1) {
  return static_cast<std::uint64_t>(args.int_or("--seed", def));
}

/// `--threads T` as every tool spells it; rejects non-positive counts (the
/// engines treat their own 0 as "inherit", which is not a CLI concept).
inline int threads_or(const CliArgs& args, long long def = 1) {
  const long long t = args.int_or("--threads", def);
  if (t < 1) throw std::runtime_error("option --threads: must be >= 1");
  return static_cast<int>(t);
}

/// Parses "<a><sep><b>" integer pairs: `--fabric WxH`, `--origin X,Y`.
/// Both halves must be whole integers — "16x1O" fails instead of silently
/// parsing as 16x1.
inline std::pair<int, int> parse_pair(const std::string& s, char sep) {
  const auto pos = s.find(sep);
  if (pos == std::string::npos) {
    throw std::runtime_error("expected <a>" + std::string(1, sep) +
                             "<b>: " + s);
  }
  const std::string a = s.substr(0, pos);
  const std::string b = s.substr(pos + 1);
  try {
    std::size_t ua = 0, ub = 0;
    const int x = std::stoi(a, &ua);
    const int y = std::stoi(b, &ub);
    if (ua != a.size() || ub != b.size()) {
      throw std::invalid_argument("trailing garbage");
    }
    return {x, y};
  } catch (const std::exception&) {
    throw std::runtime_error("expected integers in <a>" +
                             std::string(1, sep) + "<b>: " + s);
  }
}

/// `--trace-out FILE` and `--metrics` as every tool spells them: construct
/// right after argument parsing (either flag switches the telemetry
/// registry on — it defaults off and is near-zero-cost that way), do the
/// work, then call finish() exactly once: it writes the Chrome trace-event
/// JSON (load into chrome://tracing or Perfetto) and dumps the metrics
/// snapshot as JSON to stderr, where it cannot corrupt a tool's --json
/// stdout contract.
class TelemetryCli {
 public:
  explicit TelemetryCli(const CliArgs& args)
      : trace_out_(args.value_or("--trace-out", "")),
        metrics_(args.has_flag("--metrics")) {
    if (!trace_out_.empty() || metrics_) telem::set_enabled(true);
  }

  void finish() const {
    if (!trace_out_.empty()) telem::write_trace_file(trace_out_);
    if (metrics_) {
      std::fprintf(stderr, "%s\n", telem::snapshot().to_json(0).c_str());
    }
  }

  bool tracing() const { return !trace_out_.empty(); }

 private:
  std::string trace_out_;
  bool metrics_ = false;
};

/// The shared main() shell of the tools/ binaries: runs `body`, and on any
/// std::exception prints "<name>: <what>" plus the usage line to stderr and
/// returns 1. `body` returns the process exit status.
inline int tool_main(const char* name, const char* usage,
                     const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "%s: %s\nusage: %s\n", name, ex.what(), usage);
    return 1;
  }
}

/// Reports a typed failure and returns its exit code, exit_code_for(code)
/// (10 + the numeric VbsErrc). With `json` the report is the object
/// {"error": {"code", "errc", "message"}} on stdout, so scripted callers
/// can dispatch without parsing stderr; otherwise one
/// "<name>: <what> [<code>]" line on stderr.
inline int typed_error_exit(const char* name, const VbsError& e, bool json) {
  if (json) {
    std::printf(
        "{\n  \"error\": {\"code\": \"%s\", \"errc\": %d, "
        "\"message\": \"%s\"}\n}\n",
        to_string(e.code()), static_cast<int>(e.code()),
        json_escape(e.what()).c_str());
  } else {
    std::fprintf(stderr, "%s: %s [%s]\n", name, e.what(), to_string(e.code()));
  }
  return exit_code_for(e.code());
}

}  // namespace vbs
