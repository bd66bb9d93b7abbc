#include "util/fault.h"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "util/hash.h"

namespace vbs {

namespace {

// Distinct site tags keep the four decision streams independent: the same
// sequence number never correlates a decode failure with an alloc failure.
constexpr std::uint64_t kSiteDecode = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kSiteAlloc = 0xbf58476d1ce4e5b9ull;
constexpr std::uint64_t kSiteCache = 0x94d049bb133111ebull;
constexpr std::uint64_t kSiteLatency = 0xd6e8feb86659fd93ull;
constexpr std::uint64_t kSiteWrite = 0xa0761d6478bd642full;
constexpr std::uint64_t kSiteSync = 0xe7037ed1a0b428dbull;
constexpr std::uint64_t kSiteRename = 0x8ebc6af09c88c6e3ull;
constexpr std::uint64_t kSiteNetShort = 0x589965cc75374cc3ull;
constexpr std::uint64_t kSiteNetEagain = 0x1d8e4e27c47d124full;
constexpr std::uint64_t kSiteNetDrop = 0xeb44accab455d165ull;

double parse_rate(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || v < 0.0 || v > 1.0) {
    throw std::invalid_argument("fault plan: bad rate for " + key + ": " +
                                value);
  }
  return v;
}

}  // namespace

double FaultPlan::roll(std::uint64_t site, std::uint64_t seq) const {
  const std::uint64_t h = splitmix64(splitmix64(cfg_.seed ^ site) ^ seq);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultPlan::decode_fails(std::uint64_t seq) const {
  return cfg_.decode_fail > 0.0 && roll(kSiteDecode, seq) < cfg_.decode_fail;
}

bool FaultPlan::alloc_fails(std::uint64_t seq) const {
  return cfg_.alloc_fail > 0.0 && roll(kSiteAlloc, seq) < cfg_.alloc_fail;
}

bool FaultPlan::cache_drops(std::uint64_t seq) const {
  return cfg_.cache_drop > 0.0 && roll(kSiteCache, seq) < cfg_.cache_drop;
}

long long FaultPlan::latency_spike_ticks(std::uint64_t seq) const {
  if (cfg_.latency_spike <= 0.0) return 0;
  return roll(kSiteLatency, seq) < cfg_.latency_spike ? cfg_.spike_ticks : 0;
}

bool FaultPlan::write_fails(std::uint64_t seq) const {
  return cfg_.write_fail > 0.0 && roll(kSiteWrite, seq) < cfg_.write_fail;
}

bool FaultPlan::sync_fails(std::uint64_t seq) const {
  return cfg_.sync_fail > 0.0 && roll(kSiteSync, seq) < cfg_.sync_fail;
}

bool FaultPlan::rename_fails(std::uint64_t seq) const {
  return cfg_.rename_fail > 0.0 && roll(kSiteRename, seq) < cfg_.rename_fail;
}

bool FaultPlan::net_short_read(std::uint64_t seq) const {
  return cfg_.net_short > 0.0 && roll(kSiteNetShort, seq) < cfg_.net_short;
}

bool FaultPlan::net_eagain(std::uint64_t seq) const {
  return cfg_.net_eagain > 0.0 && roll(kSiteNetEagain, seq) < cfg_.net_eagain;
}

bool FaultPlan::net_drops(std::uint64_t seq) const {
  return cfg_.net_drop > 0.0 && roll(kSiteNetDrop, seq) < cfg_.net_drop;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlanConfig cfg;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("fault plan: expected key=value: " + item);
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      char* end = nullptr;
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        throw std::invalid_argument("fault plan: bad seed: " + value);
      }
    } else if (key == "decode") {
      cfg.decode_fail = parse_rate(key, value);
    } else if (key == "alloc") {
      cfg.alloc_fail = parse_rate(key, value);
    } else if (key == "cache") {
      cfg.cache_drop = parse_rate(key, value);
    } else if (key == "latency") {
      // "P" or "PxT": probability, optionally x spike magnitude in ticks.
      const std::size_t x = value.find('x');
      cfg.latency_spike = parse_rate(key, value.substr(0, x));
      if (x != std::string::npos) {
        char* end = nullptr;
        cfg.spike_ticks = std::strtoll(value.c_str() + x + 1, &end, 10);
        if (end == nullptr || *end != '\0' || cfg.spike_ticks < 1) {
          throw std::invalid_argument("fault plan: bad spike ticks: " + value);
        }
      }
    } else if (key == "write") {
      cfg.write_fail = parse_rate(key, value);
    } else if (key == "sync") {
      cfg.sync_fail = parse_rate(key, value);
    } else if (key == "rename") {
      cfg.rename_fail = parse_rate(key, value);
    } else if (key == "net_short") {
      cfg.net_short = parse_rate(key, value);
    } else if (key == "net_eagain") {
      cfg.net_eagain = parse_rate(key, value);
    } else if (key == "net_drop") {
      cfg.net_drop = parse_rate(key, value);
    } else if (key == "crash") {
      char* end = nullptr;
      cfg.crash_at = std::strtoll(value.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || cfg.crash_at < 0) {
        throw std::invalid_argument("fault plan: bad crash op: " + value);
      }
    } else {
      throw std::invalid_argument("fault plan: unknown key: " + key);
    }
  }
  return FaultPlan(cfg);
}

std::string FaultPlan::spec() const {
  std::ostringstream out;
  out << "seed=" << cfg_.seed;
  if (cfg_.decode_fail > 0.0) out << ",decode=" << cfg_.decode_fail;
  if (cfg_.alloc_fail > 0.0) out << ",alloc=" << cfg_.alloc_fail;
  if (cfg_.cache_drop > 0.0) out << ",cache=" << cfg_.cache_drop;
  if (cfg_.latency_spike > 0.0) {
    out << ",latency=" << cfg_.latency_spike << "x" << cfg_.spike_ticks;
  }
  if (cfg_.write_fail > 0.0) out << ",write=" << cfg_.write_fail;
  if (cfg_.sync_fail > 0.0) out << ",sync=" << cfg_.sync_fail;
  if (cfg_.rename_fail > 0.0) out << ",rename=" << cfg_.rename_fail;
  if (cfg_.crash_at >= 0) out << ",crash=" << cfg_.crash_at;
  if (cfg_.net_short > 0.0) out << ",net_short=" << cfg_.net_short;
  if (cfg_.net_eagain > 0.0) out << ",net_eagain=" << cfg_.net_eagain;
  if (cfg_.net_drop > 0.0) out << ",net_drop=" << cfg_.net_drop;
  return out.str();
}

}  // namespace vbs
