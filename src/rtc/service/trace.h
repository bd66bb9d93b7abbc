// Reconfiguration traces: the online-workload input of the service layer.
//
// A trace is a deterministic sequence of load / unload / relocate events
// against one fabric, each stamped with an arrival tick. Task payloads are
// referenced by *kind* — a (n_lut, grid, seed, cluster) recipe the replayer
// turns into a real VBS via the offline flow — so traces stay tiny and
// self-describing. Unload/relocate events reference the index of an
// earlier load event, not a task id: ids are assigned at replay time.
//
// The generator produces six arrival patterns (the service and server
// tests and perfbench's serve workloads replay them):
//   steady       uniform arrivals, moderate lifetimes
//   bursty       on/off arrival bursts that spike queue depth
//   diurnal      sinusoidal arrival rate over the trace (a day of traffic)
//   churn        short lifetimes, high load/unload turnover
//   flash_crowd  adversarial: tenant 1 floods one hot content in a narrow
//                window at ~5x the base rate over tenant 0's steady work
//   unique_flood adversarial: tenant 1 streams never-repeating tiny tasks
//                (every load a fresh kind), defeating the stream cache
//
// A trace is generated from its options (generate_trace) wherever it is
// replayed; it has no file format.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vbs {

/// Recipe for one task payload: a synthetic netlist of `n_lut` LUTs placed
/// and routed on a grid x grid fabric, encoded at `cluster`.
struct TraceTaskKind {
  std::string name;
  int n_lut = 0;
  int grid = 0;
  std::uint64_t seed = 0;
  int cluster = 1;

  friend bool operator==(const TraceTaskKind&, const TraceTaskKind&) = default;
};

struct TraceEvent {
  enum class Kind { kLoad, kUnload, kRelocate };
  Kind kind = Kind::kLoad;
  int tick = 0;
  int task_kind = -1;  ///< kLoad: index into Trace::kinds
  int ref = -1;        ///< kUnload/kRelocate: index of the load event
  int tenant = 0;      ///< submitting tenant (QoS identity at replay)

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

struct Trace {
  std::string name;
  int fabric_w = 0;
  int fabric_h = 0;
  std::vector<TraceTaskKind> kinds;
  std::vector<TraceEvent> events;

  friend bool operator==(const Trace&, const Trace&) = default;
};

enum class ArrivalPattern {
  kSteady,
  kBursty,
  kDiurnal,
  kChurn,
  kFlashCrowd,   ///< adversarial: one-content flood in a narrow window
  kUniqueFlood,  ///< adversarial: cache-busting never-repeating contents
};

const char* to_string(ArrivalPattern p);

struct TraceGenOptions {
  ArrivalPattern pattern = ArrivalPattern::kSteady;
  int events = 160;    ///< total events to generate (upper bound)
  int ticks = 64;      ///< arrival-time resolution
  std::uint64_t seed = 1;
  int fabric_w = 16;
  int fabric_h = 12;
  /// Task-kind library size; kinds cycle through small footprints so
  /// repeated loads of the same content exercise the stream cache.
  int kinds = 6;
  /// Probability that a touch of a live task relocates instead of staying.
  double relocate_prob = 0.05;
};

/// Deterministic in the options; the same options always yield the same
/// trace.
Trace generate_trace(const TraceGenOptions& opts);

}  // namespace vbs
