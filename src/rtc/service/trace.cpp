#include "rtc/service/trace.h"

#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace vbs {

const char* to_string(ArrivalPattern p) {
  switch (p) {
    case ArrivalPattern::kSteady: return "steady";
    case ArrivalPattern::kBursty: return "bursty";
    case ArrivalPattern::kDiurnal: return "diurnal";
    case ArrivalPattern::kChurn: return "churn";
    case ArrivalPattern::kFlashCrowd: return "flash_crowd";
    case ArrivalPattern::kUniqueFlood: return "unique_flood";
  }
  return "?";
}

namespace {

/// Expected arrivals at `tick`, shaped by the pattern.
double arrival_rate(ArrivalPattern p, int tick, int ticks, double base) {
  const double phase = static_cast<double>(tick) / ticks;
  switch (p) {
    case ArrivalPattern::kSteady:
      return base;
    case ArrivalPattern::kBursty:
      // Four bursts per trace: rate spikes 4x inside a burst window,
      // near-zero between them.
      return std::fmod(phase * 4.0, 1.0) < 0.3 ? base * 4.0 : base * 0.15;
    case ArrivalPattern::kDiurnal:
      // One "day": sinusoidal load with a quiet night.
      return base * (1.0 + std::sin(2.0 * 3.14159265358979 * phase)) * 1.0;
    case ArrivalPattern::kChurn:
      return base * 1.5;
    case ArrivalPattern::kFlashCrowd:
    case ArrivalPattern::kUniqueFlood:
      return base;  // adversarial patterns have their own generator
  }
  return base;
}

/// Per-tick probability that a live task departs.
double departure_prob(ArrivalPattern p) {
  switch (p) {
    case ArrivalPattern::kSteady: return 0.10;
    case ArrivalPattern::kBursty: return 0.12;
    case ArrivalPattern::kDiurnal: return 0.10;
    case ArrivalPattern::kChurn: return 0.45;  // short-lived tasks
    case ArrivalPattern::kFlashCrowd:
    case ArrivalPattern::kUniqueFlood: return 0.15;  // background tenant
  }
  return 0.1;
}

/// Adversarial two-tenant traces: tenant 0 runs a steady mixed workload
/// from the normal kind library; tenant 1 is the attacker. flash_crowd
/// hammers one hot content at ~5x the base rate inside a narrow window
/// (phases [0.4, 0.6)); unique_flood streams never-repeating tiny kinds at
/// ~4x all along, so every adversary load is a cold cache-busting
/// decode. Replayed with a queue limit and priorities, they drive
/// ServiceOverload.PriorityTenantSurvivesEachFlood.
Trace generate_adversarial_trace(const TraceGenOptions& opts) {
  Trace t;
  t.name = to_string(opts.pattern);
  t.fabric_w = opts.fabric_w;
  t.fabric_h = opts.fabric_h;
  for (int k = 0; k < opts.kinds; ++k) {
    TraceTaskKind kind;
    const int grid = 3 + k % 4;
    kind.grid = grid;
    kind.n_lut = grid * grid - grid + 1;
    kind.seed = 1000 + static_cast<std::uint64_t>(k);
    kind.cluster = k % 2 == 0 ? 1 : 2;
    kind.name = std::string(to_string(opts.pattern)) + "_k" +
                std::to_string(k) + "_" + std::to_string(grid) + "x" +
                std::to_string(grid);
    t.kinds.push_back(std::move(kind));
  }

  Rng rng(opts.seed ^ (static_cast<std::uint64_t>(opts.pattern) << 32));
  const double base =
      static_cast<double>(opts.events) / (2.0 * opts.ticks);
  const bool flash = opts.pattern == ArrivalPattern::kFlashCrowd;

  std::vector<int> live;  ///< background load events still loaded
  int uniq = 0;
  for (int tick = 0;
       tick < opts.ticks && static_cast<int>(t.events.size()) < opts.events;
       ++tick) {
    const double phase = static_cast<double>(tick) / opts.ticks;
    // Background tenant 0: departures/relocations, then steady arrivals.
    const double dep = departure_prob(opts.pattern);
    for (std::size_t i = 0;
         i < live.size() && static_cast<int>(t.events.size()) < opts.events;) {
      if (rng.next_bool(dep)) {
        t.events.push_back({TraceEvent::Kind::kUnload, tick, -1, live[i], 0});
        live[i] = live.back();
        live.pop_back();
        continue;
      }
      if (rng.next_bool(opts.relocate_prob)) {
        t.events.push_back(
            {TraceEvent::Kind::kRelocate, tick, -1, live[i], 0});
      }
      ++i;
    }
    const double brate = base * 0.8;
    int arrivals = static_cast<int>(brate);
    if (rng.next_bool(brate - arrivals)) ++arrivals;
    for (int a = 0;
         a < arrivals && static_cast<int>(t.events.size()) < opts.events;
         ++a) {
      const int kind = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(opts.kinds)));
      live.push_back(static_cast<int>(t.events.size()));
      t.events.push_back({TraceEvent::Kind::kLoad, tick, kind, -1, 0});
    }
    // Adversary tenant 1.
    const double arate =
        flash ? (phase >= 0.4 && phase < 0.6 ? base * 5.0 : 0.0)
              : base * 4.0;
    int flood = static_cast<int>(arate);
    if (arate > 0.0 && rng.next_bool(arate - flood)) ++flood;
    for (int a = 0;
         a < flood && static_cast<int>(t.events.size()) < opts.events; ++a) {
      int kind = 0;  // flash crowd: everyone wants the same hot content
      if (!flash) {
        // unique_flood: a brand-new tiny kind per load, never repeated.
        TraceTaskKind k;
        k.grid = 3;
        k.n_lut = 6 + uniq % 2;
        k.seed = 50000 + static_cast<std::uint64_t>(uniq);
        k.cluster = 1;
        k.name = "uf_u" + std::to_string(uniq);
        ++uniq;
        kind = static_cast<int>(t.kinds.size());
        t.kinds.push_back(std::move(k));
      }
      t.events.push_back({TraceEvent::Kind::kLoad, tick, kind, -1, 1});
    }
  }
  return t;
}

}  // namespace

Trace generate_trace(const TraceGenOptions& opts) {
  if (opts.events < 1 || opts.ticks < 1 || opts.kinds < 1) {
    throw std::invalid_argument("trace generator: bad options");
  }
  if (opts.pattern == ArrivalPattern::kFlashCrowd ||
      opts.pattern == ArrivalPattern::kUniqueFlood) {
    return generate_adversarial_trace(opts);
  }
  Trace t;
  t.name = to_string(opts.pattern);
  t.fabric_w = opts.fabric_w;
  t.fabric_h = opts.fabric_h;

  // Small footprints (3..6 tiles square) so several tenants coexist; the
  // kind library cycles sizes and seeds, deliberately small so the same
  // content recurs and the decoded-stream cache has something to do.
  for (int k = 0; k < opts.kinds; ++k) {
    TraceTaskKind kind;
    const int grid = 3 + k % 4;
    kind.grid = grid;
    kind.n_lut = grid * grid - grid + 1;
    kind.seed = 1000 + static_cast<std::uint64_t>(k);
    kind.cluster = k % 2 == 0 ? 1 : 2;
    kind.name = std::string(to_string(opts.pattern)) + "_k" +
                std::to_string(k) + "_" + std::to_string(grid) + "x" +
                std::to_string(grid);
    t.kinds.push_back(std::move(kind));
  }

  Rng rng(opts.seed ^ (static_cast<std::uint64_t>(opts.pattern) << 32));
  // Base rate calibrated so ~opts.events events fit in opts.ticks ticks
  // (arrivals plus the departures/relocates they trigger, roughly 2x).
  const double base =
      static_cast<double>(opts.events) / (2.0 * opts.ticks);

  std::vector<int> live;  ///< indices of load events still loaded
  for (int tick = 0;
       tick < opts.ticks && static_cast<int>(t.events.size()) < opts.events;
       ++tick) {
    // Departures and relocations of live tasks first (frees room for the
    // tick's arrivals).
    const double dep = departure_prob(opts.pattern);
    for (std::size_t i = 0;
         i < live.size() && static_cast<int>(t.events.size()) < opts.events;) {
      if (rng.next_bool(dep)) {
        t.events.push_back(
            {TraceEvent::Kind::kUnload, tick, -1, live[i]});
        live[i] = live.back();
        live.pop_back();
        continue;
      }
      if (rng.next_bool(opts.relocate_prob)) {
        t.events.push_back(
            {TraceEvent::Kind::kRelocate, tick, -1, live[i]});
      }
      ++i;
    }
    // Arrivals: Bernoulli-thinned rate, at most a handful per tick.
    const double rate = arrival_rate(opts.pattern, tick, opts.ticks, base);
    int arrivals = static_cast<int>(rate);
    if (rng.next_bool(rate - arrivals)) ++arrivals;
    for (int a = 0;
         a < arrivals && static_cast<int>(t.events.size()) < opts.events;
         ++a) {
      const int kind = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(opts.kinds)));
      live.push_back(static_cast<int>(t.events.size()));
      t.events.push_back({TraceEvent::Kind::kLoad, tick, kind, -1});
    }
  }
  return t;
}

}  // namespace vbs
