// Evict-to-fit victim selection for the reconfiguration service.
//
// Tasks land at the allocator's first fit (RectAllocator::find_free, row-
// major); under pressure the service must also decide *whom to evict* to
// make room (the paper's migration / eviction scenario, Section V). The
// planner only reads the allocator and is strictly deterministic:
// identical occupancy always yields identical decisions, a prerequisite
// for the service's replay-identical guarantee.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rtc/allocator.h"
#include "util/geometry.h"

namespace vbs {

/// A loaded task as the eviction planner sees it.
struct VictimCandidate {
  int task = -1;           ///< controller TaskId
  Rect rect;
  std::uint64_t last_use = 0;  ///< monotone use stamp (service request seq)
};

/// Where to load after evicting `victims` (in eviction order).
struct EvictionPlan {
  Point origin;
  std::vector<int> victims;
};

/// Victim selection for evict-to-fit: chooses the origin whose overlapping
/// tasks are cheapest to evict — minimal evicted area, then least-recently
/// used, then row-major. Deterministic. Returns nullopt only if the task
/// exceeds the fabric outright.
std::optional<EvictionPlan> plan_eviction(
    const RectAllocator& alloc, const std::vector<VictimCandidate>& tasks,
    int w, int h);

}  // namespace vbs
