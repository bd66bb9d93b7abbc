#include "rtc/service/eviction.h"

#include <algorithm>
#include <tuple>

namespace vbs {

std::optional<EvictionPlan> plan_eviction(
    const RectAllocator& alloc, const std::vector<VictimCandidate>& tasks,
    int w, int h) {
  if (w < 1 || h < 1 || w > alloc.width() || h > alloc.height()) {
    return std::nullopt;
  }
  // Cost of clearing a candidate origin: (evicted area, most-recent victim
  // stamp, victim count). Lower is better; the row-major scan breaks ties.
  std::optional<EvictionPlan> best;
  std::tuple<int, std::uint64_t, std::size_t> best_cost{};
  std::vector<int> victims;
  for (int y = 0; y + h <= alloc.height(); ++y) {
    for (int x = 0; x + w <= alloc.width(); ++x) {
      const Rect r{x, y, w, h};
      victims.clear();
      int area = 0;
      std::uint64_t newest = 0;
      for (const VictimCandidate& t : tasks) {
        if (!t.rect.overlaps(r)) continue;
        victims.push_back(t.task);
        area += t.rect.area();
        newest = std::max(newest, t.last_use);
      }
      const std::tuple<int, std::uint64_t, std::size_t> cost{area, newest,
                                                             victims.size()};
      if (!best || cost < best_cost) {
        best_cost = cost;
        best = EvictionPlan{{x, y}, victims};
      }
    }
  }
  if (best) {
    // Evict in ascending last-use order (oldest first) for a stable,
    // meaningful eviction log; task id breaks exact ties.
    std::vector<VictimCandidate> chosen;
    for (const int id : best->victims) {
      for (const VictimCandidate& t : tasks) {
        if (t.task == id) chosen.push_back(t);
      }
    }
    std::sort(chosen.begin(), chosen.end(),
              [](const VictimCandidate& a, const VictimCandidate& b) {
                if (a.last_use != b.last_use) return a.last_use < b.last_use;
                return a.task < b.task;
              });
    best->victims.clear();
    for (const VictimCandidate& t : chosen) best->victims.push_back(t.task);
  }
  return best;
}

}  // namespace vbs
