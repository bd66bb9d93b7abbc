// Epoch stamps: O(1) "clear" for per-node scratch arrays. An entry is
// valid only while its stamp equals the family's current epoch, so
// advancing the epoch invalidates every entry at once.
//
// Every stamp family in the tree (router search/tree/overlay/dirty marks,
// de-virtualizer search/tree marks) advances through bump_epoch, the one
// reset path: when the u32 counter wraps, the family's stamps are cleared
// and the epoch restarts at 1, so a stamp written 2^32 bumps ago can never
// alias a live one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "util/telemetry.h"

namespace vbs {

/// Advances `counter` and returns the new epoch. On wrap, calls
/// `clear_stamps()` (which must zero every stamp of the family), restarts
/// at 1 and counts the reset under `wrap_metric` — once per 2^32 bumps,
/// for visibility that the path actually runs in long-lived processes.
template <class ClearFn>
std::uint32_t bump_epoch(std::uint32_t& counter, const char* wrap_metric,
                         ClearFn&& clear_stamps) {
  if (++counter == 0) {
    clear_stamps();
    counter = 1;
    telem::counter_add(wrap_metric);
  }
  return counter;
}

/// bump_epoch for a family kept in plain stamp arrays.
inline std::uint32_t bump_epoch(
    std::uint32_t& counter, const char* wrap_metric,
    std::initializer_list<std::vector<std::uint32_t>*> stamps) {
  return bump_epoch(counter, wrap_metric, [&] {
    for (std::vector<std::uint32_t>* v : stamps) {
      std::fill(v->begin(), v->end(), 0u);
    }
  });
}

}  // namespace vbs
