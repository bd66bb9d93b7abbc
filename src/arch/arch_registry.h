// Process-wide registry of immutable per-architecture tables (MacroModel,
// vbs::Lookahead): built once on first use, shared across threads and
// decoders. Only the `keep` most recently used architectures stay
// registered, so a stream of hostile headers naming ever new
// architectures cannot grow a registry without bound; a table dropped from
// the registry lives on while someone still holds it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "arch/arch_spec.h"

namespace vbs {

/// The registered T of `spec` (T needs `explicit T(const ArchSpec&)` and
/// `spec()`), built under the registry lock on a miss: threads that race
/// to a cold table wait for the one build instead of repeating it.
template <class T>
std::shared_ptr<const T> shared_for_arch(const ArchSpec& spec,
                                         std::size_t keep) {
  static std::mutex mu;
  static std::vector<std::shared_ptr<const T>> mru;  // most recent first
  const std::lock_guard<std::mutex> lock(mu);
  const auto hit = std::find_if(
      mru.begin(), mru.end(), [&](const auto& t) { return t->spec() == spec; });
  if (hit != mru.end()) {
    std::rotate(mru.begin(), hit, hit + 1);
    return mru.front();
  }
  mru.insert(mru.begin(), std::make_shared<const T>(spec));
  if (mru.size() > keep) mru.pop_back();
  return mru.front();
}

}  // namespace vbs
