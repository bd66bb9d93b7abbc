// Telemetry readings of the region decoders, for tests that check how
// often region models are built and how much the decoders keep.
#pragma once

#include "util/telemetry.h"

namespace vbs {

/// vbs.region.models_built: RegionModel constructions so far.
inline long long region_models_built() {
  const telem::MetricsSnapshot snap = telem::snapshot();
  const auto it = snap.counters.find("vbs.region.models_built");
  return it == snap.counters.end() ? 0 : it->second;
}

/// service.decoder_bytes: the largest retained_bytes() of any pool rank's
/// decoder set, as last published by a service.
inline double service_decoder_bytes() {
  const telem::MetricsSnapshot snap = telem::snapshot();
  const auto it = snap.gauges.find("service.decoder_bytes");
  return it == snap.gauges.end() ? 0.0 : it->second;
}

}  // namespace vbs
