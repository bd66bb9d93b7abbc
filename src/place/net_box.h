// One net's bounding-box cost: VPR's half-perimeter wirelength scaled by
// the crossing-count factor. The single kernel behind the annealer's
// incremental bookkeeping and placement_hpwl, so both price a net with the
// same arithmetic, bit for bit. Internal to src/place/.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "util/geometry.h"

namespace vbs {

/// VPR's crossing-count correction factors: HPWL underestimates multi-
/// terminal net wirelength, so the cost of a net with k terminals is scaled
/// by q(k) (Cheng, "RISA: accurate and efficient placement routability
/// modeling").
inline double crossing_factor(int terminals) {
  static constexpr double kQ[] = {1.0,    1.0,    1.0,    1.0,    1.0828,
                                  1.1536, 1.2206, 1.2823, 1.3385, 1.3991,
                                  1.4493, 1.4974, 1.5455, 1.5937, 1.6418,
                                  1.6899, 1.7304, 1.7709, 1.8114, 1.8519,
                                  1.8924, 1.9288, 1.9652, 2.0015, 2.0379,
                                  2.0743, 2.1061, 2.1379, 2.1698, 2.2016,
                                  2.2334};
  if (terminals < 4) return 1.0;
  if (terminals <= 30) return kQ[terminals];
  return 2.2334 + 0.02616 * (terminals - 30);
}

/// Register-resident working copy of one net's bounding box. The annealer
/// keeps its committed boxes in parallel arrays; a Box is what the kernels
/// load, mutate and store back.
struct Box {
  std::int32_t xmin, xmax, ymin, ymax;
  // Terminals sitting exactly on each bounding edge. A single-block move
  // updates the box in O(1); only when the last terminal leaves a bounding
  // edge (its count hits 0) does the box need a full terminal rescan.
  std::int32_t nxmin, nxmax, nymin, nymax;
  double cost;
};

/// Folds one terminal at (x, y) into the box — branch-light: every bound
/// and count is updated with selects, no if/else ladder for the compiler to
/// serialize on.
inline void add_point(Box& b, std::int32_t x, std::int32_t y) {
  b.nxmin = x < b.xmin ? 1 : b.nxmin + (x == b.xmin ? 1 : 0);
  b.nxmax = x > b.xmax ? 1 : b.nxmax + (x == b.xmax ? 1 : 0);
  b.nymin = y < b.ymin ? 1 : b.nymin + (y == b.ymin ? 1 : 0);
  b.nymax = y > b.ymax ? 1 : b.nymax + (y == b.ymax ? 1 : 0);
  b.xmin = std::min(b.xmin, x);
  b.xmax = std::max(b.xmax, x);
  b.ymin = std::min(b.ymin, y);
  b.ymax = std::max(b.ymax, y);
}

/// Moves one terminal `from` -> `to`. Returns false when the terminal was
/// the last one on a bounding edge, i.e. the box may shrink and must be
/// rescanned (the box is left inconsistent in that case — the caller
/// discards it). Decrementing all four counts before testing is equivalent
/// to the short-circuiting formulation: on success every count would have
/// been decremented anyway, on failure the box is thrown away. The cost is
/// left for the caller to refresh.
inline bool move_point(Box& b, Point from, Point to) {
  add_point(b, to.x, to.y);
  b.nxmin -= from.x == b.xmin ? 1 : 0;
  b.nxmax -= from.x == b.xmax ? 1 : 0;
  b.nymin -= from.y == b.ymin ? 1 : 0;
  b.nymax -= from.y == b.ymax ? 1 : 0;
  return b.nxmin != 0 && b.nxmax != 0 && b.nymin != 0 && b.nymax != 0;
}

/// Branch-light two-pass scan over n >= 1 gathered terminal coordinates,
/// costed with crossing factor `q`: pass one reduces min/max with selects,
/// pass two counts terminals on each final bound. Both passes stream two
/// contiguous int32 spans — exactly the shape the vectorizer wants — and
/// produce the same counts the fold-in formulation would (a bound's count
/// is the number of terminals equal to the final bound, however it was
/// reached).
inline Box scan_box(const std::int32_t* xs, const std::int32_t* ys,
                    std::size_t n, double q) {
  std::int32_t xmin = xs[0], xmax = xs[0], ymin = ys[0], ymax = ys[0];
  for (std::size_t i = 1; i < n; ++i) {
    xmin = std::min(xmin, xs[i]);
    xmax = std::max(xmax, xs[i]);
    ymin = std::min(ymin, ys[i]);
    ymax = std::max(ymax, ys[i]);
  }
  std::int32_t nxmin = 0, nxmax = 0, nymin = 0, nymax = 0;
  for (std::size_t i = 0; i < n; ++i) {
    nxmin += xs[i] == xmin ? 1 : 0;
    nxmax += xs[i] == xmax ? 1 : 0;
    nymin += ys[i] == ymin ? 1 : 0;
    nymax += ys[i] == ymax ? 1 : 0;
  }
  Box b{xmin, xmax, ymin, ymax, nxmin, nxmax, nymin, nymax, 0.0};
  b.cost = q * ((xmax - xmin) + (ymax - ymin));
  return b;
}

}  // namespace vbs
