// 2D placement allocator for the run-time controller: tracks which tiles of
// the reconfigurable fabric are owned by loaded tasks and finds free
// rectangles for incoming ones.
//
// Occupancy is mirrored in a summed-area table so rectangle probes
// (`is_free`, `occupied_in`) are O(1) regardless of the rectangle size;
// the service's eviction planner (rtc/service/eviction.h) scans many
// candidate origins per request and relies on that. The table is rebuilt
// on occupy/release (O(W*H)), which is far rarer than probing.
#pragma once

#include <optional>
#include <vector>

#include "util/geometry.h"

namespace vbs {

class RectAllocator {
 public:
  RectAllocator(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }

  /// First-fit origin for a w x h task, or nullopt if none exists: the
  /// row-major scan both the controller and the service place with.
  std::optional<Point> find_free(int w, int h) const;

  /// Marks a rectangle occupied. Throws std::logic_error if any tile is
  /// already taken or the rectangle exceeds the fabric.
  void occupy(const Rect& r);

  /// Releases a rectangle. Throws std::logic_error on tiles not occupied.
  void release(const Rect& r);

  bool is_free(const Rect& r) const;

  /// Number of occupied tiles inside `r` (clipped to the fabric), O(1).
  int occupied_in(const Rect& r) const;

  /// Whether one tile is occupied; (x, y) must be inside the fabric.
  bool occupied(int x, int y) const { return tile(x, y); }

  /// Occupied fraction of the fabric, in [0,1].
  double occupancy() const;

  int occupied_tiles() const { return occupied_count_; }

  /// Area of the largest axis-aligned free rectangle (0 when full).
  /// O(W*H), histogram-stack sweep; external-fragmentation metrics compare
  /// it against the total free area.
  int largest_free_rect_area() const;

 private:
  bool tile(int x, int y) const {
    return grid_[static_cast<std::size_t>(y) * width_ + x];
  }
  /// Occupied tiles in [0, x) x [0, y), from the summed-area table.
  int prefix(int x, int y) const {
    return sat_[static_cast<std::size_t>(y) * (width_ + 1) + x];
  }
  void rebuild_sat();

  int width_;
  int height_;
  std::vector<char> grid_;
  /// (width+1) x (height+1) summed-area table over grid_.
  std::vector<int> sat_;
  int occupied_count_ = 0;
};

}  // namespace vbs
