// Integer 2D geometry for the tiled fabric: tile coordinates and rectangular
// regions (task footprints, allocator free rectangles).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

namespace vbs {

struct Point {
  int x = 0;
  int y = 0;

  friend bool operator==(const Point&, const Point&) = default;
};

inline int manhattan(Point a, Point b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

/// Half-open rectangle of tiles: x in [x, x+w), y in [y, y+h).
struct Rect {
  int x = 0;
  int y = 0;
  int w = 0;
  int h = 0;

  int area() const { return w * h; }
  bool empty() const { return w <= 0 || h <= 0; }

  bool contains(Point p) const {
    return p.x >= x && p.x < x + w && p.y >= y && p.y < y + h;
  }

  bool contains(const Rect& r) const {
    return r.x >= x && r.y >= y && r.x + r.w <= x + w && r.y + r.h <= y + h;
  }

  bool overlaps(const Rect& r) const {
    return x < r.x + r.w && r.x < x + w && y < r.y + r.h && r.y < y + h;
  }

  friend bool operator==(const Rect&, const Rect&) = default;
};

// Each string is built by appending into one std::string: GCC 12 at -O3
// warns -Wrestrict on a chain of `"(" + std::to_string(...)` temporaries.
inline std::string to_string(Point p) {
  std::string s = "(";
  s += std::to_string(p.x);
  s += ',';
  s += std::to_string(p.y);
  s += ')';
  return s;
}

inline std::string to_string(const Rect& r) {
  std::string s = "[";
  s += std::to_string(r.x);
  s += ',';
  s += std::to_string(r.y);
  s += ' ';
  s += std::to_string(r.w);
  s += 'x';
  s += std::to_string(r.h);
  s += ']';
  return s;
}

}  // namespace vbs
