// 2-D city coordinates.
//
// Coordinates are single-precision floats, matching the paper's kernels
// (Listing 1 stores `float2` in shared memory); TSPLIB files carry at most
// ~7 significant digits so nothing is lost.
#pragma once

#include <cmath>
#include <cstddef>
#include <sstream>

#include "common/check.hpp"

namespace tspopt {

struct Point {
  float x = 0.0f;
  float y = 0.0f;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
};

// The coordinate bound every instance from outside the process respects.
// A 2-opt delta sums two distances in int32 (solver/delta.hpp), so each
// distance must stay below 2^30. Within |x|, |y| <= kMaxAbsCoordinate the
// longest distance of any coordinate metric is MAN_2D's
// 4 * kMaxAbsCoordinate = 1e9 (EUC_2D's is 2 * sqrt(2) * 2.5e8 ~ 7.1e8).
inline constexpr double kMaxAbsCoordinate = 2.5e8;

// The typed rejection of a coordinate outside the bound.
class CoordinateRangeError : public CheckError {
 public:
  using CheckError::CheckError;
};

// Throws CoordinateRangeError unless |v| <= kMaxAbsCoordinate (NaN and
// infinities fail too). The message names the value as "<what> <at>".
inline void check_coordinate(double v, const char* what, std::size_t at) {
  if (std::abs(v) <= kMaxAbsCoordinate) return;
  std::ostringstream os;
  os << what << ' ' << at << ": " << v << " is outside [-"
     << kMaxAbsCoordinate << ", " << kMaxAbsCoordinate << ']';
  throw CoordinateRangeError(os.str());
}

}  // namespace tspopt
