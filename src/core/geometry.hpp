/// \file geometry.hpp
/// \brief Points, segments and the geometric predicates the trajectory
/// method is built on: robust 2-D segment intersection, point-to-segment
/// projection, and n-D segment-to-segment distance.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace ftdiag::core {

/// A point of the signature space R^n (n = number of test frequencies,
/// possibly doubled when phase coordinates are enabled).
using Point = std::vector<double>;

/// Euclidean distance.
[[nodiscard]] double distance(const Point& a, const Point& b);

/// Euclidean norm.
[[nodiscard]] double norm(const Point& p);

/// a - b.
[[nodiscard]] Point subtract(const Point& a, const Point& b);

/// Directed segment in R^n.
struct Segment {
  Point a;
  Point b;

  [[nodiscard]] double length() const { return distance(a, b); }
  [[nodiscard]] std::size_t dimension() const { return a.size(); }
};

/// Result of projecting a point onto a segment.
struct Projection {
  double distance = 0.0;  ///< distance from the point to the closest point
  double t = 0.0;         ///< clamped parameter in [0,1] along a->b
  Point closest;          ///< the closest point itself
};

/// Closest point of \p segment to \p p (works in any dimension).
[[nodiscard]] Projection project_point(const Point& p, const Segment& segment);

/// How two 2-D segments relate.
enum class SegmentRelation {
  kDisjoint,        ///< no common point
  kProperCrossing,  ///< interiors cross at a single point
  kTouching,        ///< single common point involving an endpoint
  kCollinearOverlap ///< collinear with a shared sub-segment
};

/// Classification of a 2-D segment pair, with the representative common
/// point (crossing point, touch point, or overlap midpoint).
struct Intersection2d {
  SegmentRelation relation = SegmentRelation::kDisjoint;
  Point at;  ///< meaningful unless kDisjoint
};

/// Robust 2-D segment intersection via orientation predicates with a
/// relative epsilon.  \throws ConfigError if either segment is not 2-D.
[[nodiscard]] Intersection2d intersect_segments_2d(const Segment& s,
                                                   const Segment& t);

/// Result of classify_segments_2d: the relation plus the representative
/// common point as scalars (meaningful unless kDisjoint).
struct Classification2d {
  SegmentRelation relation = SegmentRelation::kDisjoint;
  double at_x = 0.0;
  double at_y = 0.0;
};

/// Scalar-pointer core of the robust 2-D intersection test: each argument
/// points at a 2-D coordinate pair.  Intended for sweeps that keep segment
/// endpoints in flat arrays; arithmetic is identical to
/// intersect_segments_2d (which delegates here).
[[nodiscard]] Classification2d classify_segments_2d(const double* sa,
                                                    const double* sb,
                                                    const double* ta,
                                                    const double* tb);

/// Minimum distance between two segments in any dimension (clamped
/// quadratic minimization; exact for non-degenerate segments).
[[nodiscard]] double segment_segment_distance(const Segment& s,
                                              const Segment& t);

/// Scalar-pointer core of segment_segment_distance (each argument points
/// at \p n coordinates); the Segment overload delegates here.
[[nodiscard]] double segment_segment_distance(const double* sa,
                                              const double* sb,
                                              const double* ta,
                                              const double* tb, std::size_t n);

/// Distance from \p p to the segment (a, b), each pointing at \p n
/// coordinates, without building a Projection.
[[nodiscard]] double point_segment_distance(const double* p, const double* a,
                                            const double* b, std::size_t n);

/// Total length of a polyline.
[[nodiscard]] double polyline_length(const std::vector<Point>& points);

}  // namespace ftdiag::core
