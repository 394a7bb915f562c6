#include "core/geometry.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ftdiag::core {

namespace {

/// Relative epsilon for the orientation predicates.
constexpr double kEps = 1e-12;

double cross2(double ax, double ay, double bx, double by) {
  return ax * by - ay * bx;
}

/// Sign of the orientation of (a, b, c) with a scale-relative tolerance:
/// +1 counter-clockwise, -1 clockwise, 0 collinear.
int orientation(const double* a, const double* b, const double* c) {
  const double v =
      cross2(b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1]);
  const double scale = std::max({std::fabs(b[0] - a[0]), std::fabs(b[1] - a[1]),
                                 std::fabs(c[0] - a[0]), std::fabs(c[1] - a[1]),
                                 1e-300});
  if (std::fabs(v) <= kEps * scale * scale) return 0;
  return v > 0.0 ? 1 : -1;
}

/// Is c within the bounding box of segment (a, b)?  Assumes collinear.
bool on_segment(const double* a, const double* b, const double* c) {
  const double lo_x = std::min(a[0], b[0]), hi_x = std::max(a[0], b[0]);
  const double lo_y = std::min(a[1], b[1]), hi_y = std::max(a[1], b[1]);
  const double pad_x = kEps * (1.0 + hi_x - lo_x);
  const double pad_y = kEps * (1.0 + hi_y - lo_y);
  return c[0] >= lo_x - pad_x && c[0] <= hi_x + pad_x &&
         c[1] >= lo_y - pad_y && c[1] <= hi_y + pad_y;
}

void require_2d(const Point& a, const Point& b) {
  if (a.size() != 2 || b.size() != 2) {
    throw ConfigError("2-D intersection called on a non-2-D segment");
  }
}

}  // namespace

double distance(const Point& a, const Point& b) {
  FTDIAG_ASSERT(a.size() == b.size(), "point dimension mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double norm(const Point& p) {
  double acc = 0.0;
  for (double v : p) acc += v * v;
  return std::sqrt(acc);
}

Point subtract(const Point& a, const Point& b) {
  FTDIAG_ASSERT(a.size() == b.size(), "point dimension mismatch");
  Point out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Projection project_point(const Point& p, const Segment& segment) {
  FTDIAG_ASSERT(p.size() == segment.a.size(), "point/segment dim mismatch");
  const Point d = subtract(segment.b, segment.a);
  double dd = 0.0, dp = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    dd += d[i] * d[i];
    dp += d[i] * (p[i] - segment.a[i]);
  }
  Projection out;
  out.t = dd > 0.0 ? std::clamp(dp / dd, 0.0, 1.0) : 0.0;
  out.closest.resize(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    out.closest[i] = segment.a[i] + out.t * d[i];
  }
  out.distance = distance(p, out.closest);
  return out;
}

Classification2d classify_segments_2d(const double* sa, const double* sb,
                                      const double* ta, const double* tb) {
  const int o1 = orientation(sa, sb, ta);
  const int o2 = orientation(sa, sb, tb);
  const int o3 = orientation(ta, tb, sa);
  const int o4 = orientation(ta, tb, sb);

  Classification2d result;

  // General position: interiors cross.
  if (o1 != o2 && o3 != o4 && o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0) {
    result.relation = SegmentRelation::kProperCrossing;
    // Exact crossing point of the two non-parallel lines.
    const double rx = sb[0] - sa[0], ry = sb[1] - sa[1];
    const double qx = tb[0] - ta[0], qy = tb[1] - ta[1];
    const double denom = cross2(rx, ry, qx, qy);
    const double u =
        cross2(ta[0] - sa[0], ta[1] - sa[1], qx, qy) / denom;
    result.at_x = sa[0] + u * rx;
    result.at_y = sa[1] + u * ry;
    return result;
  }

  // Collinear cases.
  if (o1 == 0 && o2 == 0 && o3 == 0 && o4 == 0) {
    // Project onto the dominant axis to find overlap.
    const int axis =
        std::fabs(sb[0] - sa[0]) >= std::fabs(sb[1] - sa[1]) ? 0 : 1;
    double s_lo = std::min(sa[axis], sb[axis]);
    double s_hi = std::max(sa[axis], sb[axis]);
    double t_lo = std::min(ta[axis], tb[axis]);
    double t_hi = std::max(ta[axis], tb[axis]);
    const double lo = std::max(s_lo, t_lo);
    const double hi = std::min(s_hi, t_hi);
    const double span = std::max(s_hi - s_lo, t_hi - t_lo);
    if (lo > hi + kEps * (1.0 + span)) return result;  // disjoint
    if (hi - lo <= kEps * (1.0 + span)) {
      // Single shared point.
      result.relation = SegmentRelation::kTouching;
    } else {
      result.relation = SegmentRelation::kCollinearOverlap;
    }
    // Representative point at the overlap midpoint, reconstructed on s.
    const double mid = 0.5 * (lo + hi);
    const double denom = sb[axis] - sa[axis];
    const double u = denom != 0.0 ? (mid - sa[axis]) / denom : 0.0;
    result.at_x = sa[0] + u * (sb[0] - sa[0]);
    result.at_y = sa[1] + u * (sb[1] - sa[1]);
    return result;
  }

  // Endpoint touching: one orientation is zero and the point lies on the
  // other segment.
  auto touch = [&result](const double* p) {
    result.relation = SegmentRelation::kTouching;
    result.at_x = p[0];
    result.at_y = p[1];
  };
  if (o1 == 0 && on_segment(sa, sb, ta)) {
    touch(ta);
    return result;
  }
  if (o2 == 0 && on_segment(sa, sb, tb)) {
    touch(tb);
    return result;
  }
  if (o3 == 0 && on_segment(ta, tb, sa)) {
    touch(sa);
    return result;
  }
  if (o4 == 0 && on_segment(ta, tb, sb)) {
    touch(sb);
    return result;
  }
  return result;
}

Intersection2d intersect_segments_2d(const Segment& s, const Segment& t) {
  require_2d(s.a, s.b);
  require_2d(t.a, t.b);
  const Classification2d c =
      classify_segments_2d(s.a.data(), s.b.data(), t.a.data(), t.b.data());
  Intersection2d result;
  result.relation = c.relation;
  if (c.relation != SegmentRelation::kDisjoint) {
    result.at = {c.at_x, c.at_y};
  }
  return result;
}

double point_segment_distance(const double* p, const double* a,
                              const double* b, std::size_t n) {
  double dd = 0.0, dp = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = b[i] - a[i];
    dd += d * d;
    dp += d * (p[i] - a[i]);
  }
  const double t = dd > 0.0 ? std::clamp(dp / dd, 0.0, 1.0) : 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] + t * (b[i] - a[i]) - p[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double segment_segment_distance(const double* sa, const double* sb,
                                const double* ta, const double* tb,
                                std::size_t n) {
  // Minimize |s(u) - t(v)|^2 over the unit square; standard clamped
  // closed-form (Eberly).  Degenerate segments fall back to projections.
  double a = 0.0, e = 0.0, f = 0.0, b = 0.0, c = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d1 = sb[i] - sa[i];
    const double d2 = tb[i] - ta[i];
    const double r = sa[i] - ta[i];
    a += d1 * d1;
    e += d2 * d2;
    f += d2 * r;
    b += d1 * d2;
    c += d1 * r;
  }
  double u = 0.0, v = 0.0;
  constexpr double kTiny = 1e-30;
  if (a <= kTiny && e <= kTiny) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = sa[i] - ta[i];
      acc += d * d;
    }
    return std::sqrt(acc);
  }
  if (a <= kTiny) {
    v = std::clamp(f / e, 0.0, 1.0);
  } else if (e <= kTiny) {
    u = std::clamp(-c / a, 0.0, 1.0);
  } else {
    const double denom = a * e - b * b;
    if (denom > kTiny * a * e) {
      u = std::clamp((b * f - c * e) / denom, 0.0, 1.0);
    }
    v = (b * u + f) / e;
    if (v < 0.0) {
      v = 0.0;
      u = std::clamp(-c / a, 0.0, 1.0);
    } else if (v > 1.0) {
      v = 1.0;
      u = std::clamp((b - c) / a, 0.0, 1.0);
    }
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (sa[i] + u * (sb[i] - sa[i])) -
                     (ta[i] + v * (tb[i] - ta[i]));
    acc += d * d;
  }
  return std::sqrt(acc);
}

double segment_segment_distance(const Segment& s, const Segment& t) {
  FTDIAG_ASSERT(s.a.size() == t.a.size(), "segment dimension mismatch");
  return segment_segment_distance(s.a.data(), s.b.data(), t.a.data(),
                                  t.b.data(), s.a.size());
}

double polyline_length(const std::vector<Point>& points) {
  double total = 0.0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    total += distance(points[i - 1], points[i]);
  }
  return total;
}

}  // namespace ftdiag::core
