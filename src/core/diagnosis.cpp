#include "core/diagnosis.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace ftdiag::core {

namespace simd = linalg::simd;

const TrajectoryMatch& Diagnosis::best() const {
  if (ranking.empty()) {
    throw ConfigError("diagnosis has no candidates (empty ranking)");
  }
  return ranking.front();
}

double Diagnosis::confidence() const {
  if (ranking.empty()) {
    throw ConfigError("diagnosis has no candidates (empty ranking)");
  }
  if (ranking.size() < 2) return 1.0;
  const double d1 = ranking[0].distance;
  const double d2 = ranking[1].distance;
  if (d2 <= 0.0) return 0.0;  // both exactly on trajectories
  return std::clamp(1.0 - d1 / d2, 0.0, 1.0);
}

std::vector<std::string> Diagnosis::ambiguity_set(double factor) const {
  FTDIAG_ASSERT(factor >= 1.0, "ambiguity factor must be >= 1");
  std::vector<std::string> out;
  if (ranking.empty()) return out;
  const double limit = ranking.front().distance * factor;
  for (const auto& match : ranking) {
    if (match.distance <= limit || match.distance == 0.0) {
      out.push_back(match.site);
    }
  }
  return out;
}

DiagnosisEngine::DiagnosisEngine(std::vector<FaultTrajectory> trajectories)
    : trajectories_(std::move(trajectories)) {
  if (trajectories_.empty()) {
    throw ConfigError("diagnosis engine needs at least one trajectory");
  }
  const std::size_t dim = trajectories_.front().dimension();
  for (const auto& t : trajectories_) {
    if (t.dimension() != dim) {
      throw ConfigError("diagnosis engine: mixed trajectory dimensions");
    }
  }

  // Flatten every trajectory's segments into the coordinate-major SoA
  // planes the scoring kernel reads (a and d = b - a per coordinate).
  soa_.dim = dim;
  soa_.first.reserve(trajectories_.size());
  soa_.count.reserve(trajectories_.size());
  for (const auto& t : trajectories_) {
    soa_.first.push_back(soa_.total);
    const std::size_t count = t.point_count() > 0 ? t.point_count() - 1 : 0;
    soa_.count.push_back(count);
    soa_.total += count;
  }
  soa_.a.resize(dim * soa_.total);
  soa_.d.resize(dim * soa_.total);
  for (std::size_t ti = 0; ti < trajectories_.size(); ++ti) {
    const auto& points = trajectories_[ti].points();
    for (std::size_t s = 0; s < soa_.count[ti]; ++s) {
      const Point& a = points[s].coords;
      const Point& b = points[s + 1].coords;
      for (std::size_t k = 0; k < dim; ++k) {
        soa_.a[k * soa_.total + soa_.first[ti] + s] = a[k];
        soa_.d[k * soa_.total + soa_.first[ti] + s] = b[k] - a[k];
      }
    }
  }
}

namespace {

/// Closest segment of the range [first, first + count) of the SoA planes
/// to point \p p, P::width segments per pack with a ScalarPack tail.
/// Per lane this is exactly project_point()'s arithmetic in the same
/// accumulation order (dd/dp in one coordinate pass, t = clamp(dp/dd),
/// distance = sqrt of the squared residual sum), and lanes are scanned in
/// ascending segment order with a strict '<', so the first minimal
/// segment wins — the scalar loop's tie-breaking exactly.
/// \p index_base is the in-trajectory index of the range's first segment.
template <typename P>
void best_segment(const Point& p, const DiagnosisEngine::SegmentSoa& soa,
                  std::size_t first, std::size_t count,
                  std::size_t index_base, double& best_dist,
                  std::size_t& best_seg, double& best_t) {
  constexpr std::size_t kW = P::width;
  const std::size_t total = soa.total;
  const std::size_t dim = soa.dim;
  const std::size_t full = count - count % kW;
  const P zero = P::broadcast(0.0);
  const P one = P::broadcast(1.0);
  for (std::size_t s = 0; s < full; s += kW) {
    const std::size_t base = first + s;
    P dd = zero;
    P dp = zero;
    for (std::size_t k = 0; k < dim; ++k) {
      const P a = P::load(&soa.a[k * total + base]);
      const P d = P::load(&soa.d[k * total + base]);
      dd = dd + d * d;
      dp = dp + d * (P::broadcast(p[k]) - a);
    }
    // t = clamp(dp/dd, 0, 1) on segments with extent, 0 on degenerate
    // ones (the select also discards the NaN a 0/0 lane produced).
    const P t =
        simd::select(dd > zero, simd::min(one, simd::max(zero, dp / dd)),
                     zero);
    P acc = zero;
    for (std::size_t k = 0; k < dim; ++k) {
      const P a = P::load(&soa.a[k * total + base]);
      const P d = P::load(&soa.d[k * total + base]);
      const P diff = a + t * d - P::broadcast(p[k]);
      acc = acc + diff * diff;
    }
    const P dist = simd::sqrt(acc);
    for (std::size_t lane = 0; lane < kW; ++lane) {
      const double dl = dist[lane];
      if (dl < best_dist) {
        best_dist = dl;
        best_seg = index_base + s + lane;
        best_t = t[lane];
      }
    }
  }
  if constexpr (!std::is_same_v<P, simd::ScalarPack>) {
    if (full < count) {
      best_segment<simd::ScalarPack>(p, soa, first + full, count - full,
                                     index_base + full, best_dist, best_seg,
                                     best_t);
    }
  }
}

}  // namespace

Diagnosis DiagnosisEngine::diagnose(const Point& observed) const {
  if (observed.size() != dimension()) {
    throw ConfigError("observed point dimension mismatches trajectories");
  }
  Diagnosis diagnosis;
  diagnosis.ranking.reserve(trajectories_.size());
  for (std::size_t ti = 0; ti < trajectories_.size(); ++ti) {
    TrajectoryMatch match;
    match.site = trajectories_[ti].site();
    match.distance = std::numeric_limits<double>::infinity();
    best_segment<simd::DefaultPack>(observed, soa_, soa_.first[ti],
                                    soa_.count[ti], 0, match.distance,
                                    match.segment_index, match.t);
    match.estimated_deviation =
        trajectories_[ti].deviation_on_segment(match.segment_index, match.t);
    diagnosis.ranking.push_back(std::move(match));
  }
  std::sort(diagnosis.ranking.begin(), diagnosis.ranking.end(),
            [](const TrajectoryMatch& a, const TrajectoryMatch& b) {
              return a.distance < b.distance;
            });
  return diagnosis;
}

Diagnosis DiagnosisEngine::diagnose_scalar(const Point& observed) const {
  if (observed.size() != dimension()) {
    throw ConfigError("observed point dimension mismatches trajectories");
  }
  Diagnosis diagnosis;
  diagnosis.ranking.reserve(trajectories_.size());
  for (const auto& trajectory : trajectories_) {
    const std::vector<Segment> segments = trajectory.segments();
    TrajectoryMatch match;
    match.site = trajectory.site();
    match.distance = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const Projection proj = project_point(observed, segments[i]);
      if (proj.distance < match.distance) {
        match.distance = proj.distance;
        match.segment_index = i;
        match.t = proj.t;
      }
    }
    match.estimated_deviation =
        trajectory.deviation_on_segment(match.segment_index, match.t);
    diagnosis.ranking.push_back(std::move(match));
  }
  std::sort(diagnosis.ranking.begin(), diagnosis.ranking.end(),
            [](const TrajectoryMatch& a, const TrajectoryMatch& b) {
              return a.distance < b.distance;
            });
  return diagnosis;
}

}  // namespace ftdiag::core
