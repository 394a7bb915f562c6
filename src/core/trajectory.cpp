#include "core/trajectory.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ftdiag::core {

FaultTrajectory::FaultTrajectory(std::string site_label,
                                 std::vector<TrajectoryPoint> points)
    : site_(std::move(site_label)), points_(std::move(points)) {
  if (points_.size() < 2) {
    throw ConfigError("trajectory '" + site_ + "' needs at least 2 points");
  }
  FTDIAG_ASSERT(
      std::is_sorted(points_.begin(), points_.end(),
                     [](const TrajectoryPoint& a, const TrajectoryPoint& b) {
                       return a.deviation < b.deviation;
                     }),
      "trajectory points must be ordered by deviation");
  const std::size_t dim = points_.front().coords.size();
  for (const auto& p : points_) {
    FTDIAG_ASSERT(p.coords.size() == dim, "trajectory dimension mismatch");
  }
}

std::vector<Segment> FaultTrajectory::segments() const {
  std::vector<Segment> out;
  out.reserve(points_.size() - 1);
  for (std::size_t i = 1; i < points_.size(); ++i) {
    out.push_back({points_[i - 1].coords, points_[i].coords});
  }
  return out;
}

double FaultTrajectory::deviation_on_segment(std::size_t segment_index,
                                             double t) const {
  FTDIAG_ASSERT(segment_index + 1 < points_.size(),
                "segment index out of range");
  const double d0 = points_[segment_index].deviation;
  const double d1 = points_[segment_index + 1].deviation;
  return d0 + t * (d1 - d0);
}

double FaultTrajectory::length() const {
  std::vector<Point> pts;
  pts.reserve(points_.size());
  for (const auto& p : points_) pts.push_back(p.coords);
  return polyline_length(pts);
}

double FaultTrajectory::max_excursion() const {
  double best = 0.0;
  for (const auto& p : points_) best = std::max(best, norm(p.coords));
  return best;
}

void FlatTrajectories::assign(
    const std::vector<FaultTrajectory>& trajectories) {
  dim = trajectories.empty() ? 0 : trajectories.front().dimension();
  coords.clear();
  offsets.assign(1, 0);
  labels.clear();
  for (const auto& t : trajectories) {
    if (t.dimension() != dim) {
      throw ConfigError("trajectories of mixed dimension");
    }
    for (const auto& p : t.points()) {
      coords.insert(coords.end(), p.coords.begin(), p.coords.end());
    }
    offsets.push_back(offsets.back() +
                      static_cast<std::uint32_t>(t.point_count()));
    labels.push_back(&t.site());
  }
}

double FlatTrajectories::max_excursion() const {
  // Vertex by vertex, the same sum and order as norm(), so the maximum is
  // bit-identical to FaultTrajectory::max_excursion over the set.
  double best = 0.0;
  for (const double* v = coords.data(); v != coords.data() + coords.size();
       v += dim) {
    double acc = 0.0;
    for (std::size_t k = 0; k < dim; ++k) acc += v[k] * v[k];
    best = std::max(best, std::sqrt(acc));
  }
  return best;
}

std::vector<TrajectoryVertex> trajectory_vertices(
    const faults::FaultDictionary& dictionary, const std::string& site) {
  std::vector<TrajectoryVertex> vertices;
  bool golden_inserted = false;
  for (std::size_t idx : dictionary.entries_for(site)) {
    const double deviation = dictionary.entries()[idx].fault.deviation;
    // An entry the universe kept at exactly 0 % is sampled as the golden
    // point rather than re-sampled.
    if (deviation == 0.0 || (!golden_inserted && deviation > 0.0)) {
      vertices.push_back({0, 0.0});
      golden_inserted = true;
    }
    if (deviation != 0.0) vertices.push_back({idx + 1, deviation});
  }
  if (!golden_inserted) vertices.push_back({0, 0.0});
  std::stable_sort(vertices.begin(), vertices.end(),
                   [](const TrajectoryVertex& a, const TrajectoryVertex& b) {
                     return a.deviation < b.deviation;
                   });
  return vertices;
}

std::vector<FaultTrajectory> build_trajectories(
    const faults::FaultDictionary& dictionary,
    const std::vector<double>& frequencies_hz, const SamplingPolicy& policy) {
  const SpectralSampler sampler(dictionary.golden(), policy);
  const Point golden = sampler.golden_point(frequencies_hz);

  std::vector<FaultTrajectory> out;
  out.reserve(dictionary.site_labels().size());
  for (const auto& site : dictionary.site_labels()) {
    std::vector<TrajectoryPoint> points;
    for (const TrajectoryVertex& v : trajectory_vertices(dictionary, site)) {
      points.push_back(
          {v.deviation,
           v.response == 0
               ? golden
               : sampler.sample(dictionary.entries()[v.response - 1].response,
                                frequencies_hz)});
    }
    out.emplace_back(site, std::move(points));
  }
  return out;
}

}  // namespace ftdiag::core
