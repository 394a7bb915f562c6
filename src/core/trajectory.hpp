/// \file trajectory.hpp
/// \brief Fault trajectories (the paper's §2.3): the polyline traced in
/// signature space by one component's deviation sweep, passing through the
/// origin at 0 % deviation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/geometry.hpp"
#include "core/sampling.hpp"
#include "faults/dictionary.hpp"

namespace ftdiag::core {

/// One vertex of a trajectory.
struct TrajectoryPoint {
  double deviation = 0.0;  ///< fractional deviation (-0.4 .. +0.4)
  Point coords;            ///< signature-space position
};

/// A component's parametric fault trajectory: vertices ordered by
/// deviation, with the golden point inserted at deviation 0.
class FaultTrajectory {
public:
  FaultTrajectory(std::string site_label, std::vector<TrajectoryPoint> points);

  [[nodiscard]] const std::string& site() const { return site_; }
  [[nodiscard]] const std::vector<TrajectoryPoint>& points() const {
    return points_;
  }
  [[nodiscard]] std::size_t point_count() const { return points_.size(); }
  [[nodiscard]] std::size_t dimension() const {
    return points_.empty() ? 0 : points_.front().coords.size();
  }

  /// Consecutive-vertex segments (point_count() - 1 of them).
  [[nodiscard]] std::vector<Segment> segments() const;

  /// Segment i spans deviations [points()[i].deviation,
  /// points()[i+1].deviation]; interpolate a deviation at parameter t.
  [[nodiscard]] double deviation_on_segment(std::size_t segment_index,
                                            double t) const;

  /// Polyline length (how far the sweep moves the signature — a quick
  /// sensitivity indicator for the site).
  [[nodiscard]] double length() const;

  /// Largest distance of any vertex from the origin.
  [[nodiscard]] double max_excursion() const;

private:
  std::string site_;
  std::vector<TrajectoryPoint> points_;
};

/// A trajectory set in the flat layout every scorer reads: vertex v sits at
/// coords[v * dim, (v + 1) * dim), trajectory t owns vertices
/// [offsets[t], offsets[t + 1]) (so a segment's endpoints are contiguous),
/// and labels[t] points at a site label owned elsewhere.  Refilling a set
/// for another genome rewrites coordinates only.
struct FlatTrajectories {
  std::size_t dim = 0;
  std::vector<double> coords;
  std::vector<std::uint32_t> offsets;      ///< size() + 1 entries
  std::vector<const std::string*> labels;  ///< one per trajectory

  /// Replace the contents with \p trajectories; labels point into them.
  /// \throws ConfigError if the trajectories have mixed dimensions.
  void assign(const std::vector<FaultTrajectory>& trajectories);

  [[nodiscard]] std::size_t size() const { return labels.size(); }
  [[nodiscard]] std::size_t segment_count(std::size_t t) const {
    return offsets[t + 1] - offsets[t] - 1;
  }
  /// Segment s of trajectory t: one endpoint here, the other at + dim.
  [[nodiscard]] const double* segment(std::size_t t, std::size_t s) const {
    return coords.data() + (offsets[t] + s) * dim;
  }

  /// Largest distance of any vertex from the origin (the maximum of
  /// FaultTrajectory::max_excursion over the set).
  [[nodiscard]] double max_excursion() const;
};

/// One vertex of a site's trajectory: the response that supplies it (0 the
/// golden, 1 + e dictionary entry e, the numbering of
/// FaultDictionary::planes()) and its deviation.
struct TrajectoryVertex {
  std::size_t response = 0;
  double deviation = 0.0;
};

/// The vertices of \p site's trajectory in deviation order: every entry of
/// the site plus the golden point at deviation 0, which also stands in for
/// an entry the universe kept at exactly 0 %.
[[nodiscard]] std::vector<TrajectoryVertex> trajectory_vertices(
    const faults::FaultDictionary& dictionary, const std::string& site);

/// Build one trajectory per dictionary site at the given test frequencies.
/// The golden signature (origin under the default policy) is inserted at
/// deviation 0 so each trajectory is connected through nominal.
[[nodiscard]] std::vector<FaultTrajectory> build_trajectories(
    const faults::FaultDictionary& dictionary,
    const std::vector<double>& frequencies_hz, const SamplingPolicy& policy);

}  // namespace ftdiag::core
