/// \file diagnosis.hpp
/// \brief The diagnosis step (the paper's Fig. 3 right): assign an observed
/// signature point to the nearest trajectory segment by perpendicular
/// distance; the owning component is the diagnosis and the projection
/// parameter estimates the deviation.
#pragma once

#include <string>
#include <vector>

#include "core/trajectory.hpp"
#include "linalg/simd.hpp"

namespace ftdiag::core {

/// Distance of an observed point to one whole trajectory.
struct TrajectoryMatch {
  std::string site;
  double distance = 0.0;            ///< to the closest segment
  std::size_t segment_index = 0;
  double t = 0.0;                   ///< projection parameter on that segment
  double estimated_deviation = 0.0; ///< interpolated along the segment
};

/// Full diagnosis result: candidates ordered by ascending distance.
/// DiagnosisEngine::diagnose guarantees a non-empty ranking (one match per
/// trajectory); a default-constructed Diagnosis has none.
struct Diagnosis {
  std::vector<TrajectoryMatch> ranking;  ///< best first

  /// The top-ranked match.  \throws ConfigError on an empty ranking (which
  /// only a default-constructed Diagnosis can have).
  [[nodiscard]] const TrajectoryMatch& best() const;

  /// Margin in (0, 1]: 1 - d_best/d_second.  1 when unambiguous (single
  /// candidate), ~0 when the two best trajectories are equidistant.
  /// \throws ConfigError on an empty ranking.
  [[nodiscard]] double confidence() const;

  /// Sites whose distance is within \p factor of the best — the ambiguity
  /// set a cautious test program would report.
  [[nodiscard]] std::vector<std::string> ambiguity_set(
      double factor = 1.25) const;
};

/// Nearest-trajectory classifier over a fixed trajectory set.
class DiagnosisEngine {
public:
  /// \throws ConfigError on an empty or dimension-mismatched set.
  explicit DiagnosisEngine(std::vector<FaultTrajectory> trajectories);

  [[nodiscard]] const std::vector<FaultTrajectory>& trajectories() const {
    return trajectories_;
  }
  [[nodiscard]] std::size_t dimension() const {
    return trajectories_.front().dimension();
  }

  /// Diagnose an observed signature point.
  /// \throws ConfigError if the point dimension mismatches.
  ///
  /// The segment scoring runs on the SoA planes below, several segments
  /// per SIMD lane (ScalarPack in an FTDIAG_SIMD=OFF build).  Both widths
  /// evaluate exactly the formulas of diagnose_scalar() in the same
  /// order, with first-minimal-segment tie-breaking preserved.
  [[nodiscard]] Diagnosis diagnose(const Point& observed) const;

  /// The original per-segment scalar loop over project_point() — the
  /// differential twin of diagnose(), kept public so tests can pin the
  /// two against each other on any input.
  [[nodiscard]] Diagnosis diagnose_scalar(const Point& observed) const;

  /// All trajectories' segments flattened into coordinate-major SoA
  /// planes: coordinate k of segment s (global index) lives at
  /// [k * total + s] — a at the segment start, d = b - a its direction.
  /// Trajectory ti owns the contiguous range [first[ti],
  /// first[ti] + count[ti]).  Built once at construction so diagnose()
  /// allocates nothing per call.
  struct SegmentSoa {
    std::size_t total = 0;  ///< segment count over all trajectories
    std::size_t dim = 0;
    std::vector<std::size_t> first, count;  ///< per trajectory
    linalg::simd::AlignedVector a, d;
  };

private:
  std::vector<FaultTrajectory> trajectories_;
  SegmentSoa soa_;
};

}  // namespace ftdiag::core
