/// \file intersection.hpp
/// \brief Counting pathway conflicts between fault trajectories — the
/// quantity I in the paper's fitness 1/(1+I).
///
/// All trajectories share the origin (the golden point), so contacts at the
/// origin are structural and are excluded.  In 2-D (two test frequencies)
/// crossings are counted exactly with the robust segment predicates; in
/// higher dimensions, where generic polylines do not cross exactly, a pair
/// of segments closer than a relative epsilon counts as a conflict.
///
/// Two sweep algorithms produce the same report: the exact all-pairs sweep
/// (O(sites^2 x segments^2) predicate calls) and a sort-and-sweep that
/// gives every segment a conservatively padded bounding box, sorts the
/// boxes along their widest axis and runs the predicates only on pairs of
/// different trajectories whose boxes overlap on every boxed axis.  The
/// pad exceeds any slack the predicates allow, so no pair the predicates
/// would count is ever skipped.  The sort-and-sweep is the default; the
/// exact sweep is the test oracle.
///
/// Both read the flat trajectory layout (core/trajectory.hpp); the
/// FaultTrajectory overload flattens once and forwards.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trajectory.hpp"

namespace ftdiag::core {

/// One counted conflict.
struct TrajectoryConflict {
  std::string site_a;
  std::string site_b;
  std::size_t segment_a = 0;  ///< segment index within trajectory a
  std::size_t segment_b = 0;
  Point at;                   ///< representative conflict location
  double separation = 0.0;    ///< 0 for exact crossings, distance for near
};

struct IntersectionReport {
  std::size_t count = 0;  ///< I of the paper's fitness
  std::vector<TrajectoryConflict> conflicts;
};

/// Which candidate-pair sweep count_intersections runs.  Both produce
/// identical reports (same conflicts, same order); kPruned only skips
/// segment pairs whose padded bounding boxes do not overlap, which
/// provably cannot conflict.
enum class IntersectionAlgorithm : std::uint8_t {
  kPruned,  ///< sort-and-sweep over padded segment boxes (default)
  kExact,   ///< the all-pairs reference sweep (the test oracle)
};

struct IntersectionOptions {
  /// Contacts closer than origin_exclusion * (largest trajectory excursion)
  /// to the origin are treated as the structural origin contact.
  double origin_exclusion = 1e-6;
  /// n-D (n > 2) near-miss threshold as a fraction of the largest
  /// trajectory excursion.
  double near_threshold = 1e-3;
  /// Count collinear overlaps (shared pathways) as conflicts.  The paper's
  /// fitness penalizes "common pathways" explicitly.
  bool count_overlaps = true;
  /// Candidate-pair sweep; kExact is the differential-testing reference.
  IntersectionAlgorithm algorithm = IntersectionAlgorithm::kPruned;
  /// Record per-conflict metadata.  The GA's fitness only needs the count,
  /// so its inner loop turns this off and skips the site-label/location
  /// bookkeeping (the count is identical either way).
  bool collect_conflicts = true;
};

/// Count conflicts between every pair of distinct trajectories.  A
/// count-only call (collect_conflicts off) allocates nothing once the
/// calling thread's sweep buffers are warm.
[[nodiscard]] IntersectionReport count_intersections(
    const FlatTrajectories& trajectories,
    const IntersectionOptions& options = {});

/// Same, flattening \p trajectories first.
/// \throws ConfigError if trajectories have mismatched dimensions.
[[nodiscard]] IntersectionReport count_intersections(
    const std::vector<FaultTrajectory>& trajectories,
    const IntersectionOptions& options = {});

}  // namespace ftdiag::core
