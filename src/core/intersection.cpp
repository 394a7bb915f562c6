#include "core/intersection.hpp"

#include <algorithm>
#include <cmath>

namespace ftdiag::core {

namespace {

/// Shared per-pair conflict test: counts (and optionally records) when
/// segments (i, si) and (j, sj), i < j, conflict.  Both sweeps call
/// exactly this, so they can only differ in which pairs they visit.
class PairTester {
public:
  PairTester(const FlatTrajectories& set, const IntersectionOptions& options,
             double scale, const double* origin)
      : set_(set),
        options_(options),
        origin_ball_(options.origin_exclusion * scale),
        near_cutoff_(options.near_threshold * scale),
        origin_(origin) {}

  void test(std::size_t i, std::size_t j, std::size_t si, std::size_t sj,
            IntersectionReport& report) const {
    const std::size_t dim = set_.dim;
    const double* a = set_.segment(i, si);
    const double* b = set_.segment(j, sj);

    if (dim == 2) {
      const Classification2d hit = classify_segments_2d(a, a + 2, b, b + 2);
      if (hit.relation == SegmentRelation::kDisjoint) return;
      if (hit.relation == SegmentRelation::kCollinearOverlap &&
          !options_.count_overlaps) {
        return;
      }
      // Structural contact at the shared golden point.
      if (std::sqrt(hit.at_x * hit.at_x + hit.at_y * hit.at_y) <=
          origin_ball_) {
        return;
      }
      ++report.count;
      if (options_.collect_conflicts) {
        report.conflicts.push_back({*set_.labels[i], *set_.labels[j], si, sj,
                                    {hit.at_x, hit.at_y}, 0.0});
      }
    } else {
      const double d = segment_segment_distance(a, a + dim, b, b + dim, dim);
      if (d > near_cutoff_) return;
      // Contact near the origin is structural when both segments pass
      // through the exclusion ball.
      const double a_to_origin = point_segment_distance(origin_, a, a + dim, dim);
      const double b_to_origin = point_segment_distance(origin_, b, b + dim, dim);
      if (a_to_origin <= origin_ball_ && b_to_origin <= origin_ball_) {
        return;
      }
      ++report.count;
      if (options_.collect_conflicts) {
        Point mid(dim, 0.0);
        for (std::size_t k = 0; k < dim; ++k) {
          mid[k] = 0.25 * (a[k] + a[dim + k] + b[k] + b[dim + k]);
        }
        report.conflicts.push_back({*set_.labels[i], *set_.labels[j], si, sj,
                                    std::move(mid), d});
      }
    }
  }

private:
  const FlatTrajectories& set_;
  const IntersectionOptions& options_;
  double origin_ball_;
  double near_cutoff_;
  const double* origin_;
};

/// The reference sweep: every segment pair of every trajectory pair, in
/// (i, j, si, sj) lexicographic order.
void exact_sweep(const FlatTrajectories& set, const PairTester& tester,
                 IntersectionReport& report) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      for (std::size_t si = 0; si < set.segment_count(i); ++si) {
        for (std::size_t sj = 0; sj < set.segment_count(j); ++sj) {
          tester.test(i, j, si, sj, report);
        }
      }
    }
  }
}

/// Sort-and-sweep over padded boxes on the first (up to) three axes: boxes
/// sorted by their low edge on the widest axis meet only the later boxes
/// whose low edge lies inside their extent, and a pair is tested when the
/// boxes overlap on every boxed axis.  Count-only calls test pairs as the
/// sweep finds them (a count cannot depend on visit order); collecting
/// calls first sort the candidates into the exact sweep's (i, j, si, sj)
/// order, so both sweeps emit identical reports.
void sort_and_sweep(const FlatTrajectories& set, const PairTester& tester,
                    double pad, bool ordered, IntersectionReport& report) {
  constexpr std::size_t kAxes = 3;
  const std::size_t dim = set.dim;
  const std::size_t axes = std::min(dim, kAxes);
  struct Box {
    double lo[kAxes];
    double hi[kAxes];
    std::uint32_t traj;
    std::uint32_t seg;
  };
  struct CandidatePair {
    std::uint32_t i, j, si, sj;
    [[nodiscard]] bool operator<(const CandidatePair& o) const {
      if (i != o.i) return i < o.i;
      if (j != o.j) return j < o.j;
      if (si != o.si) return si < o.si;
      return sj < o.sj;
    }
  };
  // Reused across calls on the same thread: the GA scores thousands of
  // genomes per lane, and a count-only call then allocates nothing.
  thread_local std::vector<Box> boxes;
  thread_local std::vector<CandidatePair> candidates;
  boxes.clear();
  candidates.clear();

  double span_lo[kAxes] = {0.0, 0.0, 0.0};
  double span_hi[kAxes] = {0.0, 0.0, 0.0};
  for (std::size_t t = 0; t < set.size(); ++t) {
    for (std::size_t s = 0; s < set.segment_count(t); ++s) {
      const double* a = set.segment(t, s);
      const double* b = a + dim;
      Box box{};
      box.traj = static_cast<std::uint32_t>(t);
      box.seg = static_cast<std::uint32_t>(s);
      for (std::size_t d = 0; d < axes; ++d) {
        box.lo[d] = std::min(a[d], b[d]) - pad;
        box.hi[d] = std::max(a[d], b[d]) + pad;
        span_lo[d] = boxes.empty() ? box.lo[d] : std::min(span_lo[d], box.lo[d]);
        span_hi[d] = boxes.empty() ? box.hi[d] : std::max(span_hi[d], box.hi[d]);
      }
      boxes.push_back(box);
    }
  }
  std::size_t axis = 0;
  for (std::size_t d = 1; d < axes; ++d) {
    if (span_hi[d] - span_lo[d] > span_hi[axis] - span_lo[axis]) axis = d;
  }
  std::sort(boxes.begin(), boxes.end(), [axis](const Box& x, const Box& y) {
    return x.lo[axis] < y.lo[axis];
  });

  for (std::size_t p = 0; p < boxes.size(); ++p) {
    const Box& a = boxes[p];
    for (std::size_t q = p + 1;
         q < boxes.size() && boxes[q].lo[axis] <= a.hi[axis]; ++q) {
      const Box& b = boxes[q];
      if (a.traj == b.traj) continue;
      bool overlap = true;
      for (std::size_t d = 0; d < axes && overlap; ++d) {
        overlap = a.lo[d] <= b.hi[d] && b.lo[d] <= a.hi[d];
      }
      if (!overlap) continue;
      const Box& first = a.traj < b.traj ? a : b;
      const Box& second = a.traj < b.traj ? b : a;
      if (ordered) {
        candidates.push_back({first.traj, second.traj, first.seg, second.seg});
      } else {
        tester.test(first.traj, second.traj, first.seg, second.seg, report);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  for (const CandidatePair& c : candidates) {
    tester.test(c.i, c.j, c.si, c.sj, report);
  }
}

}  // namespace

IntersectionReport count_intersections(const FlatTrajectories& trajectories,
                                       const IntersectionOptions& options) {
  IntersectionReport report;
  if (trajectories.size() < 2) return report;

  const double excursion = trajectories.max_excursion();
  const double scale = excursion > 0.0 ? excursion : 1.0;
  thread_local std::vector<double> origin;
  if (origin.size() < trajectories.dim) origin.resize(trajectories.dim, 0.0);
  const PairTester tester(trajectories, options, scale, origin.data());

  // Box edges must order strictly for the sort; a non-finite coordinate
  // (a dB signature of an exact zero) takes the reference sweep instead.
  const bool finite =
      std::all_of(trajectories.coords.begin(), trajectories.coords.end(),
                  [](double v) { return std::isfinite(v); });
  if (options.algorithm == IntersectionAlgorithm::kExact || !finite) {
    exact_sweep(trajectories, tester, report);
  } else {
    // 2-D predicates tolerate ~1e-12 relative slack, which a 1e-9 pad
    // (relative to the scale, plus absolute slack) dwarfs; segments within
    // the near-miss cutoff d are within d on every axis, so d/2 a side.
    const double pad =
        (trajectories.dim == 2 ? 0.0 : 0.5 * (options.near_threshold * scale)) +
        1e-9 * (scale + 1.0);
    sort_and_sweep(trajectories, tester, pad, options.collect_conflicts,
                   report);
  }
  return report;
}

IntersectionReport count_intersections(
    const std::vector<FaultTrajectory>& trajectories,
    const IntersectionOptions& options) {
  thread_local FlatTrajectories set;
  set.assign(trajectories);
  return count_intersections(set, options);
}

}  // namespace ftdiag::core
