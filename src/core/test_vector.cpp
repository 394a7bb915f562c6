#include "core/test_vector.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace ftdiag::core {

std::string TestVector::label() const {
  std::string out;
  for (std::size_t i = 0; i < frequencies_hz.size(); ++i) {
    if (i != 0) out += ' ';
    out += str::format("f%zu=%s", i + 1,
                       units::format_hz(frequencies_hz[i]).c_str());
  }
  return out;
}

void TestVector::normalize() {
  std::sort(frequencies_hz.begin(), frequencies_hz.end());
}

TestVectorEvaluator::TestVectorEvaluator(
    const faults::FaultDictionary& dictionary, SamplingPolicy policy,
    std::shared_ptr<const TrajectoryFitness> fitness)
    : dictionary_(dictionary),
      policy_(policy),
      fitness_(fitness ? std::move(fitness)
                       : std::make_shared<IntersectionFitness>()),
      sampler_(dictionary.golden(), policy) {
  if (dictionary_.fault_count() == 0) {
    throw ConfigError("test-vector evaluator needs a non-empty dictionary");
  }
}

std::vector<FaultTrajectory> TestVectorEvaluator::trajectories(
    const TestVector& candidate) const {
  if (candidate.frequencies_hz.empty()) {
    throw ConfigError("test vector has no frequencies");
  }
  return build_trajectories(dictionary_, candidate.frequencies_hz, policy_);
}

double TestVectorEvaluator::fitness(const TestVector& candidate) const {
  return fitness_->evaluate(trajectories(candidate));
}

TestVectorScore TestVectorEvaluator::score(const TestVector& candidate) const {
  const std::vector<FaultTrajectory> trajs = trajectories(candidate);
  FlatTrajectories flat;
  flat.assign(trajs);
  IntersectionOptions count_only;
  count_only.collect_conflicts = false;
  TestVectorScore out;
  out.vector = candidate;
  out.fitness = fitness_->evaluate(flat);
  out.intersections = count_intersections(flat, count_only).count;
  out.separation_margin = SeparationFitness().margin(flat);
  return out;
}

DiagnosisEngine TestVectorEvaluator::make_engine(
    const TestVector& accepted) const {
  return DiagnosisEngine(trajectories(accepted));
}

}  // namespace ftdiag::core
