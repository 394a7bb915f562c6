/// \file evaluation.hpp
/// \brief Quantitative diagnosis evaluation: inject off-dictionary unknown
/// faults, diagnose them with a test vector, and score site accuracy,
/// deviation error and confusion — the statistics behind the Ext-B
/// benchmark (the paper demonstrates the mechanism but reports no rates).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "circuits/cut.hpp"
#include "core/test_vector.hpp"
#include "faults/tolerance.hpp"

namespace ftdiag::core {

struct EvaluationOptions {
  std::size_t trials = 200;
  std::uint64_t seed = 7;
  /// Unknown-fault deviation magnitude range (sign drawn at random).
  double min_abs_deviation = 0.05;
  double max_abs_deviation = 0.40;
  /// Multiplicative gaussian measurement noise (sigma, 0 disables).
  double noise_sigma = 0.0;
  /// Perturb non-faulty components within tolerance when set.
  std::optional<faults::ToleranceSpec> tolerance;
};

/// Square confusion matrix over site labels (+ implicit ordering).
struct ConfusionMatrix {
  std::vector<std::string> labels;
  /// counts[truth][predicted].
  std::vector<std::vector<std::size_t>> counts;

  [[nodiscard]] std::size_t total() const;
  [[nodiscard]] std::size_t correct() const;
  [[nodiscard]] double accuracy() const;

  /// Rate at which \p truth_label was predicted correctly.
  [[nodiscard]] double recall(const std::string& truth_label) const;
};

struct AccuracyReport {
  std::size_t trials = 0;
  std::size_t correct_site = 0;
  double site_accuracy = 0.0;
  /// Accuracy at ambiguity-group resolution: a prediction inside the true
  /// site's structural ambiguity group counts as correct (the best any
  /// method can do; see core/ambiguity.hpp).
  double group_accuracy = 0.0;
  /// Labels of the detected ambiguity groups ("R4=R6", "R1", ...).
  std::vector<std::string> ambiguity_groups;
  /// Mean |estimated - true| deviation among correctly-located faults.
  double mean_deviation_error = 0.0;
  double mean_confidence = 0.0;
  /// Trials where the true site was within the top-2 ranking.
  double top2_accuracy = 0.0;
  ConfusionMatrix confusion;
};

/// Monte-Carlo diagnosis accuracy of \p vector on \p cut, with faults drawn
/// from the dictionary's sites at off-grid deviations.
/// \throws ConfigError on inconsistent inputs.
[[nodiscard]] AccuracyReport evaluate_diagnosis(
    const circuits::CircuitUnderTest& cut,
    const faults::FaultDictionary& dictionary, const TestVector& vector,
    const SamplingPolicy& policy, const EvaluationOptions& options = {});

}  // namespace ftdiag::core
