#include "core/detection.hpp"

#include <algorithm>
#include <cmath>

#include "faults/fault_injector.hpp"
#include "mna/ac_analysis.hpp"
#include "util/error.hpp"

namespace ftdiag::core {

namespace {

/// Signature of one board (optionally noisy) at the test frequencies.
Point measure_board(const netlist::Circuit& board,
                    const circuits::CircuitUnderTest& cut,
                    const SpectralSampler& sampler, const TestVector& vector,
                    double noise_sigma, Rng& rng) {
  mna::AcAnalysis analysis(board);
  mna::AcResponse response =
      analysis.sweep(vector.frequencies_hz, cut.output_node);
  if (noise_sigma > 0.0) {
    response = faults::add_measurement_noise(response, {noise_sigma, rng()});
  }
  return sampler.sample(response, vector.frequencies_hz);
}

}  // namespace

FaultDetector FaultDetector::calibrate(
    const circuits::CircuitUnderTest& cut,
    const faults::FaultDictionary& dictionary, const TestVector& vector,
    const SamplingPolicy& policy, const DetectionCalibration& calibration) {
  if (calibration.healthy_boards < 10) {
    throw ConfigError("detector calibration needs >= 10 healthy boards");
  }
  if (!(calibration.false_alarm_target > 0.0) ||
      calibration.false_alarm_target >= 1.0) {
    throw ConfigError("false-alarm target must lie in (0, 1)");
  }
  TestVector tv = vector;
  tv.normalize();
  if (tv.frequencies_hz.empty()) {
    throw ConfigError("detector needs a non-empty test vector");
  }

  const SpectralSampler sampler(dictionary.golden(), policy);
  Rng rng(calibration.seed);

  FaultDetector detector;
  detector.healthy_radii_.reserve(calibration.healthy_boards);
  for (std::size_t i = 0; i < calibration.healthy_boards; ++i) {
    const auto board = faults::perturb_within_tolerance(
        cut.circuit, calibration.tolerance, rng);
    const Point p = measure_board(board, cut, sampler, tv,
                                  calibration.noise_sigma, rng);
    detector.healthy_radii_.push_back(norm(p));
  }
  std::sort(detector.healthy_radii_.begin(), detector.healthy_radii_.end());

  // Quantile at (1 - false-alarm target), clamped to the sample.
  const double q = 1.0 - calibration.false_alarm_target;
  const std::size_t index = std::min(
      detector.healthy_radii_.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(
                                       detector.healthy_radii_.size())));
  detector.threshold_ = detector.healthy_radii_[index];
  // A fully nominal calibration (zero tolerance, zero noise) collapses the
  // cloud to ~0; keep a sane numeric floor.
  detector.threshold_ = std::max(detector.threshold_, 1e-12);
  return detector;
}

bool FaultDetector::is_faulty(const Point& observed) const {
  return norm(observed) > threshold_;
}

CoverageReport measure_coverage(const circuits::CircuitUnderTest& cut,
                                const faults::FaultDictionary& dictionary,
                                const TestVector& vector,
                                const SamplingPolicy& policy,
                                const FaultDetector& detector,
                                const DetectionCalibration& calibration,
                                const CoverageOptions& options) {
  if (options.faults_per_site == 0) {
    throw ConfigError("coverage needs >= 1 fault per site");
  }
  TestVector tv = vector;
  tv.normalize();
  const SpectralSampler sampler(dictionary.golden(), policy);
  Rng rng(options.seed);

  CoverageReport report;
  std::size_t detected_total = 0, faults_total = 0;
  for (const auto& label : dictionary.site_labels()) {
    const std::size_t first = dictionary.entries_for(label).front();
    const faults::FaultSite site = dictionary.entries()[first].fault.site;

    SiteCoverage coverage;
    coverage.site = label;
    coverage.total = options.faults_per_site;
    for (std::size_t i = 0; i < options.faults_per_site; ++i) {
      const double magnitude =
          rng.uniform(options.min_abs_deviation, options.max_abs_deviation);
      const faults::ParametricFault fault{
          site, rng.bernoulli(0.5) ? magnitude : -magnitude};
      netlist::Circuit board = faults::perturb_within_tolerance(
          cut.circuit, calibration.tolerance, rng,
          site.target == faults::FaultSite::Target::kComponentValue
              ? std::vector<std::string>{site.component}
              : std::vector<std::string>{});
      board = faults::inject(board, fault);
      const Point p = measure_board(board, cut, sampler, tv,
                                    calibration.noise_sigma, rng);
      coverage.detected += detector.is_faulty(p) ? 1 : 0;
    }
    detected_total += coverage.detected;
    faults_total += coverage.total;
    report.per_site.push_back(coverage);
  }
  report.overall_coverage =
      static_cast<double>(detected_total) / static_cast<double>(faults_total);

  // Fresh healthy boards for the realized false-alarm rate.
  std::size_t false_alarms = 0;
  for (std::size_t i = 0; i < options.healthy_boards; ++i) {
    const auto board = faults::perturb_within_tolerance(
        cut.circuit, calibration.tolerance, rng);
    const Point p = measure_board(board, cut, sampler, tv,
                                  calibration.noise_sigma, rng);
    false_alarms += detector.is_faulty(p) ? 1 : 0;
  }
  report.false_alarm_rate = static_cast<double>(false_alarms) /
                            static_cast<double>(options.healthy_boards);
  return report;
}

}  // namespace ftdiag::core
