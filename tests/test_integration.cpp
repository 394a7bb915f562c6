/// End-to-end reproduction of the paper's flow, asserted quantitatively:
/// fault simulation -> dictionary -> GA (paper parameters) -> trajectory
/// separation -> diagnosis of unknown faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "circuits/nf_biquad.hpp"
#include "circuits/registry.hpp"
#include "core/ambiguity.hpp"
#include "core/evaluation.hpp"
#include "faults/fault_injector.hpp"
#include "mna/ac_analysis.hpp"
#include "mna/tone_extraction.hpp"
#include "mna/transient.hpp"
#include "session.hpp"
#include "util/rng.hpp"

namespace ftdiag {
namespace {

class PaperFlowTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    session_ = new Session(Session::open("builtin:nf_biquad"));
    result_ = new TestGenResult(session_->run_search());
  }
  static void TearDownTestSuite() {
    delete result_;
    delete session_;
    result_ = nullptr;
    session_ = nullptr;
  }
  static Session* session_;
  static TestGenResult* result_;
};

Session* PaperFlowTest::session_ = nullptr;
TestGenResult* PaperFlowTest::result_ = nullptr;

TEST_F(PaperFlowTest, DictionaryMatchesPaperSpec) {
  // 7 passives x 8 deviations (60%..140% in 10% steps, nominal excluded).
  EXPECT_EQ(session_->dictionary()->fault_count(), 56u);
  EXPECT_EQ(session_->dictionary()->site_labels().size(), 7u);
}

TEST_F(PaperFlowTest, GaAchievesZeroIntersections) {
  EXPECT_EQ(result_->best.intersections, 0u);
  EXPECT_DOUBLE_EQ(result_->best.fitness, 1.0);
}

TEST_F(PaperFlowTest, TestVectorHasTwoFrequenciesInBand) {
  ASSERT_EQ(result_->best.vector.frequencies_hz.size(), 2u);
  for (double f : result_->best.vector.frequencies_hz) {
    EXPECT_GE(f, session_->cut().band_low_hz);
    EXPECT_LE(f, session_->cut().band_high_hz);
  }
}

TEST_F(PaperFlowTest, CleanDiagnosisAccuracyAboveNinetyPercent) {
  core::EvaluationOptions options;
  options.trials = 300;
  const auto report = core::evaluate_diagnosis(
      session_->cut(), *session_->dictionary(), result_->best.vector,
      core::SamplingPolicy{}, options);
  EXPECT_GT(report.site_accuracy, 0.90);
  EXPECT_GT(report.top2_accuracy, 0.97);
  EXPECT_LT(report.mean_deviation_error, 0.03);
}

TEST_F(PaperFlowTest, OptimizedVectorBeatsNaiveVector) {
  // A naive vector (two near-identical low frequencies) must not out-score
  // the GA's choice, and should diagnose worse.
  const auto naive_score = session_->score({{15.0, 18.0}});
  EXPECT_LE(naive_score.fitness, result_->best.fitness);

  core::EvaluationOptions options;
  options.trials = 200;
  options.noise_sigma = 0.005;
  const auto naive_report = core::evaluate_diagnosis(
      session_->cut(), *session_->dictionary(), {{15.0, 18.0}},
      core::SamplingPolicy{}, options);
  const auto best_report = core::evaluate_diagnosis(
      session_->cut(), *session_->dictionary(), result_->best.vector,
      core::SamplingPolicy{}, options);
  EXPECT_GT(best_report.site_accuracy, naive_report.site_accuracy);
}

TEST_F(PaperFlowTest, UnknownOffGridFaultDiagnosedLikeFig3) {
  // The paper's Fig. 3 demo: an unknown fault (off the 10% grid) lands
  // nearest to its own component's trajectory.
  const auto engine = session_->evaluator().make_engine(result_->best.vector);
  const faults::ParametricFault unknown{faults::FaultSite::value_of("R3"),
                                        0.23};
  const auto faulty = faults::inject(session_->cut().circuit, unknown);
  mna::AcAnalysis analysis(faulty);
  const auto measured =
      analysis.sweep(result_->best.vector.frequencies_hz,
                     session_->cut().output_node);
  const auto observed = session_->evaluator().sampler().sample(
      measured, result_->best.vector.frequencies_hz);
  const auto diagnosis = engine.diagnose(observed);
  EXPECT_EQ(diagnosis.best().site, "R3");
  EXPECT_NEAR(diagnosis.best().estimated_deviation, 0.23, 0.05);
}

TEST_F(PaperFlowTest, TrajectoriesSmoothAndThroughOrigin) {
  const auto trajectories =
      session_->evaluator().trajectories(result_->best.vector);
  for (const auto& t : trajectories) {
    EXPECT_EQ(t.point_count(), 9u);
    bool has_origin = false;
    for (const auto& p : t.points()) {
      has_origin |= p.deviation == 0.0 && core::norm(p.coords) < 1e-12;
    }
    EXPECT_TRUE(has_origin) << t.site();
  }
}

TEST(RegistryFlow, EveryCircuitSupportsTheFullPipeline) {
  // The method must run end-to-end on every registry circuit (a smaller GA
  // keeps this test quick).  Fitness saturation differs per topology.
  SearchOptions search;
  search.ga.population_size = 24;
  search.ga.generations = 4;
  for (const auto& name : circuits::registry_names()) {
    SCOPED_TRACE(name);
    const Session session =
        SessionBuilder::from_registry(name).search(search).build();
    const auto result = session.run_search();
    EXPECT_GT(result.best.fitness, 0.0);
    EXPECT_EQ(result.best.vector.frequencies_hz.size(), 2u);
    const auto groups = core::find_ambiguity_groups(*session.dictionary());
    EXPECT_GE(groups.size(), 1u);
    EXPECT_LE(groups.size(), session.dictionary()->site_labels().size());
  }
}

TEST(PaperPins, NoisyIncomingInspectionLocatesAtLeast18Of20) {
  // The incoming-inspection scenario of examples/diagnose_unknown.cpp:
  // twenty random off-grid single faults, each measured at the hybrid-
  // fitness vector with 0.2% magnitude noise, diagnosed in one batch.
  Session session = SessionBuilder::from_registry("nf_biquad")
                        .fitness(FitnessKind::kHybrid)
                        .noise({0.002, 2024})
                        .build();
  (void)session.generate_tests();

  Rng rng(2024);
  constexpr std::size_t kBoards = 20;
  const auto& testable = session.cut().testable;
  std::vector<faults::ParametricFault> injected;
  std::vector<core::Point> observed;
  for (std::size_t board = 0; board < kBoards; ++board) {
    const auto& site = testable[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(testable.size()) - 1))];
    const double magnitude = rng.uniform(0.08, 0.40);
    injected.push_back({faults::FaultSite::value_of(site),
                        rng.bernoulli(0.5) ? magnitude : -magnitude});
    observed.push_back(
        session.observe(session.measure(injected.back(), rng())));
  }
  const auto diagnoses = session.diagnose_batch(observed);
  std::size_t correct = 0;
  for (std::size_t board = 0; board < kBoards; ++board) {
    correct += diagnoses[board].best().site == injected[board].site.label();
  }
  EXPECT_GE(correct, 18u);
}

TEST(PaperPins, TimeDomainTwoToneMeasurementDiagnosesAllThree) {
  // The bench scenario of examples/time_domain_test.cpp: the test vector
  // is applied as a two-tone transient stimulus and the tone amplitudes
  // are recovered with Goertzel correlation before diagnosis.
  Session session = SessionBuilder::from_registry("nf_biquad")
                        .fitness(FitnessKind::kHybrid)
                        .build();
  core::TestVector vector = session.generate_tests().best.vector;

  // Coherent sampling: both tones on the df = 1/T_window grid.
  const double record_s = 24.0 / vector.frequencies_hz[0];
  const double df = 2.0 / record_s;
  for (double& f : vector.frequencies_hz) {
    f = std::max(1.0, std::round(f / df)) * df;
  }
  vector.normalize();
  const double f1 = vector.frequencies_hz[0];
  const double f2 = vector.frequencies_hz[1];
  session.use_vector(vector);
  const auto& cut = session.cut();

  mna::TransientSpec spec;
  const std::size_t steps_total =
      static_cast<std::size_t>(std::llround(record_s * f2)) * 96;
  spec.dt = record_s / static_cast<double>(steps_total);
  spec.t_stop = record_s;
  spec.waveforms["vin"] = mna::SourceWaveform::tone_set({f1, f2});

  const faults::ParametricFault boards[] = {
      {faults::FaultSite::value_of("R2"), 0.27},
      {faults::FaultSite::value_of("C1"), -0.33},
      {faults::FaultSite::value_of("Ra"), 0.15},
  };
  for (const auto& fault : boards) {
    SCOPED_TRACE(fault.label());
    mna::TransientAnalysis transient(faults::inject(cut.circuit, fault));
    const auto record = transient.run(spec, {cut.output_node});
    const auto tones = mna::extract_tones(
        record.time_s, record.node(cut.output_node), {f1, f2});
    const mna::AcResponse measured(
        vector.frequencies_hz,
        {mna::Complex(tones[0].phasor), mna::Complex(tones[1].phasor)});
    EXPECT_EQ(session.diagnose(measured).best().site, fault.site.label());
  }
}

/// Bit-exact equality of two responses.
void expect_identical(const mna::AcResponse& a, const mna::AcResponse& b) {
  ASSERT_EQ(a.frequencies(), b.frequencies());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.value(i).real(), b.value(i).real()) << "sample " << i;
    EXPECT_EQ(a.value(i).imag(), b.value(i).imag()) << "sample " << i;
  }
}

TEST(SessionMeasure, IsANoisySweepOfTheInjectedBoard) {
  // Session::measure is exactly inject -> AC sweep at the active vector
  // -> multiplicative magnitude noise, for value and op-amp faults alike.
  circuits::NfBiquadDesign design;
  design.ideal_opamps = false;
  const circuits::CircuitUnderTest cut = circuits::make_nf_biquad(design);
  Session session = SessionBuilder(cut).noise({0.01, 77}).build();
  session.use_vector({{700.0, 1600.0}});
  const std::vector<double> freqs = session.vector().frequencies_hz;

  const faults::ParametricFault value_fault{faults::FaultSite::value_of("R2"),
                                            0.23};
  const faults::ParametricFault opamp_fault{
      faults::FaultSite::opamp_param_of("OA1", netlist::OpAmpParam::kGbw),
      -0.30};
  for (const auto& fault : {value_fault, opamp_fault}) {
    SCOPED_TRACE(fault.label());
    const mna::AcResponse clean =
        mna::AcAnalysis(faults::inject(cut.circuit, fault))
            .sweep(freqs, cut.output_node);
    expect_identical(session.measure(fault),
                     faults::add_measurement_noise(clean, {0.01, 77}));
    expect_identical(session.measure(fault, 5),
                     faults::add_measurement_noise(clean, {0.01, 5}));
  }
}

}  // namespace
}  // namespace ftdiag
