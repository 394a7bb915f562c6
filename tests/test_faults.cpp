#include <gtest/gtest.h>

#include "circuits/nf_biquad.hpp"
#include "faults/fault.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_universe.hpp"
#include "mna/ac_analysis.hpp"
#include "util/error.hpp"

namespace ftdiag::faults {
namespace {

TEST(Fault, Labels) {
  const ParametricFault f1{FaultSite::value_of("R3"), 0.30};
  EXPECT_EQ(f1.label(), "R3+30%");
  const ParametricFault f2{FaultSite::value_of("C1"), -0.10};
  EXPECT_EQ(f2.label(), "C1-10%");
  const ParametricFault f3{
      FaultSite::opamp_param_of("OA1", netlist::OpAmpParam::kGbw), 0.20};
  EXPECT_EQ(f3.label(), "OA1.gbw+20%");
}

TEST(Fault, MultiplierAndNominal) {
  const ParametricFault f{FaultSite::value_of("R1"), -0.40};
  EXPECT_DOUBLE_EQ(f.multiplier(), 0.60);
  EXPECT_FALSE(f.is_nominal());
  const ParametricFault nominal{FaultSite::value_of("R1"), 0.0};
  EXPECT_TRUE(nominal.is_nominal());
}

TEST(DeviationSpec, PaperGridHasEightSteps) {
  const auto devs = DeviationSpec::paper().deviations();
  ASSERT_EQ(devs.size(), 8u);  // -40..-10, +10..+40
  EXPECT_DOUBLE_EQ(devs.front(), -0.40);
  EXPECT_DOUBLE_EQ(devs.back(), 0.40);
  for (double d : devs) EXPECT_NE(d, 0.0);
}

TEST(DeviationSpec, IncludeNominalAddsZero) {
  DeviationSpec spec;
  spec.include_nominal = true;
  const auto devs = spec.deviations();
  EXPECT_EQ(devs.size(), 9u);
  EXPECT_DOUBLE_EQ(devs[4], 0.0);
}

TEST(DeviationSpec, GridValuesAreExact) {
  const auto devs = DeviationSpec::paper().deviations();
  EXPECT_DOUBLE_EQ(devs[1], -0.30);  // no 0.30000000000000004 artifacts
  EXPECT_DOUBLE_EQ(devs[5], 0.20);
}

TEST(DeviationSpec, InvalidSpecsThrow) {
  DeviationSpec bad_step;
  bad_step.step_fraction = 0.0;
  EXPECT_THROW(bad_step.deviations(), ConfigError);

  DeviationSpec inverted;
  inverted.min_fraction = 0.4;
  inverted.max_fraction = -0.4;
  EXPECT_THROW(inverted.deviations(), ConfigError);

  DeviationSpec beyond_short;
  beyond_short.min_fraction = -1.0;
  EXPECT_THROW(beyond_short.deviations(), ConfigError);
}

TEST(Universe, OverTestableEnumeratesSitesTimesDeviations) {
  const auto cut = circuits::make_paper_cut();
  const auto universe = FaultUniverse::over_testable(cut);
  EXPECT_EQ(universe.sites().size(), 7u);
  EXPECT_EQ(universe.fault_count(), 56u);
  const auto faults = universe.enumerate();
  ASSERT_EQ(faults.size(), 56u);
  // Grouped by site, deviations ascending within a group.
  EXPECT_EQ(faults[0].site.label(), "Ra");
  EXPECT_DOUBLE_EQ(faults[0].deviation, -0.40);
  EXPECT_EQ(faults[8].site.label(), "Rb");
}

TEST(Universe, OpAmpParamsNeedMacroModels) {
  const auto ideal_cut = circuits::make_paper_cut();
  EXPECT_THROW(FaultUniverse::over_opamp_params(ideal_cut), ConfigError);

  circuits::NfBiquadDesign macro_design;
  macro_design.ideal_opamps = false;
  const auto macro_cut = circuits::make_nf_biquad(macro_design);
  const auto universe = FaultUniverse::over_opamp_params(macro_cut);
  EXPECT_EQ(universe.sites().size(), 4u);  // one op-amp, four params
  EXPECT_EQ(universe.sites()[0].label(), "OA1.ad0");
}

TEST(Injector, ScalesComponentValue) {
  const auto cut = circuits::make_paper_cut();
  const double nominal = cut.circuit.value_of("R2");
  const auto faulty =
      inject(cut.circuit, {FaultSite::value_of("R2"), 0.30});
  EXPECT_NEAR(faulty.value_of("R2"), nominal * 1.30, 1e-9);
  // Original untouched (value semantics).
  EXPECT_DOUBLE_EQ(cut.circuit.value_of("R2"), nominal);
}

TEST(Injector, ScalesOpAmpParameter) {
  circuits::NfBiquadDesign design;
  design.ideal_opamps = false;
  const auto cut = circuits::make_nf_biquad(design);
  const double nominal =
      cut.circuit.opamp_param("OA1", netlist::OpAmpParam::kGbw);
  const auto faulty = inject(
      cut.circuit,
      {FaultSite::opamp_param_of("OA1", netlist::OpAmpParam::kGbw), -0.20});
  EXPECT_NEAR(faulty.opamp_param("OA1", netlist::OpAmpParam::kGbw),
              nominal * 0.80, 1e-6);
}

TEST(Injector, UnknownSiteThrows) {
  const auto cut = circuits::make_paper_cut();
  EXPECT_THROW(inject(cut.circuit, {FaultSite::value_of("R99"), 0.1}),
               CircuitError);
}

TEST(Injector, MultiFault) {
  const auto cut = circuits::make_paper_cut();
  const auto faulty = inject_all(
      cut.circuit, {{FaultSite::value_of("R2"), 0.10},
                    {FaultSite::value_of("C1"), -0.10}});
  EXPECT_NEAR(faulty.value_of("R2"), cut.circuit.value_of("R2") * 1.1, 1e-9);
  EXPECT_NEAR(faulty.value_of("C1"), cut.circuit.value_of("C1") * 0.9, 1e-18);
}

/// AC response of the paper CUT with \p fault injected.
mna::AcResponse faulty_response(const ParametricFault& fault,
                                const std::vector<double>& freqs) {
  const auto cut = circuits::make_paper_cut();
  return mna::AcAnalysis(inject(cut.circuit, fault))
      .sweep(freqs, cut.output_node);
}

TEST(Injector, FaultyResponseDiffersFromGolden) {
  const auto cut = circuits::make_paper_cut();
  const std::vector<double> freqs = {100.0, 1000.0, 5000.0};
  const auto golden =
      mna::AcAnalysis(cut.circuit).sweep(freqs, cut.output_node);
  EXPECT_NEAR(golden.magnitude(0), 1.0, 1e-3);
  const auto faulty = faulty_response({FaultSite::value_of("C1"), 0.40}, freqs);
  EXPECT_GT(faulty.max_deviation(golden), 1e-4);
}

TEST(MeasurementNoise, ZeroSigmaIsIdentity) {
  const auto clean =
      faulty_response({FaultSite::value_of("R2"), 0.2}, {1000.0});
  const auto measured = add_measurement_noise(clean, {0.0, 1});
  EXPECT_DOUBLE_EQ(clean.magnitude(0), measured.magnitude(0));
}

TEST(MeasurementNoise, PerturbsMagnitudeOnly) {
  const auto clean =
      faulty_response({FaultSite::value_of("R2"), 0.2}, {1000.0});
  const auto noisy = add_measurement_noise(clean, {0.05, 99});
  EXPECT_NE(clean.magnitude(0), noisy.magnitude(0));
  // Phase preserved by multiplicative magnitude noise.
  EXPECT_NEAR(clean.phase_deg(0), noisy.phase_deg(0), 1e-9);
}

TEST(MeasurementNoise, IsDeterministicPerSeed) {
  const auto clean =
      faulty_response({FaultSite::value_of("C2"), 0.1}, {500.0, 2000.0});
  const auto a = add_measurement_noise(clean, {0.02, 7});
  const auto b = add_measurement_noise(clean, {0.02, 7});
  EXPECT_DOUBLE_EQ(a.magnitude(0), b.magnitude(0));
  EXPECT_DOUBLE_EQ(a.magnitude(1), b.magnitude(1));
}

}  // namespace
}  // namespace ftdiag::faults
