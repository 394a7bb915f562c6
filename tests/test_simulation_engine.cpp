/// Differential tests of the parallel fault-simulation engine: for every
/// registry circuit the engine's responses must match the naive serial
/// inject-and-sweep path — bit-exactly with factorization reuse off, and
/// within a tight relative bound with Sherman–Morrison reuse on — and must
/// be bit-identical for any thread count.
#include "faults/simulation_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "circuits/ladders.hpp"
#include "circuits/nf_biquad.hpp"
#include "circuits/registry.hpp"
#include "faults/dictionary.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_universe.hpp"
#include "mna/ac_analysis.hpp"
#include "mna/frequency_grid.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace ftdiag::faults {
namespace {

/// Reduced grid so the whole-registry differential sweep stays fast.
std::vector<double> test_grid(const circuits::CircuitUnderTest& cut) {
  return mna::FrequencyGrid::log_sweep(cut.band_low_hz, cut.band_high_hz, 40)
      .frequencies();
}

struct Reference {
  mna::AcResponse golden;
  std::vector<mna::AcResponse> responses;
};

/// The naive serial path, written out independently of the engine: one
/// full assemble + factorize + solve per fault x frequency.
Reference naive_reference(const circuits::CircuitUnderTest& cut,
                          const std::vector<ParametricFault>& faults,
                          const std::vector<double>& frequencies_hz) {
  auto sweep = [&](const netlist::Circuit& circuit) {
    return mna::AcAnalysis(circuit).sweep(frequencies_hz, cut.output_node);
  };
  Reference reference{sweep(cut.circuit), {}};
  reference.responses.reserve(faults.size());
  for (const auto& fault : faults) {
    reference.responses.push_back(sweep(inject(cut.circuit, fault)));
  }
  return reference;
}

/// Bit-exact equality of two responses.
void expect_identical(const mna::AcResponse& a, const mna::AcResponse& b,
                      const std::string& context) {
  ASSERT_EQ(a.frequencies(), b.frequencies()) << context;
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.value(i).real(), b.value(i).real())
        << context << " @ grid index " << i;
    EXPECT_EQ(a.value(i).imag(), b.value(i).imag())
        << context << " @ grid index " << i;
  }
}

/// Element-wise closeness with a floor tied to the response scale, so
/// near-zero samples (e.g. a notch) are judged against the overall
/// magnitude rather than their own cancellation-dominated value.
void expect_close(const mna::AcResponse& engine, const mna::AcResponse& naive,
                  double scale, const std::string& context) {
  constexpr double kRelTol = 1e-9;
  ASSERT_EQ(engine.frequencies(), naive.frequencies()) << context;
  for (std::size_t i = 0; i < naive.size(); ++i) {
    const double bound = kRelTol * (std::abs(naive.value(i)) + scale);
    EXPECT_LE(std::abs(engine.value(i) - naive.value(i)), bound)
        << context << " @ grid index " << i << " (f="
        << naive.frequency(i) << " Hz)";
  }
}

double response_scale(const mna::AcResponse& golden) {
  double scale = 0.0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    scale = std::max(scale, std::abs(golden.value(i)));
  }
  return scale;
}

TEST(SimulationEngine, ReuseOffMatchesNaiveBitExactlyAtAnyThreadCount) {
  for (const auto& name : circuits::registry_names()) {
    const auto cut = circuits::make_by_name(name);
    const auto freqs = test_grid(cut);
    const auto faults = FaultUniverse::over_testable(cut).enumerate();
    const Reference reference = naive_reference(cut, faults, freqs);

    for (std::size_t threads : {1u, 2u, 8u}) {
      SimOptions options;
      options.threads = threads;
      options.reuse_factorization = false;
      const BatchResult batch =
          SimulationEngine(cut, options).simulate_all(faults, freqs);
      const std::string context =
          name + " reuse=off threads=" + std::to_string(threads);
      expect_identical(batch.golden, reference.golden, context + " golden");
      ASSERT_EQ(batch.responses.size(), faults.size());
      for (std::size_t i = 0; i < faults.size(); ++i) {
        expect_identical(batch.responses[i], reference.responses[i],
                         context + " " + faults[i].label());
      }
      EXPECT_EQ(batch.stats.rank1_solves, 0u) << context;
      EXPECT_EQ(batch.stats.full_solves, faults.size() * freqs.size())
          << context;
    }
  }
}

TEST(SimulationEngine, ReuseOnMatchesNaiveWithinTightBound) {
  for (const auto& name : circuits::registry_names()) {
    const auto cut = circuits::make_by_name(name);
    const auto freqs = test_grid(cut);
    const auto faults = FaultUniverse::over_testable(cut).enumerate();
    const Reference reference = naive_reference(cut, faults, freqs);
    const double scale = response_scale(reference.golden);

    const BatchResult batch =
        SimulationEngine(cut, SimOptions{}).simulate_all(faults, freqs);
    const std::string context = name + " reuse=on";
    // The golden sweep never goes through Sherman–Morrison, but it runs
    // on the batched SIMD LU, whose |.|^2 pivot compare and conj/|.|^2
    // complex division differ from the scalar LU by rounding only — so
    // tight closeness, not bit equality, is the contract here.
    expect_close(batch.golden, reference.golden, scale, context + " golden");
    ASSERT_EQ(batch.responses.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      expect_close(batch.responses[i], reference.responses[i], scale,
                   context + " " + faults[i].label());
    }
    // Every registry universe deviates passives only, so reuse must have
    // carried essentially the whole batch.
    EXPECT_GT(batch.stats.rank1_solves, 0u) << context;
    EXPECT_EQ(batch.stats.fallback_faults, 0u) << context;
  }
}

TEST(SimulationEngine, ReuseOnIsBitStableAcrossThreadCounts) {
  for (const auto& name : circuits::registry_names()) {
    const auto cut = circuits::make_by_name(name);
    const auto freqs = test_grid(cut);
    const auto faults = FaultUniverse::over_testable(cut).enumerate();

    SimOptions one;
    one.threads = 1;
    const BatchResult single =
        SimulationEngine(cut, one).simulate_all(faults, freqs);
    for (std::size_t threads : {2u, 8u}) {
      SimOptions options;
      options.threads = threads;
      const BatchResult batch =
          SimulationEngine(cut, options).simulate_all(faults, freqs);
      const std::string context =
          name + " threads=" + std::to_string(threads) + " vs 1";
      expect_identical(batch.golden, single.golden, context + " golden");
      for (std::size_t i = 0; i < faults.size(); ++i) {
        expect_identical(batch.responses[i], single.responses[i],
                         context + " " + faults[i].label());
      }
      EXPECT_EQ(batch.stats.rank1_solves, single.stats.rank1_solves);
      EXPECT_EQ(batch.stats.full_solves, single.stats.full_solves);
    }
  }
}

TEST(SimulationEngine, OpAmpParamFaultsTakeTheFallbackPathBitExactly) {
  circuits::NfBiquadDesign design;
  design.ideal_opamps = false;
  const auto cut = circuits::make_nf_biquad(design);
  const auto freqs = test_grid(cut);
  const auto faults = FaultUniverse::over_opamp_params(cut).enumerate();
  const Reference reference = naive_reference(cut, faults, freqs);

  const BatchResult batch =
      SimulationEngine(cut, SimOptions{}).simulate_all(faults, freqs);
  // Macro-parameter faults perturb several stamps at once, so even with
  // reuse on they must refactorize — and thereby stay bit-identical.
  EXPECT_EQ(batch.stats.fallback_faults, faults.size());
  EXPECT_EQ(batch.stats.rank1_solves, 0u);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    expect_identical(batch.responses[i], reference.responses[i],
                     faults[i].label());
  }
}

TEST(SimulationEngine, MixedUniverseSplitsBetweenReuseAndFallback) {
  circuits::NfBiquadDesign design;
  design.ideal_opamps = false;
  const auto cut = circuits::make_nf_biquad(design);
  const auto freqs = test_grid(cut);

  auto sites = FaultUniverse::over_testable(cut).sites();
  const auto active = FaultUniverse::over_opamp_params(cut).sites();
  sites.insert(sites.end(), active.begin(), active.end());
  const FaultUniverse combined(sites, DeviationSpec::paper());
  const auto faults = combined.enumerate();

  const BatchResult batch =
      SimulationEngine(cut, SimOptions{}).simulate_all(faults, freqs);
  EXPECT_EQ(batch.stats.fallback_faults,
            active.size() * DeviationSpec::paper().deviations().size());
  EXPECT_GT(batch.stats.rank1_solves, 0u);

  const Reference reference = naive_reference(cut, faults, freqs);
  const double scale = response_scale(reference.golden);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    expect_close(batch.responses[i], reference.responses[i], scale,
                 faults[i].label());
  }
}

TEST(SimulationEngine, DictionaryBuildGoesThroughTheEngine) {
  const auto cut = circuits::make_paper_cut();
  const auto universe = FaultUniverse::over_testable(cut);
  const auto freqs = test_grid(cut);

  SimOptions serial;
  serial.threads = 1;
  serial.reuse_factorization = false;
  const FaultDictionary naive =
      FaultDictionary::build(cut, universe, freqs, serial);

  SimOptions parallel;
  parallel.threads = 8;
  parallel.reuse_factorization = false;
  const FaultDictionary engine =
      FaultDictionary::build(cut, universe, freqs, parallel);

  expect_identical(engine.golden(), naive.golden(), "dictionary golden");
  ASSERT_EQ(engine.fault_count(), naive.fault_count());
  for (std::size_t i = 0; i < naive.entries().size(); ++i) {
    EXPECT_EQ(engine.entries()[i].fault, naive.entries()[i].fault);
    expect_identical(engine.entries()[i].response,
                     naive.entries()[i].response,
                     naive.entries()[i].fault.label());
  }
  EXPECT_EQ(engine.site_labels(), naive.site_labels());
}

TEST(SimulationEngine, SimulateBatchMatchesSingleFaultSimulation) {
  const auto cut = circuits::make_paper_cut();
  const auto freqs = test_grid(cut);
  const auto faults = FaultUniverse::over_testable(cut).enumerate();

  const BatchResult batch = SimulationEngine(cut).simulate_all(faults, freqs);
  const Reference reference = naive_reference(cut, faults, freqs);
  // The batched golden comes from the SIMD frequency-block LU, which
  // pivots on |.|^2 and divides via conj/|.|^2 — rounding-level
  // differences from the scalar sweep, not bit identity.
  const double scale = response_scale(batch.golden);
  expect_close(batch.golden, reference.golden, scale, "batch golden");
  for (std::size_t i = 0; i < faults.size(); ++i) {
    expect_close(batch.responses[i], reference.responses[i], scale,
                 faults[i].label());
  }
}

TEST(SimulationEngine, LargeLadderBuildsThroughSparseReusePath) {
  // The acceptance workload: a 1000-section RC ladder (1002 unknowns) must
  // take the Sherman–Morrison reuse path on the sparse backend — no size
  // gate, no fallback — and agree with a forced-dense build to 1e-9.
  circuits::RcLadderDesign design;
  design.sections = 1000;
  design.testable_stride = 250;  // bounded fault universe: 8 sites
  const auto cut = circuits::make_rc_ladder(design);
  const auto freqs =
      mna::FrequencyGrid::log_sweep(cut.band_low_hz, cut.band_high_hz, 16)
          .frequencies();
  const auto faults = FaultUniverse::over_testable(cut).enumerate();

  const BatchResult sparse =
      SimulationEngine(cut, SimOptions{}).simulate_all(faults, freqs);
  EXPECT_GT(sparse.stats.rank1_solves, 0u);
  EXPECT_EQ(sparse.stats.fallback_faults, 0u);

  SimOptions dense_options;
  dense_options.backend = mna::SolverBackend::kDense;
  const BatchResult dense =
      SimulationEngine(cut, dense_options).simulate_all(faults, freqs);
  EXPECT_GT(dense.stats.rank1_solves, 0u);

  const double scale = response_scale(dense.golden);
  expect_close(sparse.golden, dense.golden, scale, "large-ladder golden");
  ASSERT_EQ(sparse.responses.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    expect_close(sparse.responses[i], dense.responses[i], scale,
                 "large-ladder " + faults[i].label());
  }
}

/// Every registry circuit — op-amp nullors, inductor and controlled-source
/// branch rows included — built on the forced sparse backend: it must
/// agree with the forced dense build and be bit-identical for any thread
/// count.
TEST(SimulationEngine, ForcedSparseMatchesDenseOnEveryRegistryCircuit) {
  for (const auto& name : circuits::registry_names()) {
    const auto cut = circuits::make_by_name(name);
    const auto freqs = test_grid(cut);
    const auto faults = FaultUniverse::over_testable(cut).enumerate();

    SimOptions dense;
    dense.backend = mna::SolverBackend::kDense;
    const BatchResult reference =
        SimulationEngine(cut, dense).simulate_all(faults, freqs);
    const double scale = response_scale(reference.golden);

    SimOptions sparse;
    sparse.backend = mna::SolverBackend::kSparse;
    sparse.threads = 1;
    const BatchResult single =
        SimulationEngine(cut, sparse).simulate_all(faults, freqs);
    const std::string context = name + " forced sparse";
    expect_close(single.golden, reference.golden, scale, context + " golden");
    ASSERT_EQ(single.responses.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      expect_close(single.responses[i], reference.responses[i], scale,
                   context + " " + faults[i].label());
    }

    for (std::size_t threads : {2u, 8u}) {
      sparse.threads = threads;
      const BatchResult batch =
          SimulationEngine(cut, sparse).simulate_all(faults, freqs);
      const std::string at = context + " threads=" + std::to_string(threads);
      expect_identical(batch.golden, single.golden, at + " golden");
      for (std::size_t i = 0; i < faults.size(); ++i) {
        expect_identical(batch.responses[i], single.responses[i],
                         at + " " + faults[i].label());
      }
    }
  }
}

/// A 200-section RC ladder (past the dense limit) with a series LC from
/// its middle node to ground, resonant exactly on one grid point: there
/// the series branch is a short, a pivot frozen at the reference point
/// collapses, and that frequency alone gets a fresh analysis.  The engine
/// factors four frequencies per batch, so the resonance goes to each of
/// the four positions of a batch in turn, and then to the last point of
/// a 21-point grid, whose batch replicates it into three padding lanes.
/// Each time exactly one fallback must be counted — padding lanes never
/// count — and the build must still match the naive inject-and-sweep
/// path.
TEST(SimulationEngine, SparsePivotBreakdownFallsBackToFreshAnalysis) {
  circuits::RcLadderDesign design;
  design.sections = 200;
  design.testable_stride = 50;
  auto cut = circuits::make_rc_ladder(design);
  const double inductance = 1e-3;
  const double capacitance = 1e-6;
  cut.circuit.add_inductor("LX", "n100", "mx", inductance);
  cut.circuit.add_capacitor("CX", "mx", "0", capacitance);
  const double f0 = 1.0 / (2.0 * std::numbers::pi *
                           std::sqrt(inductance * capacitance));
  const auto faults = FaultUniverse::over_testable(cut).enumerate();
  const obs::Counter& breakdowns = obs::Registry::global().counter(
      "ftdiag_sparse_pivot_breakdowns_total");

  auto check = [&](std::vector<double> freqs, std::size_t resonance) {
    freqs[resonance] = f0;
    const std::string context =
        "resonance @ " + std::to_string(resonance) + " of " +
        std::to_string(freqs.size());
    const std::uint64_t before = breakdowns.value();
    const BatchResult batch =
        SimulationEngine(cut, SimOptions{}).simulate_all(faults, freqs);
    EXPECT_EQ(breakdowns.value(), before + 1) << context;
    EXPECT_EQ(batch.stats.fallback_faults, 0u) << context;

    const Reference reference = naive_reference(cut, faults, freqs);
    const double scale = response_scale(reference.golden);
    expect_close(batch.golden, reference.golden, scale,
                 context + " resonant golden");
    for (std::size_t i = 0; i < faults.size(); ++i) {
      expect_close(batch.responses[i], reference.responses[i], scale,
                   context + " resonant " + faults[i].label());
    }
  };
  // f0 sits at the centre of the log sweep (index 10, position 2 of batch
  // [8, 12)); dropping or adding points below the band moves it to
  // indices 8..11, positions 0..3.
  for (std::size_t resonance = 8; resonance < 12; ++resonance) {
    std::vector<double> freqs =
        mna::FrequencyGrid::log_sweep(f0 / 10.0, f0 * 10.0, 21).frequencies();
    if (resonance < 10) {
      freqs.erase(freqs.begin(), freqs.begin() + (10 - resonance));
    }
    for (std::size_t k = 10; k < resonance; ++k) {
      freqs.insert(freqs.begin(), f0 / (20.0 * static_cast<double>(k - 9)));
    }
    check(freqs, resonance);
  }
  // The padded tail: 21 = 4 * 5 + 1 points, the last one resonant.
  check(mna::FrequencyGrid::log_sweep(f0 / 100.0, f0, 21).frequencies(), 20);
}

/// Rank-1 refusal forced: with max_growth just above 1, almost every
/// Sherman–Morrison update exceeds the growth bound, so the engine refuses
/// it and solves the fault x frequency pair on a refactorized analysis.
/// The refusals must be counted as full solves, and the responses must
/// still match the reuse-off naive solve.
TEST(SimulationEngine, Rank1RefusalFallsBackToFullSolves) {
  const auto cut = circuits::make_by_name("state_variable");
  const auto freqs = test_grid(cut);
  const auto faults = FaultUniverse::over_testable(cut).enumerate();

  const BatchResult reuse =
      SimulationEngine(cut, SimOptions{}).simulate_all(faults, freqs);
  SimOptions strict;
  strict.max_growth = 1.0 + 1e-9;
  const BatchResult refused =
      SimulationEngine(cut, strict).simulate_all(faults, freqs);
  EXPECT_GT(refused.stats.full_solves, reuse.stats.full_solves);
  EXPECT_LT(refused.stats.rank1_solves, reuse.stats.rank1_solves);
  EXPECT_EQ(refused.stats.rank1_solves + refused.stats.full_solves,
            faults.size() * freqs.size());
  EXPECT_EQ(refused.stats.fallback_faults, 0u);

  const Reference reference = naive_reference(cut, faults, freqs);
  const double scale = response_scale(reference.golden);
  ASSERT_EQ(refused.responses.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    expect_close(refused.responses[i], reference.responses[i], scale,
                 "refused " + faults[i].label());
  }
}

TEST(SimulationEngine, RejectsBadOptions) {
  SimOptions options;
  options.max_growth = 1.0;
  EXPECT_THROW(options.check(), ConfigError);
  EXPECT_THROW(SimulationEngine(circuits::make_paper_cut(), options),
               ConfigError);
  EXPECT_GE(SimOptions{}.resolved_threads(), 1u);
}

}  // namespace
}  // namespace ftdiag::faults
