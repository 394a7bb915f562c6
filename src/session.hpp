/// \file session.hpp
/// \brief The top-level ftdiag facade: one `Session` per circuit-under-test
/// composes the whole pipeline of the paper (fault simulation -> dictionary
/// -> GA frequency search -> trajectory diagnosis) behind four verbs:
///
///   auto session = ftdiag::SessionBuilder::from_registry("tow_thomas")
///                      .fitness(ftdiag::FitnessKind::kHybrid)
///                      .build();
///   auto program = session.generate_tests();          // GA search
///   auto score   = session.score(program.best.vector);
///   auto verdict = session.diagnose(observed_point);  // nearest trajectory
///   auto batch   = session.diagnose_batch(points);    // thread-safe
///
/// The expensive artefact — the fault dictionary — is built lazily and
/// cached process-wide behind `std::shared_ptr<const FaultDictionary>`:
/// every Session describing the same CUT + deviation grid shares one
/// simulation pass, so concurrent sessions, repeated queries and forked
/// configurations never pay for fault simulation twice.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuits/cut.hpp"
#include "core/diagnosis.hpp"
#include "core/evaluation.hpp"
#include "core/fitness.hpp"
#include "core/sampling.hpp"
#include "core/test_vector.hpp"
#include "faults/dictionary.hpp"
#include "faults/fault.hpp"
#include "faults/fault_universe.hpp"
#include "faults/simulation_engine.hpp"
#include "ga/genetic_algorithm.hpp"
#include "ga/optimizer.hpp"
#include "mna/response.hpp"
#include "service/options.hpp"

namespace ftdiag {

namespace service {
class DictionaryStore;
}  // namespace service

/// Typed fitness selector, re-exported at the facade level.
using core::FitnessKind;

/// Fault-simulation engine knobs (thread count, golden-factorization
/// reuse), re-exported at the facade level.
using faults::SimOptions;

/// Serving-layer knobs (queueing, micro-batching), re-exported at the
/// facade level.
using service::ServiceOptions;

/// The process-wide cache key a (CUT, deviation sweep, sim options)
/// signature maps to — shared by the Session dictionary cache and the
/// persistent service::DictionaryStore, so in-memory sharing and on-disk
/// artifacts index the same way.
[[nodiscard]] std::string dictionary_cache_key(
    const circuits::CircuitUnderTest& cut, const faults::DeviationSpec& spec,
    const faults::SimOptions& sim);

/// Typed configuration of the test-frequency search.
struct SearchOptions {
  /// Number of test frequencies in the vector (the paper uses 2).
  std::size_t n_frequencies = 2;
  FitnessKind fitness = FitnessKind::kPaper;
  ga::GaConfig ga = ga::GaConfig::paper();
  std::uint64_t seed = 42;

  /// Worker threads for the per-generation genome fan-out in the
  /// evaluation pipeline; 0 means "auto" (util::resolve_threads — the
  /// FTDIAG_THREADS override when set, otherwise the hardware
  /// concurrency).  The thread count never changes the search result,
  /// only wall time.
  std::size_t threads = 0;

  /// The effective fan-out width (resolves 0 via util::resolve_threads).
  [[nodiscard]] std::size_t resolved_threads() const;

  /// Share interpolated signature columns between genomes (keyed by
  /// quantized frequency).  Off recomputes every sample; the search result
  /// is bit-identical either way.
  bool eval_cache = true;

  /// Inject sensitivity-screened frequency tuples into the GA's initial
  /// population; works for any n_frequencies (pairs are screened
  /// exhaustively, larger tuples exhaustively or greedily, and a single
  /// frequency falls back to sensitivity peaks — see core/sensitivity.hpp).
  bool seed_with_sensitivity = false;
  std::size_t sensitivity_seed_count = 8;

  /// \throws ConfigError on an empty vector size or a bad GA config.
  void check() const;
};

/// Measurement-noise model applied by Session::measure and, by default, by
/// Session::evaluate — multiplicative gaussian magnitude noise.
struct NoiseOptions {
  double sigma = 0.0;       ///< relative sigma; 0 disables
  std::uint64_t seed = 1;   ///< base seed for emulated measurements

  /// \throws ConfigError on a negative sigma.
  void check() const;
};

/// Everything a Session is configured by.
struct SessionOptions {
  SearchOptions search{};
  NoiseOptions noise{};
  /// Dictionary deviation sweep (the paper: -40%..+40% step 10%).
  faults::DeviationSpec deviations = faults::DeviationSpec::paper();
  /// Response -> signature-point mapping.
  core::SamplingPolicy sampling{};
  /// Fault-simulation engine: parallel fan-out + factorization reuse
  /// (defaults on; thread count never changes dictionary bits).
  SimOptions sim{};

  /// Serving-layer defaults a DiagnosisService built for this session
  /// should use (queue bound, micro-batch size, batch threads).
  ServiceOptions service{};

  /// \throws ConfigError on the first invalid field.
  void check() const;
};

/// Test-access description used when a Session is created from a bare
/// netlist (which carries no CUT metadata of its own).
struct NetlistAccess {
  std::string input_source = "V1";
  std::string output_node = "out";
  /// Component names the dictionary covers; empty means every passive.
  std::vector<std::string> testable;
  double band_low_hz = 10.0;
  double band_high_hz = 100.0e3;
  std::size_t grid_points = 240;
};

/// Result of one test-generation run: the accepted test vector + score,
/// the optimizer's convergence history, and the dictionary size behind it.
struct TestGenResult {
  core::TestVectorScore best;
  ga::OptimizerResult search;
  std::size_t dictionary_faults = 0;
};

class SessionBuilder;

/// The pipeline facade for one circuit-under-test.
///
/// A Session is a cheap, copyable handle: copies share the same lazily
/// built dictionary, evaluator and active test program.  All const member
/// functions are safe to call concurrently from multiple threads; the
/// mutating verbs (generate_tests, use_vector) swap the active program
/// atomically, so concurrent const readers see either the old or the new
/// program — never a mix — but the mutators themselves must be externally
/// serialized against each other, as usual.
class Session {
public:
  /// Open a session on "builtin:<registry name>" or a netlist path, with
  /// defaults everywhere.  \throws ConfigError / ParseError.
  [[nodiscard]] static Session open(const std::string& source,
                                    const NetlistAccess& access = {});

  [[nodiscard]] const circuits::CircuitUnderTest& cut() const;
  [[nodiscard]] const SessionOptions& options() const;

  /// The fault dictionary: built on first access (one AC sweep per fault),
  /// then shared process-wide with every other Session describing the same
  /// CUT and deviation grid.  The returned pointer is immutable and
  /// safe to retain beyond the Session's lifetime.
  [[nodiscard]] std::shared_ptr<const faults::FaultDictionary> dictionary()
      const;

  /// The dictionary-backed evaluator (trajectories, fitness, scores).
  /// Triggers the dictionary build on first access.
  [[nodiscard]] const core::TestVectorEvaluator& evaluator() const;

  /// Gene bounds derived from the CUT's recommended band.
  [[nodiscard]] ga::GeneBounds bounds() const;

  // ---------------------------------------------------------- generation

  /// Run the configured search and install the winning vector as this
  /// session's active test program.
  TestGenResult generate_tests();

  /// Same, with an explicit optimizer + seed (baseline comparisons).
  TestGenResult generate_tests(const ga::FrequencyOptimizer& optimizer,
                               std::uint64_t seed);

  /// Pure search: like generate_tests() but without installing the result
  /// (const; used by sweeps that fork many runs off one dictionary).
  [[nodiscard]] TestGenResult run_search() const;
  [[nodiscard]] TestGenResult run_search(const ga::FrequencyOptimizer& optimizer,
                                         std::uint64_t seed) const;

  /// Score an arbitrary test vector against the dictionary.
  [[nodiscard]] core::TestVectorScore score(
      const core::TestVector& vector) const;

  /// Install an externally chosen test vector as the active program.
  Session& use_vector(core::TestVector vector);

  [[nodiscard]] bool has_vector() const;

  /// Snapshot of the active test vector (by value: use_vector() may swap
  /// the program concurrently).  \throws ConfigError if none is installed.
  [[nodiscard]] core::TestVector vector() const;

  // ------------------------------------------------------------ diagnosis

  /// Diagnose one observed signature point against the active program's
  /// trajectories.  \throws ConfigError if no vector is installed.
  [[nodiscard]] core::Diagnosis diagnose(const core::Point& observed) const;

  /// Diagnose a measured response (sampled at the active test vector).
  [[nodiscard]] core::Diagnosis diagnose(const mna::AcResponse& measured) const;

  /// Diagnose many observed points in one call.  Iterates one immutable
  /// DiagnosisEngine; safe to call from multiple threads concurrently.
  /// \p threads > 1 fans the points over util::parallel with slot-ordered
  /// results (0 = auto); the output is bit-identical to the serial loop
  /// for any thread count.
  [[nodiscard]] std::vector<core::Diagnosis> diagnose_batch(
      const std::vector<core::Point>& observed, std::size_t threads = 1) const;

  // ----------------------------------------------------------- utilities

  /// Emulated bench measurement of a faulty board at the active test
  /// frequencies, using this session's NoiseOptions (\p noise_seed
  /// overrides the configured seed, e.g. per board).
  [[nodiscard]] mna::AcResponse measure(
      const faults::ParametricFault& fault,
      std::optional<std::uint64_t> noise_seed = std::nullopt) const;

  /// Map a measured response to a signature point at the active vector.
  [[nodiscard]] core::Point observe(const mna::AcResponse& measured) const;

  /// Monte-Carlo diagnosis accuracy of the active vector under this
  /// session's NoiseOptions.
  [[nodiscard]] core::AccuracyReport evaluate() const;

  /// Same with explicit options, applied verbatim (noise_sigma 0 really
  /// means a noiseless evaluation).
  [[nodiscard]] core::AccuracyReport evaluate(
      const core::EvaluationOptions& options) const;

  /// Genome (log10 f) -> test vector.
  [[nodiscard]] static core::TestVector to_test_vector(
      const std::vector<double>& genes);

  // ------------------------------------------- process-wide cache control

  /// Number of distinct *live* dictionaries currently cached process-wide.
  /// The cache holds weak references: a dictionary stays cached exactly as
  /// long as some Session (or retained shared_ptr) keeps it alive.
  [[nodiscard]] static std::size_t dictionary_cache_size();

  /// Forget all cache entries (outstanding shared_ptrs stay valid; live
  /// sessions simply stop sharing with *new* sessions).
  static void clear_dictionary_cache();

private:
  friend class SessionBuilder;

  struct State;
  explicit Session(std::shared_ptr<State> state);

  [[nodiscard]] TestGenResult search_impl(
      const ga::FrequencyOptimizer* optimizer, std::uint64_t seed) const;
  [[nodiscard]] std::shared_ptr<const core::DiagnosisEngine> engine() const;

  /// One-lock snapshot of the active program (engine + vector), so a
  /// concurrent use_vector() can never pair the old engine with the new
  /// vector inside a single diagnose/measure/observe call.
  struct ProgramSnapshot;
  [[nodiscard]] ProgramSnapshot program() const;

  std::shared_ptr<State> state_;
};

/// Fluent, validating construction of Sessions.
class SessionBuilder {
public:
  SessionBuilder() = default;
  explicit SessionBuilder(circuits::CircuitUnderTest cut);

  /// Builder seeded from the benchmark-circuit registry.
  /// \throws ConfigError for unknown names.
  [[nodiscard]] static SessionBuilder from_registry(const std::string& name);

  /// Builder seeded from a SPICE-style netlist file plus test-access info.
  /// \throws ParseError / ConfigError.
  [[nodiscard]] static SessionBuilder from_netlist(const std::string& path,
                                                   const NetlistAccess& access = {});

  /// Builder from "builtin:<name>" or a netlist path (the CLI's syntax).
  [[nodiscard]] static SessionBuilder from_source(const std::string& source,
                                                  const NetlistAccess& access = {});

  SessionBuilder& cut(circuits::CircuitUnderTest cut);
  SessionBuilder& options(SessionOptions options);
  SessionBuilder& search(SearchOptions options);
  SessionBuilder& noise(NoiseOptions options);
  SessionBuilder& deviations(faults::DeviationSpec spec);
  SessionBuilder& sampling(core::SamplingPolicy policy);
  SessionBuilder& sim(SimOptions options);
  SessionBuilder& service(ServiceOptions options);

  /// Resolve this session's dictionary through a persistent store
  /// (memory -> `.fdx` on disk -> build-and-persist) instead of the
  /// in-process weak cache.  The store must outlive nothing — the session
  /// shares ownership.
  SessionBuilder& store(std::shared_ptr<service::DictionaryStore> store);

  /// Shorthands for the common knobs.
  SessionBuilder& fitness(FitnessKind kind);
  SessionBuilder& frequencies(std::size_t n);
  SessionBuilder& seed(std::uint64_t seed);
  /// Worker threads for both the fault-simulation engine and the search's
  /// evaluation pipeline (0 = auto).  Never changes results.
  SessionBuilder& threads(std::size_t n);
  /// Toggle the search pipeline's signature-column cache.
  SessionBuilder& eval_cache(bool on);

  /// Validate and construct.  \throws ConfigError when no CUT was given or
  /// any option is out of range.
  [[nodiscard]] Session build() const;

private:
  std::optional<circuits::CircuitUnderTest> cut_;
  SessionOptions options_{};
  std::shared_ptr<service::DictionaryStore> store_;
};

}  // namespace ftdiag
