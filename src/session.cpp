#include "session.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>

#include "circuits/registry.hpp"
#include "core/evaluation_pipeline.hpp"
#include "core/sensitivity.hpp"
#include "faults/fault_injector.hpp"
#include "mna/ac_analysis.hpp"
#include "mna/frequency_grid.hpp"
#include "netlist/parser.hpp"
#include "service/dictionary_store.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/threads.hpp"

namespace ftdiag {

namespace {

/// FNV-1a over the bytes of a string.
std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  // Terminate every field with a unit separator so adjacent fields cannot
  // alias across their boundary ("V1" + "23" vs "V12" + "3").
  h ^= 0x1f;
  h *= 1099511628211ull;
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return fnv1a(h, std::string(buf));
}

}  // namespace

/// Cache key covering everything the dictionary build depends on: the
/// circuit (component descriptions carry names, nodes and values), the
/// test access points, the testable set, the grid and the deviation sweep.
/// Public because the service::DictionaryStore indexes its `.fdx`
/// artifacts by exactly this key.
std::string dictionary_cache_key(const circuits::CircuitUnderTest& cut,
                                 const faults::DeviationSpec& spec,
                                 const faults::SimOptions& sim) {
  std::uint64_t h = 14695981039346656037ull;
  h = fnv1a(h, cut.name);
  h = fnv1a(h, cut.input_source);
  h = fnv1a(h, cut.output_node);
  for (const auto& site : cut.testable) h = fnv1a(h, site);
  for (const auto& component : cut.circuit.components()) {
    h = fnv1a(h, component.describe());
  }
  for (double f : cut.dictionary_grid.frequencies()) h = fnv1a(h, f);
  h = fnv1a(h, spec.min_fraction);
  h = fnv1a(h, spec.max_fraction);
  h = fnv1a(h, spec.step_fraction);
  h = fnv1a(h, spec.include_nominal ? "nominal" : "");
  // Factorization reuse (and the growth bound deciding when it falls back
  // to refactorization) changes dictionary values within rounding error,
  // so sessions with either toggled must not share entries; the thread
  // count never changes bits and stays out of the key.
  h = fnv1a(h, sim.reuse_factorization ? "reuse" : "serial");
  // The growth bound only matters when reuse is on (it decides which
  // pairs fall back to refactorization); with reuse off it provably
  // cannot change bits, so keep those sessions sharing one dictionary.
  if (sim.reuse_factorization) h = fnv1a(h, sim.max_growth);
  return cut.name + "#" + str::format("%016llx",
                                      static_cast<unsigned long long>(h));
}

namespace {

std::mutex& cache_mutex() {
  static std::mutex m;
  return m;
}

/// The cache stores weak references: pointer identity is shared between
/// all live sessions of the same CUT, but once the last session (or other
/// retained shared_ptr) goes away the dictionary frees itself instead of
/// being pinned for the life of the process.
std::map<std::string, std::weak_ptr<const faults::FaultDictionary>>&
dictionary_cache() {
  static std::map<std::string, std::weak_ptr<const faults::FaultDictionary>>
      cache;
  return cache;
}

/// Fetch-or-build through the process-wide cache.  The build itself runs
/// outside the cache lock so unrelated CUTs never serialize on each other;
/// a rare double build of the same key is resolved in favour of the first
/// insertion, keeping pointer identity stable.
std::shared_ptr<const faults::FaultDictionary> fetch_dictionary(
    const std::string& key, const circuits::CircuitUnderTest& cut,
    const faults::DeviationSpec& spec, const faults::SimOptions& sim) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex());
    auto it = dictionary_cache().find(key);
    if (it != dictionary_cache().end()) {
      if (auto live = it->second.lock()) return live;
    }
  }
  auto built = std::make_shared<const faults::FaultDictionary>(
      faults::FaultDictionary::build(
          cut, faults::FaultUniverse::over_testable(cut, spec), sim));
  std::lock_guard<std::mutex> lock(cache_mutex());
  auto& slot = dictionary_cache()[key];
  if (auto live = slot.lock()) return live;  // lost a build race: keep identity
  slot = built;
  // Opportunistic sweep so dead keys don't accumulate in the map.
  for (auto it = dictionary_cache().begin();
       it != dictionary_cache().end();) {
    it = it->second.expired() ? dictionary_cache().erase(it) : std::next(it);
  }
  return built;
}

}  // namespace

// ------------------------------------------------------------- options

std::size_t SearchOptions::resolved_threads() const {
  return util::resolve_threads(threads);
}

void SearchOptions::check() const {
  if (n_frequencies == 0) {
    throw ConfigError("search needs at least one test frequency");
  }
  ga.check();
  (void)core::make_fitness(fitness);  // validates the kind
}

void NoiseOptions::check() const {
  if (sigma < 0.0) {
    throw ConfigError("measurement-noise sigma must be >= 0");
  }
}

void SessionOptions::check() const {
  search.check();
  noise.check();
  sim.check();
  service.check();
  (void)deviations.deviations();  // validates the range
}

// --------------------------------------------------------------- state

struct Session::State {
  circuits::CircuitUnderTest cut;
  SessionOptions options;
  std::string dictionary_key;
  std::shared_ptr<const core::TrajectoryFitness> fitness;
  /// When set, the dictionary resolves through this persistent store
  /// (memory LRU -> `.fdx` on disk -> build) instead of the in-process
  /// weak cache.
  std::shared_ptr<service::DictionaryStore> store;

  mutable std::mutex mutex;
  mutable std::shared_ptr<const faults::FaultDictionary> dictionary;
  mutable std::unique_ptr<core::TestVectorEvaluator> evaluator;

  /// The active test program: vector + immutable diagnosis engine.
  std::shared_ptr<const core::DiagnosisEngine> engine;
  std::optional<core::TestVector> active_vector;
};

Session::Session(std::shared_ptr<State> state) : state_(std::move(state)) {}

Session Session::open(const std::string& source, const NetlistAccess& access) {
  return SessionBuilder::from_source(source, access).build();
}

const circuits::CircuitUnderTest& Session::cut() const { return state_->cut; }

const SessionOptions& Session::options() const { return state_->options; }

std::shared_ptr<const faults::FaultDictionary> Session::dictionary() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (!state_->dictionary) {
    state_->dictionary =
        state_->store
            ? state_->store->get(state_->cut, state_->options.deviations,
                                 state_->options.sim)
            : fetch_dictionary(state_->dictionary_key, state_->cut,
                               state_->options.deviations,
                               state_->options.sim);
    log::info(str::format("session(%s): dictionary ready (%zu faults)",
                          state_->cut.name.c_str(),
                          state_->dictionary->fault_count()));
  }
  return state_->dictionary;
}

const core::TestVectorEvaluator& Session::evaluator() const {
  auto dictionary = this->dictionary();  // ensure built, keep shared
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (!state_->evaluator) {
    state_->evaluator = std::make_unique<core::TestVectorEvaluator>(
        *state_->dictionary, state_->options.sampling, state_->fitness);
  }
  return *state_->evaluator;
}

ga::GeneBounds Session::bounds() const {
  return {std::log10(state_->cut.band_low_hz),
          std::log10(state_->cut.band_high_hz)};
}

// ---------------------------------------------------------- generation

core::TestVector Session::to_test_vector(const std::vector<double>& genes) {
  core::TestVector tv;
  tv.frequencies_hz.reserve(genes.size());
  for (double g : genes) tv.frequencies_hz.push_back(std::pow(10.0, g));
  tv.normalize();
  return tv;
}

TestGenResult Session::search_impl(const ga::FrequencyOptimizer* optimizer,
                                   std::uint64_t seed) const {
  const SearchOptions& search = state_->options.search;
  const core::TestVectorEvaluator& evaluator = this->evaluator();

  std::unique_ptr<ga::GeneticAlgorithm> owned;
  if (optimizer == nullptr) {
    ga::GaConfig ga_config = search.ga;
    if (search.seed_with_sensitivity) {
      // Screen frequency tuples by sensitivity-direction spread (cheap: no
      // fault simulation) and hand the best ones to the GA as seeds.
      const auto curves = core::compute_sensitivities(
          state_->cut,
          mna::FrequencyGrid::log_sweep(state_->cut.band_low_hz,
                                        state_->cut.band_high_hz, 60));
      for (const auto& tuple : core::screen_frequency_tuples(
               curves, 30, search.sensitivity_seed_count,
               search.n_frequencies)) {
        std::vector<double> genome;
        genome.reserve(tuple.size());
        for (double f : tuple) genome.push_back(std::log10(f));
        ga_config.seed_genomes.push_back(std::move(genome));
      }
    }
    owned = std::make_unique<ga::GeneticAlgorithm>(ga_config);
    optimizer = owned.get();
  }

  core::PipelineOptions pipeline_options;
  pipeline_options.threads = search.resolved_threads();
  pipeline_options.cache_signatures = search.eval_cache;
  const core::EvaluationPipeline pipeline(evaluator, pipeline_options);
  Rng rng(seed);
  TestGenResult result;
  result.search =
      optimizer->optimize(pipeline, search.n_frequencies, bounds(), rng);
  // Score the winner at the snapped genes the pipeline actually evaluated,
  // so the reported score agrees with the fitness that selected it.
  std::vector<double> best_genes = result.search.best.genes;
  for (double& g : best_genes) g = pipeline.snap(g);
  result.best = evaluator.score(to_test_vector(best_genes));
  result.dictionary_faults = state_->dictionary->fault_count();
  log::info(str::format(
      "session(%s): %s search -> fitness %.4f (%zu intersections) with %s "
      "after %zu evaluations",
      state_->cut.name.c_str(), optimizer->name().c_str(), result.best.fitness,
      result.best.intersections, result.best.vector.label().c_str(),
      result.search.evaluations));
  return result;
}

TestGenResult Session::run_search() const {
  return search_impl(nullptr, state_->options.search.seed);
}

TestGenResult Session::run_search(const ga::FrequencyOptimizer& optimizer,
                                  std::uint64_t seed) const {
  return search_impl(&optimizer, seed);
}

TestGenResult Session::generate_tests() {
  TestGenResult result = run_search();
  use_vector(result.best.vector);
  return result;
}

TestGenResult Session::generate_tests(const ga::FrequencyOptimizer& optimizer,
                                      std::uint64_t seed) {
  TestGenResult result = run_search(optimizer, seed);
  use_vector(result.best.vector);
  return result;
}

core::TestVectorScore Session::score(const core::TestVector& vector) const {
  return evaluator().score(vector);
}

Session& Session::use_vector(core::TestVector vector) {
  auto engine = std::make_shared<const core::DiagnosisEngine>(
      evaluator().make_engine(vector));
  std::lock_guard<std::mutex> lock(state_->mutex);
  state_->active_vector = std::move(vector);
  state_->engine = std::move(engine);
  return *this;
}

bool Session::has_vector() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->active_vector.has_value();
}

// ------------------------------------------------------------ diagnosis

struct Session::ProgramSnapshot {
  std::shared_ptr<const core::DiagnosisEngine> engine;
  core::TestVector vector;
};

core::TestVector Session::vector() const { return program().vector; }

Session::ProgramSnapshot Session::program() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (!state_->engine || !state_->active_vector) {
    throw ConfigError(
        "session has no active test vector (call generate_tests() or "
        "use_vector() first)");
  }
  return {state_->engine, *state_->active_vector};
}

std::shared_ptr<const core::DiagnosisEngine> Session::engine() const {
  return program().engine;
}

core::Diagnosis Session::diagnose(const core::Point& observed) const {
  return engine()->diagnose(observed);
}

core::Diagnosis Session::diagnose(const mna::AcResponse& measured) const {
  const ProgramSnapshot program = this->program();
  return program.engine->diagnose(
      evaluator().sampler().sample(measured, program.vector.frequencies_hz));
}

std::vector<core::Diagnosis> Session::diagnose_batch(
    const std::vector<core::Point>& observed, std::size_t threads) const {
  const auto engine = this->engine();  // one immutable engine for the batch
  if (threads == 0) threads = par::default_thread_count();
  std::vector<core::Diagnosis> results(observed.size());
  // Every point writes only its own slot, so the batch is bit-identical
  // to the serial loop for any thread count.
  par::parallel_for(observed.size(), threads, [&](std::size_t i) {
    results[i] = engine->diagnose(observed[i]);
  });
  return results;
}

// ----------------------------------------------------------- utilities

mna::AcResponse Session::measure(
    const faults::ParametricFault& fault,
    std::optional<std::uint64_t> noise_seed) const {
  const core::TestVector vector = this->vector();
  const circuits::CircuitUnderTest& cut = state_->cut;
  return faults::add_measurement_noise(
      mna::AcAnalysis(faults::inject(cut.circuit, fault))
          .sweep(vector.frequencies_hz, cut.output_node),
      {state_->options.noise.sigma,
       noise_seed.value_or(state_->options.noise.seed)});
}

core::Point Session::observe(const mna::AcResponse& measured) const {
  const core::TestVector vector = this->vector();
  return evaluator().sampler().sample(measured, vector.frequencies_hz);
}

core::AccuracyReport Session::evaluate() const {
  core::EvaluationOptions options;
  options.noise_sigma = state_->options.noise.sigma;
  return evaluate(options);
}

core::AccuracyReport Session::evaluate(
    const core::EvaluationOptions& options) const {
  return core::evaluate_diagnosis(state_->cut, *dictionary(), vector(),
                                  state_->options.sampling, options);
}

// ------------------------------------------- process-wide cache control

std::size_t Session::dictionary_cache_size() {
  std::lock_guard<std::mutex> lock(cache_mutex());
  std::size_t live = 0;
  for (const auto& [key, entry] : dictionary_cache()) {
    live += entry.expired() ? 0 : 1;
  }
  return live;
}

void Session::clear_dictionary_cache() {
  std::lock_guard<std::mutex> lock(cache_mutex());
  dictionary_cache().clear();
}

// --------------------------------------------------------------- builder

SessionBuilder::SessionBuilder(circuits::CircuitUnderTest cut)
    : cut_(std::move(cut)) {}

SessionBuilder SessionBuilder::from_registry(const std::string& name) {
  return SessionBuilder(circuits::make_by_name(name));
}

SessionBuilder SessionBuilder::from_netlist(const std::string& path,
                                            const NetlistAccess& access) {
  circuits::CircuitUnderTest cut;
  cut.circuit = netlist::parse_netlist_file(path);
  cut.name = path;
  cut.description = cut.circuit.title().empty() ? "netlist-defined CUT"
                                                : cut.circuit.title();
  cut.input_source = access.input_source;
  cut.output_node = access.output_node;
  cut.testable = access.testable.empty() ? cut.circuit.passive_names()
                                         : access.testable;
  cut.band_low_hz = access.band_low_hz;
  cut.band_high_hz = access.band_high_hz;
  cut.dictionary_grid = mna::FrequencyGrid::log_sweep(
      access.band_low_hz, access.band_high_hz, access.grid_points);
  return SessionBuilder(std::move(cut));
}

SessionBuilder SessionBuilder::from_source(const std::string& source,
                                           const NetlistAccess& access) {
  if (str::starts_with(source, "builtin:")) {
    return from_registry(source.substr(8));
  }
  return from_netlist(source, access);
}

SessionBuilder& SessionBuilder::cut(circuits::CircuitUnderTest cut) {
  cut_ = std::move(cut);
  return *this;
}

SessionBuilder& SessionBuilder::options(SessionOptions options) {
  options_ = std::move(options);
  return *this;
}

SessionBuilder& SessionBuilder::search(SearchOptions options) {
  options_.search = std::move(options);
  return *this;
}

SessionBuilder& SessionBuilder::noise(NoiseOptions options) {
  options_.noise = options;
  return *this;
}

SessionBuilder& SessionBuilder::deviations(faults::DeviationSpec spec) {
  options_.deviations = spec;
  return *this;
}

SessionBuilder& SessionBuilder::sampling(core::SamplingPolicy policy) {
  options_.sampling = policy;
  return *this;
}

SessionBuilder& SessionBuilder::sim(SimOptions options) {
  options_.sim = options;
  return *this;
}

SessionBuilder& SessionBuilder::service(ServiceOptions options) {
  options_.service = options;
  return *this;
}

SessionBuilder& SessionBuilder::store(
    std::shared_ptr<service::DictionaryStore> store) {
  store_ = std::move(store);
  return *this;
}

SessionBuilder& SessionBuilder::fitness(FitnessKind kind) {
  options_.search.fitness = kind;
  return *this;
}

SessionBuilder& SessionBuilder::frequencies(std::size_t n) {
  options_.search.n_frequencies = n;
  return *this;
}

SessionBuilder& SessionBuilder::seed(std::uint64_t seed) {
  options_.search.seed = seed;
  return *this;
}

SessionBuilder& SessionBuilder::threads(std::size_t n) {
  options_.sim.threads = n;
  options_.search.threads = n;
  return *this;
}

SessionBuilder& SessionBuilder::eval_cache(bool on) {
  options_.search.eval_cache = on;
  return *this;
}

Session SessionBuilder::build() const {
  if (!cut_) {
    throw ConfigError("session builder has no circuit-under-test");
  }
  options_.check();
  cut_->check();

  auto state = std::make_shared<Session::State>();
  state->cut = *cut_;
  state->options = options_;
  state->store = store_;
  state->dictionary_key = dictionary_cache_key(
      state->cut, state->options.deviations, state->options.sim);
  state->fitness = std::shared_ptr<const core::TrajectoryFitness>(
      core::make_fitness(options_.search.fitness).release());
  return Session(std::move(state));
}

}  // namespace ftdiag
