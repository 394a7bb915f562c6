/// Differential and determinism tests for the batch evaluation pipeline:
/// the pipeline must score exactly what the scalar evaluator scores at the
/// snapped frequencies, for any thread count and with the signature cache
/// on or off — and the whole GA search on top of it must be bit-identical
/// across thread counts.
#include "core/evaluation_pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>

#include "circuits/registry.hpp"
#include "core/fitness.hpp"
#include "core/trajectory.hpp"
#include "faults/dictionary.hpp"
#include "faults/fault_universe.hpp"
#include "ga/baselines.hpp"
#include "obs/metrics.hpp"
#include "session.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ftdiag {
namespace {

const faults::FaultDictionary& dictionary_of(const std::string& name) {
  static std::map<std::string, faults::FaultDictionary> dictionaries;
  auto it = dictionaries.find(name);
  if (it == dictionaries.end()) {
    const auto cut = circuits::make_by_name(name);
    it = dictionaries
             .emplace(name, faults::FaultDictionary::build(
                                cut, faults::FaultUniverse::over_testable(cut)))
             .first;
  }
  return it->second;
}

const faults::FaultDictionary& paper_dictionary() {
  return dictionary_of("sallen_key_lp");
}

std::vector<std::vector<double>> random_genomes(std::size_t count,
                                                std::size_t dims,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> genomes(count);
  for (auto& g : genomes) {
    g.resize(dims);
    for (double& gene : g) gene = rng.uniform(1.3, 4.7);
  }
  return genomes;
}

TEST(EvaluationPipeline, MatchesScalarEvaluatorAtSnappedFrequencies) {
  const core::TestVectorEvaluator evaluator(paper_dictionary());
  core::PipelineOptions options;
  options.threads = 1;
  const core::EvaluationPipeline pipeline(evaluator, options);

  for (const auto& genome : random_genomes(24, 2, 11)) {
    core::TestVector snapped;
    for (double g : genome) {
      snapped.frequencies_hz.push_back(std::pow(10.0, pipeline.snap(g)));
    }
    snapped.normalize();
    EXPECT_DOUBLE_EQ(pipeline.evaluate({genome}).front(),
                     evaluator.fitness(snapped));
  }
}

TEST(EvaluationPipeline, TrajectoriesMatchTheReferenceBuilder) {
  const core::TestVectorEvaluator evaluator(paper_dictionary());
  const core::EvaluationPipeline pipeline(evaluator);

  for (const auto& genome : random_genomes(8, 2, 17)) {
    std::vector<double> freqs;
    for (double g : genome) freqs.push_back(std::pow(10.0, pipeline.snap(g)));
    std::sort(freqs.begin(), freqs.end());
    const auto reference = core::build_trajectories(
        paper_dictionary(), freqs, evaluator.policy());
    const auto piped = pipeline.trajectories(genome);
    ASSERT_EQ(reference.size(), piped.size());
    for (std::size_t t = 0; t < reference.size(); ++t) {
      EXPECT_EQ(reference[t].site(), piped[t].site());
      ASSERT_EQ(reference[t].point_count(), piped[t].point_count());
      for (std::size_t p = 0; p < reference[t].point_count(); ++p) {
        EXPECT_EQ(reference[t].points()[p].deviation,
                  piped[t].points()[p].deviation);
        EXPECT_EQ(reference[t].points()[p].coords, piped[t].points()[p].coords);
      }
    }
  }
}

TEST(EvaluationPipeline, BitIdenticalAcrossThreadCounts) {
  const core::TestVectorEvaluator evaluator(paper_dictionary());
  const auto genomes = random_genomes(64, 2, 23);

  core::PipelineOptions serial;
  serial.threads = 1;
  const core::EvaluationPipeline reference(evaluator, serial);
  const std::vector<double> expected = reference.evaluate(genomes);

  for (std::size_t threads : {2u, 8u}) {
    core::PipelineOptions options;
    options.threads = threads;
    const core::EvaluationPipeline pipeline(evaluator, options);
    EXPECT_EQ(pipeline.evaluate(genomes), expected)
        << "threads=" << threads;
  }
}

TEST(EvaluationPipeline, CacheNeverChangesScores) {
  const core::TestVectorEvaluator evaluator(paper_dictionary());
  const auto genomes = random_genomes(32, 2, 29);

  core::PipelineOptions cached;
  cached.threads = 1;
  cached.cache_signatures = true;
  core::PipelineOptions uncached = cached;
  uncached.cache_signatures = false;

  const core::EvaluationPipeline with_cache(evaluator, cached);
  const core::EvaluationPipeline without_cache(evaluator, uncached);
  EXPECT_EQ(with_cache.evaluate(genomes), without_cache.evaluate(genomes));

  // Re-evaluating the same genomes must hit the cache, not rebuild it.
  (void)with_cache.evaluate(genomes);
  const auto stats = with_cache.stats();
  EXPECT_GT(stats.column_hits, 0u);
  EXPECT_EQ(with_cache.options().cache_signatures, true);
  EXPECT_EQ(without_cache.stats().column_hits, 0u);
}

TEST(EvaluationPipeline, StatsAreIdenticalAcrossThreadCounts) {
  // 32 distinct genomes, each appearing twice in one batch: the repeat is
  // a memo hit on its first occurrence and is not scored again, whichever
  // lane would have scored it.
  const core::TestVectorEvaluator evaluator(dictionary_of("rc_ladder"));
  std::vector<std::vector<double>> genomes = random_genomes(32, 2, 31);
  const std::vector<std::vector<double>> distinct = genomes;
  genomes.insert(genomes.end(), distinct.begin(), distinct.end());
  const obs::Counter& hits_total =
      obs::Registry::global().counter("ftdiag_pipeline_genome_hits_total");

  core::PipelineOptions serial;
  serial.threads = 1;
  const core::EvaluationPipeline reference(evaluator, serial);
  const std::vector<double> expected = reference.evaluate(genomes);
  const core::PipelineStats want = reference.stats();
  EXPECT_EQ(want.genomes_evaluated, 64u);
  EXPECT_EQ(want.genome_hits, 32u);
  EXPECT_EQ(want.column_hits + want.column_misses, 64u);  // 32 jobs x 2 keys

  for (std::size_t threads : {1u, 2u, 8u}) {
    core::PipelineOptions options;
    options.threads = threads;
    const core::EvaluationPipeline pipeline(evaluator, options);
    const std::uint64_t hits_before = hits_total.value();
    EXPECT_EQ(pipeline.evaluate(genomes), expected) << "threads=" << threads;
    EXPECT_EQ(hits_total.value() - hits_before, 32u) << "threads=" << threads;
    const core::PipelineStats got = pipeline.stats();
    EXPECT_EQ(got.genomes_evaluated, want.genomes_evaluated);
    EXPECT_EQ(got.genome_hits, want.genome_hits) << "threads=" << threads;
    EXPECT_EQ(got.column_hits, want.column_hits) << "threads=" << threads;
    EXPECT_EQ(got.column_misses, want.column_misses) << "threads=" << threads;
  }
}

/// Scores like the paper's fitness, but throws while armed.
class ArmedFitness final : public core::TrajectoryFitness {
public:
  using TrajectoryFitness::evaluate;
  [[nodiscard]] double evaluate(
      const core::FlatTrajectories& trajectories) const override {
    if (armed) throw ConfigError("armed fitness");
    return paper.evaluate(trajectories);
  }
  [[nodiscard]] std::string name() const override { return "armed"; }

  std::atomic<bool> armed{true};
  core::IntersectionFitness paper;
};

TEST(EvaluationPipeline, AFailedBatchLeavesTheCachesAsTheyWere) {
  const auto fitness = std::make_shared<ArmedFitness>();
  const core::TestVectorEvaluator armed(paper_dictionary(), {}, fitness);
  const core::TestVectorEvaluator plain(paper_dictionary());
  const auto genomes = random_genomes(16, 2, 37);
  core::PipelineOptions options;
  options.threads = 2;
  const core::EvaluationPipeline pipeline(armed, options);
  EXPECT_THROW((void)pipeline.evaluate(genomes), ConfigError);
  EXPECT_EQ(pipeline.stats().genomes_evaluated, 0u);

  // Nothing of the failed batch may be remembered: no memo hits, and
  // every column it planned is planned (and built) again.
  fitness->armed = false;
  const core::EvaluationPipeline reference(plain, options);
  EXPECT_EQ(pipeline.evaluate(genomes), reference.evaluate(genomes));
  EXPECT_EQ(pipeline.stats().genome_hits, reference.stats().genome_hits);
  EXPECT_EQ(pipeline.stats().column_misses, reference.stats().column_misses);
}

TEST(EvaluationPipeline, RejectsNonPositiveQuantum) {
  const core::TestVectorEvaluator evaluator(paper_dictionary());
  core::PipelineOptions options;
  options.frequency_quantum = 0.0;
  EXPECT_THROW(core::EvaluationPipeline(evaluator, options), ConfigError);
}

// ---------------------------------------------------------------------
// End-to-end search determinism through the Session facade.

TEST(SearchDeterminism, GaSearchBitIdenticalAcrossThreadCounts) {
  auto run = [&](std::size_t threads) {
    SearchOptions search;
    search.ga.population_size = 24;
    search.ga.generations = 4;
    search.threads = threads;
    return SessionBuilder::from_registry("sallen_key_lp")
        .search(search)
        .build()
        .run_search();
  };
  const TestGenResult reference = run(1);
  // The reported score is taken at the snapped genes the pipeline actually
  // evaluated, so it must agree with the fitness that selected the winner.
  EXPECT_EQ(reference.best.fitness, reference.search.best.fitness);
  for (std::size_t threads : {2u, 8u}) {
    const TestGenResult result = run(threads);
    EXPECT_EQ(result.search, reference.search) << "threads=" << threads;
    EXPECT_EQ(result.best.vector.frequencies_hz,
              reference.best.vector.frequencies_hz);
    EXPECT_EQ(result.best.fitness, reference.best.fitness);
    EXPECT_EQ(result.best.intersections, reference.best.intersections);
  }
}

TEST(SearchDeterminism, GenerateTestsInstallsIdenticalVectorAcrossThreads) {
  auto vector_for = [&](std::size_t threads) {
    SearchOptions search;
    search.ga.population_size = 16;
    search.ga.generations = 3;
    auto session = SessionBuilder::from_registry("sallen_key_lp")
                       .search(search)
                       .threads(threads)
                       .build();
    (void)session.generate_tests();
    return session.vector().frequencies_hz;
  };
  const auto reference = vector_for(1);
  EXPECT_EQ(vector_for(2), reference);
  EXPECT_EQ(vector_for(8), reference);
}

TEST(SearchDeterminism, BaselinesBitIdenticalAcrossThreadCounts) {
  const core::TestVectorEvaluator evaluator(paper_dictionary());
  auto run = [&](const ga::FrequencyOptimizer& optimizer,
                 std::size_t threads) {
    core::PipelineOptions options;
    options.threads = threads;
    const core::EvaluationPipeline pipeline(evaluator, options);
    Rng rng(5);
    return optimizer.optimize(pipeline, 2, {1.3, 4.7}, rng);
  };
  const ga::RandomSearch random(96);
  const ga::HillClimb hillclimb(96, 8, 0.4);
  for (const ga::FrequencyOptimizer* optimizer :
       {static_cast<const ga::FrequencyOptimizer*>(&random),
        static_cast<const ga::FrequencyOptimizer*>(&hillclimb)}) {
    const auto reference = run(*optimizer, 1);
    EXPECT_EQ(run(*optimizer, 2), reference) << optimizer->name();
    EXPECT_EQ(run(*optimizer, 8), reference) << optimizer->name();
  }
}

}  // namespace
}  // namespace ftdiag
