/// Facade tests: builder validation, process-wide dictionary sharing,
/// the generate -> score -> diagnose round trip, and batch diagnosis.
#include "session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "core/ambiguity.hpp"
#include "util/error.hpp"

namespace ftdiag {
namespace {

// ------------------------------------------------------------- builder

TEST(SessionBuilder, RequiresACut) {
  EXPECT_THROW(SessionBuilder().build(), ConfigError);
}

TEST(SessionBuilder, UnknownRegistryNameRejected) {
  EXPECT_THROW(SessionBuilder::from_registry("no_such_circuit"),
               ConfigError);
  EXPECT_THROW(Session::open("builtin:no_such_circuit"), ConfigError);
}

TEST(SessionBuilder, RejectsInvalidSearchOptions) {
  SearchOptions search;
  search.n_frequencies = 0;
  EXPECT_THROW(SessionBuilder::from_registry("tow_thomas")
                   .search(search)
                   .build(),
               ConfigError);

  SearchOptions bad_ga;
  bad_ga.ga.population_size = 0;
  EXPECT_THROW(SessionBuilder::from_registry("tow_thomas")
                   .search(bad_ga)
                   .build(),
               ConfigError);
}

TEST(SessionBuilder, RejectsNegativeNoiseSigma) {
  EXPECT_THROW(SessionBuilder::from_registry("tow_thomas")
                   .noise({-0.1, 1})
                   .build(),
               ConfigError);
}

TEST(SessionBuilder, RejectsBadDeviationSpec) {
  faults::DeviationSpec spec;
  spec.step_fraction = 0.0;
  EXPECT_THROW(SessionBuilder::from_registry("tow_thomas")
                   .deviations(spec)
                   .build(),
               ConfigError);
}

TEST(SessionBuilder, FluentShorthandsStick) {
  Session session = SessionBuilder::from_registry("tow_thomas")
                        .fitness(FitnessKind::kHybrid)
                        .frequencies(3)
                        .seed(7)
                        .noise({0.002, 11})
                        .build();
  EXPECT_EQ(session.options().search.fitness, FitnessKind::kHybrid);
  EXPECT_EQ(session.options().search.n_frequencies, 3u);
  EXPECT_EQ(session.options().search.seed, 7u);
  EXPECT_DOUBLE_EQ(session.options().noise.sigma, 0.002);
  EXPECT_EQ(session.cut().name, "tow_thomas");
}

// -------------------------------------------------- dictionary sharing

TEST(SessionDictionary, SharedAcrossSessionsOfTheSameCut) {
  Session::clear_dictionary_cache();
  Session a = Session::open("builtin:tow_thomas");
  Session b = SessionBuilder::from_registry("tow_thomas")
                  .fitness(FitnessKind::kHybrid)  // fitness doesn't re-simulate
                  .build();

  const auto dict_a = a.dictionary();
  const auto dict_b = b.dictionary();
  // Pointer identity: the second session found the first one's build in
  // the process-wide cache instead of re-running fault simulation.
  EXPECT_EQ(dict_a.get(), dict_b.get());
  EXPECT_EQ(Session::dictionary_cache_size(), 1u);
}

TEST(SessionDictionary, DifferentDeviationsGetDistinctDictionaries) {
  Session::clear_dictionary_cache();
  Session paper = Session::open("builtin:tow_thomas");
  faults::DeviationSpec coarse;
  coarse.step_fraction = 0.20;
  Session stepped = SessionBuilder::from_registry("tow_thomas")
                        .deviations(coarse)
                        .build();
  EXPECT_NE(paper.dictionary().get(), stepped.dictionary().get());
  EXPECT_EQ(Session::dictionary_cache_size(), 2u);
  EXPECT_LT(stepped.dictionary()->fault_count(),
            paper.dictionary()->fault_count());
}

TEST(SessionDictionary, ConcurrentFirstAccessYieldsOnePointer) {
  Session::clear_dictionary_cache();
  Session session = Session::open("builtin:tow_thomas");
  std::vector<std::shared_ptr<const faults::FaultDictionary>> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&, i] { seen[i] = session.dictionary(); });
  }
  for (auto& t : threads) t.join();
  for (const auto& d : seen) EXPECT_EQ(d.get(), seen[0].get());
}

// --------------------------------------------------------- round trip

class SessionRoundTrip : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    session_ = new Session(SessionBuilder::from_registry("tow_thomas")
                               .fitness(FitnessKind::kHybrid)
                               .build());
    result_ = new TestGenResult(session_->generate_tests());
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

Session* SessionRoundTrip::session_ = nullptr;
TestGenResult* SessionRoundTrip::result_ = nullptr;

TEST_F(SessionRoundTrip, GenerateInstallsTheWinningVector) {
  ASSERT_TRUE(session_->has_vector());
  EXPECT_EQ(session_->vector().frequencies_hz,
            result_->best.vector.frequencies_hz);
  EXPECT_EQ(result_->dictionary_faults,
            session_->dictionary()->fault_count());
  EXPECT_GT(result_->best.fitness, 0.0);
}

TEST_F(SessionRoundTrip, ScoreAgreesWithGenerateResult) {
  const auto rescored = session_->score(result_->best.vector);
  EXPECT_DOUBLE_EQ(rescored.fitness, result_->best.fitness);
  EXPECT_EQ(rescored.intersections, result_->best.intersections);
}

TEST_F(SessionRoundTrip, DiagnoseNamesTheFaultyGroup) {
  // An off-grid fault on every testable site must diagnose into the true
  // site's structural ambiguity group (tow_thomas has ratio-degenerate
  // pairs, so exact-site equality is not the right contract).  The GA's
  // winning vector may also retain trajectory *crossings* (its fitness
  // counts them but cannot always drive them to zero); when the injected
  // deviation lands on a crossing, the true site ties the best candidate
  // to within a small distance factor, so a diagnosis whose near-tie
  // ambiguity set contains the true site is also correct.
  const auto groups = core::find_ambiguity_groups(*session_->dictionary());
  for (const auto& site : session_->cut().testable) {
    SCOPED_TRACE(site);
    const faults::ParametricFault fault{faults::FaultSite::value_of(site),
                                        0.23};
    const auto diagnosis = session_->diagnose(session_->measure(fault));
    const auto near_ties = diagnosis.ambiguity_set(4.0);
    const bool tied =
        std::find(near_ties.begin(), near_ties.end(), site) != near_ties.end();
    EXPECT_TRUE(core::same_group(groups, diagnosis.best().site, site) || tied)
        << "diagnosed " << diagnosis.best().site << " at distance "
        << diagnosis.best().distance << "; true site " << site
        << " outside the x4 ambiguity set";
  }
}

TEST_F(SessionRoundTrip, DiagnoseWithoutVectorThrows) {
  Session fresh = Session::open("builtin:tow_thomas");
  EXPECT_THROW(fresh.vector(), ConfigError);
  EXPECT_THROW(fresh.diagnose(core::Point{0.0, 0.0}), ConfigError);
  EXPECT_THROW(fresh.measure({faults::FaultSite::value_of("R1"), 0.2}),
               ConfigError);
}

TEST_F(SessionRoundTrip, BatchDiagnosisAgreesWithSingleCalls) {
  std::vector<core::Point> points;
  std::vector<faults::ParametricFault> injected;
  std::size_t i = 0;
  for (const auto& site : session_->cut().testable) {
    const double deviation = (i % 2 ? -1.0 : 1.0) * (0.15 + 0.03 * double(i));
    injected.push_back({faults::FaultSite::value_of(site), deviation});
    points.push_back(session_->observe(session_->measure(injected.back())));
    ++i;
  }

  const auto batch = session_->diagnose_batch(points);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    const auto single = session_->diagnose(points[k]);
    EXPECT_EQ(batch[k].best().site, single.best().site);
    EXPECT_DOUBLE_EQ(batch[k].best().distance, single.best().distance);
    EXPECT_EQ(batch[k].ranking.size(), single.ranking.size());
  }
}

TEST_F(SessionRoundTrip, BatchDiagnosisIsThreadSafe) {
  std::vector<core::Point> points;
  for (const auto& site : session_->cut().testable) {
    points.push_back(session_->observe(
        session_->measure({faults::FaultSite::value_of(site), 0.3})));
  }
  const auto reference = session_->diagnose_batch(points);

  std::vector<std::vector<core::Diagnosis>> results(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back(
        [&, t] { results[t] = session_->diagnose_batch(points); });
  }
  for (auto& t : threads) t.join();
  for (const auto& r : results) {
    ASSERT_EQ(r.size(), reference.size());
    for (std::size_t k = 0; k < r.size(); ++k) {
      EXPECT_EQ(r[k].best().site, reference[k].best().site);
    }
  }
}

TEST_F(SessionRoundTrip, ConcurrentDiagnosisAndEngineDictionaryBuilds) {
  // Batch diagnosis on the shared session must stay correct while other
  // threads run full dictionary builds through the parallel simulation
  // engine (distinct deviation steps force distinct cache keys, so each
  // builder thread performs a real engine build, itself multi-threaded).
  std::vector<core::Point> points;
  for (const auto& site : session_->cut().testable) {
    points.push_back(session_->observe(
        session_->measure({faults::FaultSite::value_of(site), 0.25})));
  }
  const auto reference = session_->diagnose_batch(points);

  constexpr std::size_t kDiagnosers = 3;
  constexpr std::size_t kBuilders = 3;
  std::vector<std::vector<core::Diagnosis>> results(kDiagnosers);
  std::vector<std::size_t> fault_counts(kBuilders, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kDiagnosers; ++t) {
    threads.emplace_back([&, t] {
      for (int repeat = 0; repeat < 5; ++repeat) {
        results[t] = session_->diagnose_batch(points);
      }
    });
  }
  for (std::size_t t = 0; t < kBuilders; ++t) {
    threads.emplace_back([&, t] {
      faults::DeviationSpec spec;
      spec.step_fraction = 0.05 + 0.01 * static_cast<double>(t + 1);
      SimOptions sim;
      sim.threads = 2;
      Session builder = SessionBuilder::from_registry("tow_thomas")
                            .deviations(spec)
                            .sim(sim)
                            .build();
      fault_counts[t] = builder.dictionary()->fault_count();
    });
  }
  for (auto& thread : threads) thread.join();

  for (const auto& r : results) {
    ASSERT_EQ(r.size(), reference.size());
    for (std::size_t k = 0; k < r.size(); ++k) {
      EXPECT_EQ(r[k].best().site, reference[k].best().site);
      EXPECT_DOUBLE_EQ(r[k].best().distance, reference[k].best().distance);
    }
  }
  for (const std::size_t count : fault_counts) EXPECT_GT(count, 0u);
}

TEST(SessionSimOptions, ThreadsShorthandSticksAndNeverChangesTheDictionary) {
  SimOptions sim;
  sim.threads = 8;
  Session configured = SessionBuilder::from_registry("tow_thomas")
                           .sim(sim)
                           .build();
  EXPECT_EQ(configured.options().sim.threads, 8u);
  Session shorthand =
      SessionBuilder::from_registry("tow_thomas").threads(8).build();
  EXPECT_EQ(shorthand.options().sim.threads, 8u);

  // Thread count is excluded from the cache key: same dictionary pointer.
  Session single = SessionBuilder::from_registry("tow_thomas").threads(1).build();
  EXPECT_EQ(shorthand.dictionary().get(), single.dictionary().get());
}

TEST(SessionSimOptions, ReuseToggleGetsADistinctDictionary) {
  Session::clear_dictionary_cache();
  Session reuse = SessionBuilder::from_registry("tow_thomas").build();
  SimOptions serial;
  serial.reuse_factorization = false;
  Session naive = SessionBuilder::from_registry("tow_thomas")
                      .sim(serial)
                      .build();
  // Reuse changes values within rounding error, so the two variants must
  // not share cache entries.
  EXPECT_NE(reuse.dictionary().get(), naive.dictionary().get());
  EXPECT_EQ(reuse.dictionary()->fault_count(),
            naive.dictionary()->fault_count());
}

TEST(SessionSimOptions, RejectsBadEngineOptions) {
  SimOptions sim;
  sim.max_growth = 0.5;
  EXPECT_THROW(
      SessionBuilder::from_registry("tow_thomas").sim(sim).build(),
      ConfigError);
}

TEST_F(SessionRoundTrip, UseVectorReArmsDiagnosis) {
  Session session = SessionBuilder::from_registry("tow_thomas").build();
  session.use_vector({{700.0, 1600.0}});
  EXPECT_EQ(session.vector().frequencies_hz.size(), 2u);
  const faults::ParametricFault fault{faults::FaultSite::value_of("R1"), 0.3};
  EXPECT_NO_THROW(session.diagnose(session.measure(fault)));
}

TEST(SessionSensitivitySeeding, WorksForAnyFrequencyCount) {
  // The seeding screen used to be silently skipped unless n_frequencies
  // was exactly 2; it now generalizes to n-tuples (and peaks for n = 1).
  for (std::size_t n : {1u, 2u, 3u}) {
    SearchOptions search;
    search.n_frequencies = n;
    search.seed_with_sensitivity = true;
    search.sensitivity_seed_count = 3;
    search.ga.population_size = 8;
    search.ga.generations = 1;
    Session session = SessionBuilder::from_registry("sallen_key_lp")
                          .search(search)
                          .build();
    const TestGenResult result = session.run_search();
    EXPECT_EQ(result.best.vector.frequencies_hz.size(), n) << n;
    EXPECT_GT(result.best.fitness, 0.0) << n;
  }
}

}  // namespace
}  // namespace ftdiag
