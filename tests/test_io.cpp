#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/evaluation.hpp"
#include "io/exporters.hpp"
#include "io/report.hpp"
#include "session.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace ftdiag::io {
namespace {

class IoTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    session_ = new Session(Session::open("builtin:nf_biquad"));
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }
  static Session* session_;
};

Session* IoTest::session_ = nullptr;

TEST_F(IoTest, ResponseCsvHasExpectedColumns) {
  std::ostringstream os;
  write_response_csv(os, session_->dictionary()->golden());
  const auto table = csv::parse(os.str());
  EXPECT_EQ(table.header,
            (std::vector<std::string>{"freq_hz", "mag", "mag_db", "phase_deg"}));
  EXPECT_EQ(table.rows.size(), session_->dictionary()->golden().size());
}

TEST_F(IoTest, DictionaryCsvOneColumnPerFault) {
  std::ostringstream os;
  write_dictionary_csv(os, *session_->dictionary());
  const auto table = csv::parse(os.str());
  EXPECT_EQ(table.header.size(), 2u + session_->dictionary()->fault_count());
  EXPECT_EQ(table.header[0], "freq_hz");
  EXPECT_EQ(table.header[1], "golden");
  EXPECT_EQ(table.header[2], "Ra-40%");
  EXPECT_EQ(table.rows.size(), session_->dictionary()->frequencies().size());
}

TEST_F(IoTest, TrajectoryCsvRoundTrip) {
  const auto trajs = session_->evaluator().trajectories({{400.0, 1300.0}});
  std::ostringstream os;
  write_trajectories_csv(os, trajs);
  const auto table = csv::parse(os.str());
  EXPECT_EQ(table.header,
            (std::vector<std::string>{"site", "deviation", "x0", "x1"}));
  // 7 sites x 9 points (8 deviations + golden).
  EXPECT_EQ(table.rows.size(), 7u * 9u);
}

TEST_F(IoTest, GnuplotScriptMentionsEverySite) {
  const auto trajs = session_->evaluator().trajectories({{400.0, 1300.0}});
  const std::string script =
      trajectory_gnuplot_script(trajs, "trajs.csv", "paper CUT");
  for (const auto& t : trajs) {
    EXPECT_NE(script.find("'" + t.site() + "'"), std::string::npos);
  }
  EXPECT_NE(script.find("trajs.csv"), std::string::npos);
}

TEST_F(IoTest, GnuplotRequires2d) {
  const auto trajs =
      session_->evaluator().trajectories({{200.0, 1000.0, 5000.0}});
  EXPECT_THROW(trajectory_gnuplot_script(trajs, "x.csv", "t"), ConfigError);
}

TEST(MeasurementCsv, RoundTripsAndRejectsBadGrids) {
  const mna::AcResponse measured(
      {100.0, 1000.0}, {mna::Complex(0.5, -0.25), mna::Complex(1, 0)});
  std::ostringstream os;
  write_measurement_csv(os, measured);
  EXPECT_EQ(load_measurement_csv(os.str()).values(), measured.values());
  // 1e308t overflows to +inf in units::parse.
  for (const char* grid : {"1000,0.5,0\n100,1,0\n", "1e308t,0.5,0\n100,1,0\n",
                           "100,0.5,0\n1e308t,1,0\n"}) {
    EXPECT_THROW((void)load_measurement_csv(std::string("freq_hz,re,im\n") +
                                            grid),
                 ParseError)
        << grid;
  }
}

TEST(WriteFile, WritesAndFailsCleanly) {
  const std::string path = ::testing::TempDir() + "/ftdiag_io_test.txt";
  write_file(path, "hello");
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "hello");
  std::remove(path.c_str());
  EXPECT_THROW(write_file("/nonexistent_dir/x.txt", "y"), Error);
}

TEST_F(IoTest, AtpgReportContainsKeyNumbers) {
  const auto result = session_->run_search();
  std::ostringstream os;
  print_atpg_report(os, result);
  const std::string report = os.str();
  EXPECT_NE(report.find("test vector"), std::string::npos);
  EXPECT_NE(report.find("fitness"), std::string::npos);
  EXPECT_NE(report.find("search convergence"), std::string::npos);
  EXPECT_NE(report.find("generation"), std::string::npos);
}

TEST_F(IoTest, DiagnosisReportRanksCandidates) {
  const auto engine = session_->evaluator().make_engine({{400.0, 1300.0}});
  const auto diagnosis = engine.diagnose({0.01, -0.02});
  std::ostringstream os;
  print_diagnosis(os, diagnosis, 2);
  const std::string text = os.str();
  EXPECT_NE(text.find("diagnosis:"), std::string::npos);
  EXPECT_NE(text.find("rank"), std::string::npos);
}

TEST_F(IoTest, AccuracyReportIncludesConfusionMatrix) {
  core::EvaluationOptions options;
  options.trials = 30;
  const auto report = core::evaluate_diagnosis(
      session_->cut(), *session_->dictionary(), {{700.0, 1600.0}},
      core::SamplingPolicy{}, options);
  std::ostringstream os;
  print_accuracy_report(os, report);
  const std::string text = os.str();
  EXPECT_NE(text.find("site accuracy"), std::string::npos);
  EXPECT_NE(text.find("confusion matrix"), std::string::npos);
  EXPECT_NE(text.find("ambiguity groups"), std::string::npos);
  EXPECT_NE(text.find("Ra"), std::string::npos);
}

}  // namespace
}  // namespace ftdiag::io
