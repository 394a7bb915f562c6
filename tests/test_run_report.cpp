#include "io/run_report.hpp"

#include <gtest/gtest.h>

namespace ftdiag::io {
namespace {

class RunReportTest : public ::testing::Test {
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

Session* RunReportTest::session_ = nullptr;
TestGenResult* RunReportTest::result_ = nullptr;

TEST_F(RunReportTest, ContainsAllSections) {
  RunReportOptions options;
  options.evaluation.trials = 40;
  const std::string report = render_run_report(*session_, *result_, options);
  EXPECT_NE(report.find("# Fault-trajectory test program: nf_biquad"),
            std::string::npos);
  EXPECT_NE(report.find("## Configuration"), std::string::npos);
  EXPECT_NE(report.find("## Fault dictionary"), std::string::npos);
  EXPECT_NE(report.find("## Selected test vector"), std::string::npos);
  EXPECT_NE(report.find("## Diagnosis evaluation"), std::string::npos);
}

TEST_F(RunReportTest, ListsTestablesAndGroups) {
  RunReportOptions options;
  options.include_evaluation = false;
  const std::string report = render_run_report(*session_, *result_, options);
  EXPECT_NE(report.find("Ra, Rb, R1, R2, R3, C1, C2"), std::string::npos);
  EXPECT_NE(report.find("ambiguity groups"), std::string::npos);
}

TEST_F(RunReportTest, EvaluationCanBeDisabled) {
  RunReportOptions options;
  options.include_evaluation = false;
  const std::string report = render_run_report(*session_, *result_, options);
  EXPECT_EQ(report.find("## Diagnosis evaluation"), std::string::npos);
}

TEST_F(RunReportTest, TrajectoriesOptIn) {
  RunReportOptions options;
  options.include_evaluation = false;
  EXPECT_EQ(
      render_run_report(*session_, *result_, options).find("## Trajectories"),
      std::string::npos);
  options.include_trajectories = true;
  const std::string verbose = render_run_report(*session_, *result_, options);
  EXPECT_NE(verbose.find("## Trajectories"), std::string::npos);
  EXPECT_NE(verbose.find("| R3 | +40% |"), std::string::npos);
}

TEST_F(RunReportTest, ReportsTheChosenVector) {
  RunReportOptions options;
  options.include_evaluation = false;
  const std::string report = render_run_report(*session_, *result_, options);
  EXPECT_NE(report.find(result_->best.vector.label()), std::string::npos);
}

TEST_F(RunReportTest, ConvergenceTableCoversAllGenerations) {
  RunReportOptions options;
  options.include_evaluation = false;
  const std::string report = render_run_report(*session_, *result_, options);
  // 16 history rows (gen 0..15) -> the last generation number appears.
  EXPECT_NE(report.find("| 15 |"), std::string::npos);
}

}  // namespace
}  // namespace ftdiag::io
