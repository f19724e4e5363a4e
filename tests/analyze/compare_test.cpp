#include "analyze/compare.h"

#include <gtest/gtest.h>

namespace perftrack::analyze {
namespace {

class CompareTest : public ::testing::Test {
 protected:
  CompareTest() : conn_(dbal::Connection::open(":memory:")), store_(*conn_) {
    store_.initialize();
    // Two runs of the same code with per-run execution resources and a
    // shared build function — the canonical comparison setting.
    for (const char* exec : {"runA", "runB"}) {
      store_.addExecution(exec, "app");
      const std::string root = std::string("/") + exec;
      store_.addResource(root + "/p0", "execution/process");
      store_.addResource("/app-build/m.c/solve", "build/module/function");
      store_.addResource("/app-build/m.c/setup", "build/module/function");
      const double scale = exec == std::string("runA") ? 1.0 : 2.0;
      store_.addPerformanceResult(
          exec, {{{"/app-build/m.c/solve", root + "/p0"}, core::FocusType::Primary}},
          "tool", "wall time", 10.0 * scale, "s");
      store_.addPerformanceResult(
          exec, {{{"/app-build/m.c/setup", root + "/p0"}, core::FocusType::Primary}},
          "tool", "wall time", 1.0, "s");
    }
    // A result only runA has.
    store_.addPerformanceResult(
        "runA", {{{"/app-build/m.c/solve"}, core::FocusType::Primary}}, "tool",
        "exclusive metric", 5.0, "s");
  }

  std::unique_ptr<dbal::Connection> conn_;
  core::PTDataStore store_;
};

TEST_F(CompareTest, ComparableContextCanonicalizesExecutionPrefix) {
  const auto idsA = store_.resultsForExecution("runA");
  const auto idsB = store_.resultsForExecution("runB");
  const auto recA = store_.getResult(idsA[0]);
  const auto recB = store_.getResult(idsB[0]);
  const auto infos = core::contextResourceInfos(store_, {recA, recB});
  EXPECT_EQ(comparableContext(recA, infos), comparableContext(recB, infos));
  EXPECT_NE(comparableContext(recA, infos).find("$EXEC"), std::string::npos);
}

TEST_F(CompareTest, MatchedRowsAndUnmatchedCounts) {
  const ComparisonReport report = compareExecutions(store_, "runA", "runB");
  EXPECT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.unmatched_a, 1u);  // the exclusive metric
  EXPECT_EQ(report.unmatched_b, 0u);
}

TEST_F(CompareTest, DifferenceAndRatio) {
  const ComparisonReport report = compareExecutions(store_, "runA", "runB");
  bool saw_solve = false;
  for (const ComparisonRow& row : report.rows) {
    if (row.context.find("solve") != std::string::npos) {
      saw_solve = true;
      EXPECT_DOUBLE_EQ(row.value_a, 10.0);
      EXPECT_DOUBLE_EQ(row.value_b, 20.0);
      EXPECT_DOUBLE_EQ(row.difference(), 10.0);
      EXPECT_DOUBLE_EQ(*row.ratio(), 2.0);
    }
  }
  EXPECT_TRUE(saw_solve);
}

TEST_F(CompareTest, DivergentFiltersByThreshold) {
  const ComparisonReport report = compareExecutions(store_, "runA", "runB");
  const auto big = report.divergent(0.5);  // only the 2x row
  ASSERT_EQ(big.size(), 1u);
  EXPECT_DOUBLE_EQ(big[0].difference(), 10.0);
  const auto all = report.divergent(0.0);
  // setup row (ratio exactly 1.0) is not divergent even at threshold 0.
  EXPECT_EQ(all.size(), 1u);
}

TEST_F(CompareTest, ZeroBaselineYieldsNoRatio) {
  ComparisonRow row{"m", "c", 0.0, 5.0};
  EXPECT_FALSE(row.ratio().has_value());
  EXPECT_DOUBLE_EQ(row.difference(), 5.0);
}

TEST_F(CompareTest, ReportTextMentionsEverything) {
  const ComparisonReport report = compareExecutions(store_, "runA", "runB");
  const std::string text = report.toText();
  EXPECT_NE(text.find("runA vs runB"), std::string::npos);
  EXPECT_NE(text.find("matched results:   2"), std::string::npos);
  EXPECT_NE(text.find("x2"), std::string::npos);
}

TEST_F(CompareTest, ZeroSharedContextsMatchesNothing) {
  // Two fresh executions whose results live on disjoint shared resources:
  // nothing aligns, everything is unmatched, and the report still renders.
  store_.addExecution("soloA", "app");
  store_.addExecution("soloB", "app");
  store_.addResource("/machX", "grid/machine");
  store_.addResource("/machY", "grid/machine");
  store_.addPerformanceResult("soloA", {{{"/machX"}, core::FocusType::Primary}},
                              "tool", "wall time", 3.0, "s");
  store_.addPerformanceResult("soloB", {{{"/machY"}, core::FocusType::Primary}},
                              "tool", "wall time", 4.0, "s");
  const ComparisonReport report = compareExecutions(store_, "soloA", "soloB");
  EXPECT_TRUE(report.rows.empty());
  EXPECT_EQ(report.unmatched_a, 1u);
  EXPECT_EQ(report.unmatched_b, 1u);
  EXPECT_TRUE(report.divergent(0.0).empty());
  EXPECT_NE(report.toText().find("matched results:   0"), std::string::npos);
}

TEST_F(CompareTest, MetricPresentOnOneSideOnlyStaysUnmatched) {
  // Same context on both sides, but the metric differs: metric is part of
  // the match key, so these must not be compared against each other.
  store_.addExecution("mA", "app");
  store_.addExecution("mB", "app");
  store_.addResource("/shared", "grid/machine");
  store_.addPerformanceResult("mA", {{{"/shared"}, core::FocusType::Primary}},
                              "tool", "cache misses", 100.0);
  store_.addPerformanceResult("mB", {{{"/shared"}, core::FocusType::Primary}},
                              "tool", "tlb misses", 90.0);
  const ComparisonReport report = compareExecutions(store_, "mA", "mB");
  EXPECT_TRUE(report.rows.empty());
  EXPECT_EQ(report.unmatched_a, 1u);
  EXPECT_EQ(report.unmatched_b, 1u);
}

TEST_F(CompareTest, ZeroBaselineRowSurvivesDivergentFilter) {
  // A zero-valued baseline has no ratio; divergent() must classify it by
  // difference instead of crashing or silently dropping it.
  store_.addExecution("zA", "app");
  store_.addExecution("zB", "app");
  store_.addResource("/zmach", "grid/machine");
  store_.addPerformanceResult("zA", {{{"/zmach"}, core::FocusType::Primary}},
                              "tool", "page faults", 0.0);
  store_.addPerformanceResult("zB", {{{"/zmach"}, core::FocusType::Primary}},
                              "tool", "page faults", 25.0);
  const ComparisonReport report = compareExecutions(store_, "zA", "zB");
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_FALSE(report.rows[0].ratio().has_value());
  const auto divergent = report.divergent(0.1);
  ASSERT_EQ(divergent.size(), 1u);
  EXPECT_DOUBLE_EQ(divergent[0].difference(), 25.0);
}

TEST_F(CompareTest, SelfComparisonIsClean) {
  const ComparisonReport report = compareExecutions(store_, "runA", "runA");
  EXPECT_EQ(report.unmatched_a, 0u);
  EXPECT_EQ(report.unmatched_b, 0u);
  for (const ComparisonRow& row : report.rows) {
    EXPECT_DOUBLE_EQ(row.difference(), 0.0);
  }
}

}  // namespace
}  // namespace perftrack::analyze
