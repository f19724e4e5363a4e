#include "ptdf/export.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "sim/irs_gen.h"
#include "sim/machines.h"
#include "tools/irs_parser.h"
#include "util/tempdir.h"

namespace perftrack::ptdf {
namespace {

/// Fixture: a store populated by a real IRS run (machine data, collectors,
/// per-function results — the full record mix).
class ExportTest : public ::testing::Test {
 protected:
  ExportTest() : conn_(dbal::Connection::open(":memory:")), store_(*conn_) {
    store_.initialize();
    util::TempDir workspace("export-test");
    const auto run_dir = workspace.file("run");
    sim::generateIrsRun({sim::frostConfig(), 4, "MPI", 6, ""}, run_dir);
    std::ostringstream out;
    Writer writer(out);
    tools::convertIrsRun(run_dir, sim::frostConfig(), writer);
    std::istringstream in(out.str());
    load(store_, in);
  }

  std::unique_ptr<dbal::Connection> conn_;
  core::PTDataStore store_;
};

TEST_F(ExportTest, FullStoreRoundTripPreservesEverything) {
  std::ostringstream out;
  Writer writer(out);
  const ExportStats ex = exportStore(store_, writer);
  EXPECT_GT(ex.resources, 0u);
  EXPECT_GT(ex.perf_results, 0u);

  auto conn2 = dbal::Connection::open(":memory:");
  core::PTDataStore copy(*conn2);
  copy.initialize();
  std::istringstream in(out.str());
  load(copy, in);

  const core::StoreStats original = store_.stats();
  const core::StoreStats restored = copy.stats();
  EXPECT_EQ(restored.resources, original.resources);
  EXPECT_EQ(restored.attributes, original.attributes);
  EXPECT_EQ(restored.metrics, original.metrics);
  EXPECT_EQ(restored.executions, original.executions);
  EXPECT_EQ(restored.performance_results, original.performance_results);
  EXPECT_EQ(restored.foci, original.foci);
  EXPECT_EQ(restored.resource_types, original.resource_types);
}

TEST_F(ExportTest, RoundTripPreservesResultDetails) {
  std::ostringstream out;
  Writer writer(out);
  exportStore(store_, writer);
  auto conn2 = dbal::Connection::open(":memory:");
  core::PTDataStore copy(*conn2);
  copy.initialize();
  std::istringstream in(out.str());
  load(copy, in);

  const std::string exec = store_.executions().at(0);
  const auto src_ids = store_.resultsForExecution(exec);
  const auto dst_ids = copy.resultsForExecution(exec);
  ASSERT_EQ(src_ids.size(), dst_ids.size());
  // Spot-check several records: metric, value, context size all survive.
  for (std::size_t i = 0; i < src_ids.size(); i += 97) {
    const auto a = store_.getResult(src_ids[i]);
    const auto b = copy.getResult(dst_ids[i]);
    EXPECT_EQ(a.metric, b.metric);
    EXPECT_EQ(a.tool, b.tool);
    EXPECT_NEAR(a.value, b.value, std::abs(a.value) * 1e-6 + 1e-9);
    EXPECT_EQ(a.contexts.size(), b.contexts.size());
    EXPECT_EQ(a.contexts.at(0).size(), b.contexts.at(0).size());
  }
}

TEST_F(ExportTest, RoundTripPreservesConstraints) {
  // The IRS build capture links the build to its compiler via a constraint.
  std::ostringstream out;
  Writer writer(out);
  const ExportStats ex = exportStore(store_, writer);
  EXPECT_GT(ex.constraints, 0u);
  auto conn2 = dbal::Connection::open(":memory:");
  core::PTDataStore copy(*conn2);
  copy.initialize();
  std::istringstream in(out.str());
  load(copy, in);
  const auto build = copy.findResource("/build-irs-frost-np4-s6");
  ASSERT_TRUE(build.has_value());
  EXPECT_FALSE(copy.constraintsOf(*build).empty());
}

TEST_F(ExportTest, StatementsGrowWithBatchesNotResources) {
  // Attributes and constraints are fetched per batch of resources in
  // chunked IN-lists; one statement per resource for each would cost more
  // statements than there are resources.
  obs::Counter& statements = obs::Registry::global().counter("pt_sql_queries_total");
  std::ostringstream full;
  Writer full_writer(full);
  const std::uint64_t before = statements.value();
  const ExportStats ex = exportStore(store_, full_writer);
  const std::uint64_t full_statements = statements.value() - before;
  ASSERT_GT(ex.resources, 50u);
  EXPECT_LT(full_statements, ex.resources / 2);

  std::ostringstream one;
  Writer one_writer(one);
  const std::uint64_t before_one = statements.value();
  const ExportStats ex_one = exportExecution(store_, store_.executions().at(0), one_writer);
  // Here the results' chunked fetches dominate; a statement per resource
  // would still push the total past the resource count.
  EXPECT_LT(statements.value() - before_one, ex_one.resources);
}

TEST_F(ExportTest, ExportIntoPopulatedStoreMerges) {
  // Loading an export into a store that already has other data merges
  // instead of clobbering.
  auto conn2 = dbal::Connection::open(":memory:");
  core::PTDataStore other(*conn2);
  other.initialize();
  other.addExecution("unrelated", "otherapp");
  other.addResource("/unrelated", "execution");
  other.addPerformanceResult("unrelated", {{{"/unrelated"}, core::FocusType::Primary}},
                             "t", "m", 1.0);

  std::ostringstream out;
  Writer writer(out);
  exportStore(store_, writer);
  std::istringstream in(out.str());
  load(other, in);

  EXPECT_EQ(other.executions().size(), 2u);
  EXPECT_EQ(other.stats().performance_results,
            store_.stats().performance_results + 1);
}

TEST_F(ExportTest, SingleExecutionExportIsSelfContained) {
  const std::string exec = store_.executions().at(0);
  std::ostringstream out;
  Writer writer(out);
  const ExportStats ex = exportExecution(store_, exec, writer);
  EXPECT_EQ(ex.executions, 1u);
  EXPECT_GT(ex.perf_results, 1000u);

  auto conn2 = dbal::Connection::open(":memory:");
  core::PTDataStore copy(*conn2);
  copy.initialize();
  std::istringstream in(out.str());
  EXPECT_NO_THROW(load(copy, in));  // self-contained: no dangling references
  EXPECT_EQ(copy.resultsForExecution(exec).size(),
            store_.resultsForExecution(exec).size());
}

TEST_F(ExportTest, ExportIsAFixedPoint) {
  // Property: export(load(export(S))) is byte-identical to export(S) —
  // the PTdf form is canonical, so repeated round trips cannot drift.
  std::ostringstream first;
  {
    Writer writer(first);
    exportStore(store_, writer);
  }
  auto conn2 = dbal::Connection::open(":memory:");
  core::PTDataStore copy(*conn2);
  copy.initialize();
  {
    std::istringstream in(first.str());
    load(copy, in);
  }
  std::ostringstream second;
  {
    Writer writer(second);
    exportStore(copy, writer);
  }
  EXPECT_EQ(first.str(), second.str());
}

TEST_F(ExportTest, ExportedFileIsIdempotentToReload) {
  // Loading the same export twice adds no duplicate resources (results do
  // duplicate — they carry no natural key — which matches the paper's
  // append-oriented loading model).
  std::ostringstream out;
  Writer writer(out);
  exportStore(store_, writer);
  auto conn2 = dbal::Connection::open(":memory:");
  core::PTDataStore copy(*conn2);
  copy.initialize();
  {
    std::istringstream in(out.str());
    load(copy, in);
  }
  const auto resources_once = copy.stats().resources;
  {
    std::istringstream in(out.str());
    load(copy, in);
  }
  EXPECT_EQ(copy.stats().resources, resources_once);
}

}  // namespace
}  // namespace perftrack::ptdf
