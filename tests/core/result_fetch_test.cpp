// Set-oriented retrieval: PTDataStore::getResults / resourceInfos /
// getHistograms against the per-record statement loops they replaced (kept
// here as the oracle), in process and over a loopback PtServer, plus a guard
// that a result table's statement count grows with the number of 200-id
// chunks rather than with the number of rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/datastore.h"
#include "core/query_session.h"
#include "dbal/connection.h"
#include "minidb/database.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "util/error.h"

namespace perftrack::core {
namespace {

using minidb::Value;

// --- the per-record oracle ---------------------------------------------------

/// The fetch getResults() replaced: 2 + #foci statements for one id.
PerfResultRecord oracleResult(dbal::Connection& conn, std::int64_t result_id) {
  const auto rs = conn.execPrepared(
      "SELECT pr.id, e.name, a.name, m.name, t.name, pr.value, pr.units, "
      "pr.start_time, pr.end_time "
      "FROM performance_result pr "
      "JOIN execution e ON pr.execution_id = e.id "
      "JOIN application a ON e.application_id = a.id "
      "JOIN metric m ON pr.metric_id = m.id "
      "JOIN performance_tool t ON pr.performance_tool_id = t.id "
      "WHERE pr.id = ?",
      {Value(result_id)});
  if (rs.rows.empty()) throw std::runtime_error("oracle: no result");
  const auto& row = rs.rows[0];
  PerfResultRecord rec;
  rec.id = row[0].asInt();
  rec.execution = row[1].asText();
  rec.application = row[2].asText();
  rec.metric = row[3].asText();
  rec.tool = row[4].asText();
  rec.value = row[5].asReal();
  rec.units = row[6].asText();
  rec.start_time = row[7].asReal();
  rec.end_time = row[8].asReal();
  const auto foci = conn.execPrepared(
      "SELECT focus_id FROM performance_result_has_focus WHERE result_id = ?",
      {Value(result_id)});
  for (const auto& focus_row : foci.rows) {
    const auto members = conn.execPrepared(
        "SELECT resource_id, focus_type FROM focus_has_resource WHERE focus_id = ?",
        {Value(focus_row[0].asInt())});
    std::vector<ResourceId> context;
    FocusType type = FocusType::Primary;
    for (const auto& m : members.rows) {
      context.push_back(m[0].asInt());
      type = focusTypeFromName(m[1].asText());
    }
    rec.contexts.push_back(std::move(context));
    rec.context_types.push_back(type);
  }
  return rec;
}

ResourceInfo oracleResource(dbal::Connection& conn, ResourceId id) {
  const auto rs = conn.execPrepared(
      "SELECT r.id, r.name, r.full_name, r.parent_id, f.type_name "
      "FROM resource_item r JOIN focus_framework f ON r.focus_framework_id = f.id "
      "WHERE r.id = ?",
      {Value(id)});
  if (rs.rows.empty()) throw std::runtime_error("oracle: no resource");
  const auto& row = rs.rows[0];
  return {row[0].asInt(), row[1].asText(), row[2].asText(),
          row[3].isNull() ? 0 : row[3].asInt(), row[4].asText()};
}

std::optional<PTDataStore::Histogram> oracleHistogram(dbal::Connection& conn,
                                                      std::int64_t result_id) {
  const auto desc = conn.execPrepared(
      "SELECT num_bins, bin_width FROM performance_result_histogram WHERE result_id = ?",
      {Value(result_id)});
  if (desc.rows.empty()) return std::nullopt;
  PTDataStore::Histogram hist;
  hist.num_bins = static_cast<int>(desc.rows[0][0].asInt());
  hist.bin_width = desc.rows[0][1].asReal();
  const auto bins = conn.execPrepared(
      "SELECT bin, value FROM performance_result_bin WHERE result_id = ? ORDER BY bin",
      {Value(result_id)});
  for (const auto& row : bins.rows) {
    hist.bins.emplace_back(static_cast<int>(row[0].asInt()), row[1].asReal());
  }
  return hist;
}

void expectSameRecord(const PerfResultRecord& got, const PerfResultRecord& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.execution, want.execution);
  EXPECT_EQ(got.application, want.application);
  EXPECT_EQ(got.metric, want.metric);
  EXPECT_EQ(got.tool, want.tool);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.units, want.units);
  EXPECT_EQ(got.start_time, want.start_time);
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.contexts, want.contexts) << "result " << want.id;
  EXPECT_EQ(got.context_types, want.context_types) << "result " << want.id;
}

// --- the store ---------------------------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr int kResults = 460;  // past the 401-id (third chunk) boundary

/// Two executions with multi-context, histogram, and shared-focus results.
/// Deterministic, so two stores built by it hold identical ids.
void populate(PTDataStore& store) {
  store.addExecution("e1", "app");
  store.addExecution("e2", "app");
  for (int r = 0; r < kResults; ++r) {
    const std::string exec = r % 5 == 4 ? "e2" : "e1";
    const std::string proc = "/" + exec + "/p" + std::to_string(r % 8);
    const std::string cpu =
        "/G/M/b/n" + std::to_string(r % 4) + "/p" + std::to_string(r % 3);
    const std::string fn =
        "/bld/m" + std::to_string(r % 3) + ".c/f" + std::to_string(r % 13);
    store.addResource(proc, "execution/process");
    store.addResource(cpu, "grid/machine/partition/node/processor");
    store.addResource(fn, "build/module/function");
    std::vector<ResourceSetSpec> sets = {{{fn, proc, cpu}, FocusType::Primary}};
    if (r % 7 == 0) {
      sets.push_back({{"/G/M/b/n" + std::to_string(r % 4)}, FocusType::Parent});
    }
    if (r % 9 == 0) sets.push_back({{proc}, FocusType::Sender});
    if (r % 11 == 0) {
      store.addHistogramResult(exec, sets, "Paradyn", "cpu",
                               {1.0 + r, kNaN, 0.5 * r, kNaN, 2.0}, 0.25, "seconds");
    } else {
      store.addPerformanceResult(exec, sets, r % 2 ? "IRS" : "mpiP",
                                 r % 3 ? "wall time" : "calls", 0.5 * r,
                                 r % 3 ? "seconds" : "", r % 2 ? 1.0 * r : -1.0);
    }
  }
}

std::vector<std::int64_t> allResultIds(PTDataStore& store) {
  std::vector<std::int64_t> ids = store.resultsForExecution("e1");
  const auto e2 = store.resultsForExecution("e2");
  ids.insert(ids.end(), e2.begin(), e2.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Every id-list shape the chunking must survive: each rung and chunk
/// boundary, descending order, and duplicates.
std::vector<std::vector<std::int64_t>> idShapes(const std::vector<std::int64_t>& all) {
  std::vector<std::vector<std::int64_t>> shapes;
  for (const std::size_t n : {1u, 199u, 200u, 201u, 401u}) {
    std::vector<std::int64_t> ids(all.begin(),
                                  all.begin() + static_cast<std::ptrdiff_t>(n));
    std::reverse(ids.begin(), ids.end());
    shapes.push_back(std::move(ids));
  }
  shapes.push_back(all);
  std::vector<std::int64_t> dups = {all[3], all[1], all[3], all[3], all[250], all[1]};
  dups.insert(dups.end(), all.begin(), all.begin() + 210);  // chunk-spanning repeats
  shapes.push_back(std::move(dups));
  return shapes;
}

/// The differential body, run against either backend.
void expectMatchesOracle(PTDataStore& store) {
  dbal::Connection& conn = store.connection();
  const auto all = allResultIds(store);
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kResults));
  for (const auto& ids : idShapes(all)) {
    SCOPED_TRACE("ids: " + std::to_string(ids.size()));
    const auto got = store.getResults(ids);
    ASSERT_EQ(got.size(), ids.size());
    std::vector<ResourceId> rids;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      expectSameRecord(got[i], oracleResult(conn, ids[i]));
      for (const auto& context : got[i].contexts) {
        rids.insert(rids.end(), context.begin(), context.end());
      }
    }
    const auto infos = store.resourceInfos(rids);
    ASSERT_EQ(infos.size(), rids.size());
    for (std::size_t i = 0; i < rids.size(); ++i) {
      const ResourceInfo want = oracleResource(conn, rids[i]);
      EXPECT_EQ(infos[i].id, want.id);
      EXPECT_EQ(infos[i].name, want.name);
      EXPECT_EQ(infos[i].full_name, want.full_name);
      EXPECT_EQ(infos[i].parent_id, want.parent_id);
      EXPECT_EQ(infos[i].type_path, want.type_path);
    }
    const auto hists = store.getHistograms(ids);
    ASSERT_EQ(hists.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto want = oracleHistogram(conn, ids[i]);
      ASSERT_EQ(hists[i].has_value(), want.has_value()) << ids[i];
      if (!want) continue;
      EXPECT_EQ(hists[i]->num_bins, want->num_bins);
      EXPECT_EQ(hists[i]->bin_width, want->bin_width);
      EXPECT_EQ(hists[i]->bins, want->bins);
    }
  }
  // The store really has every shape of record the comparison is about.
  const auto records = store.getResults(all);
  EXPECT_TRUE(std::any_of(records.begin(), records.end(),
                          [](const auto& r) { return r.contexts.size() == 3; }));
  EXPECT_TRUE(std::any_of(records.begin(), records.end(), [](const auto& r) {
    return std::count(r.context_types.begin(), r.context_types.end(),
                      FocusType::Parent) == 1;
  }));
  const auto hists = store.getHistograms(all);
  EXPECT_EQ(std::count_if(hists.begin(), hists.end(),
                          [](const auto& h) { return h.has_value(); }),
            (kResults + 10) / 11);
}

void expectUnknownIdsThrow(PTDataStore& store) {
  const auto all = allResultIds(store);
  const std::int64_t missing = all.back() + 1000;
  try {
    (void)store.getResults({all[0], missing, all[1], missing + 1});
    ADD_FAILURE() << "getResults accepted an unknown id";
  } catch (const util::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(missing)), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)store.getResult(missing), util::ModelError);
  try {
    (void)store.resourceInfos({1, 999999});
    ADD_FAILURE() << "resourceInfos accepted an unknown id";
  } catch (const util::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("999999"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(store.getResults({}).empty());
  EXPECT_TRUE(store.resourceInfos({}).empty());
}

/// The Fig. 4 two-step table for execution e1, as CSV.
std::string tableCsv(PTDataStore& store) {
  QuerySession session(store);
  session.addFamily(ResourceFilter::byName("/e1", Expansion::Descendants));
  ResultTable table = session.run();
  for (const std::string& type : table.freeResourceTypes()) table.addColumn(type);
  EXPECT_GE(table.extraColumns().size(), 2u);
  std::ostringstream out;
  table.toCsv(out);
  return out.str();
}

// --- local ---------------------------------------------------------------------

class ResultFetchTest : public ::testing::Test {
 protected:
  ResultFetchTest() : conn_(dbal::Connection::open(":memory:")), store_(*conn_) {
    store_.initialize();
    populate(store_);
  }

  std::unique_ptr<dbal::Connection> conn_;
  PTDataStore store_;
};

TEST_F(ResultFetchTest, GetResultsMatchesThePerRecordOracle) {
  expectMatchesOracle(store_);
}

TEST_F(ResultFetchTest, UnknownIdsThrowNamingTheId) { expectUnknownIdsThrow(store_); }

TEST_F(ResultFetchTest, OneElementCallsMatchTheBatch) {
  const auto all = allResultIds(store_);
  const auto batch = store_.getResults(all);
  for (std::size_t i = 0; i < all.size(); i += 37) {
    expectSameRecord(store_.getResult(all[i]), batch[i]);
  }
}

// --- remote --------------------------------------------------------------------

class RemoteResultFetchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = minidb::Database::openMemory();
    server::ServerConfig config;
    config.port = 0;
    server_ = std::make_unique<server::PtServer>(*db_, config);
    server_->start();
    conn_ = dbal::Connection::open("pt://127.0.0.1:" +
                                   std::to_string(server_->boundPort()));
    store_ = std::make_unique<PTDataStore>(*conn_);
    store_->initialize();
    populate(*store_);
  }

  void TearDown() override {
    store_.reset();
    conn_.reset();
    server_->stop();
  }

  std::unique_ptr<minidb::Database> db_;
  std::unique_ptr<server::PtServer> server_;
  std::unique_ptr<dbal::Connection> conn_;
  std::unique_ptr<PTDataStore> store_;
};

TEST_F(RemoteResultFetchTest, GetResultsMatchesThePerRecordOracle) {
  expectMatchesOracle(*store_);
}

TEST_F(RemoteResultFetchTest, UnknownIdsThrowNamingTheId) {
  expectUnknownIdsThrow(*store_);
}

TEST_F(RemoteResultFetchTest, RecordsAndTableAreIdenticalToLocal) {
  auto local_conn = dbal::Connection::open(":memory:");
  PTDataStore local(*local_conn);
  local.initialize();
  populate(local);
  const auto all = allResultIds(local);
  ASSERT_EQ(allResultIds(*store_), all);
  const auto remote_records = store_->getResults(all);
  const auto local_records = local.getResults(all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    expectSameRecord(remote_records[i], local_records[i]);
  }
  const std::string csv = tableCsv(local);
  EXPECT_EQ(tableCsv(*store_), csv);
  EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 300);
}

// --- statement-count guard ---------------------------------------------------

/// pt_sql_queries_total consumed by the Fig. 4 table over `n` results that
/// each have their own context (one process resource per result), so every
/// set the table touches — results, foci, resources — grows with n.
std::uint64_t tableStatements(int n) {
  auto conn = dbal::Connection::open(":memory:");
  PTDataStore store(*conn);
  store.initialize();
  store.addExecution("big", "app");
  for (int r = 0; r < n; ++r) {
    const std::string proc = "/big/p" + std::to_string(r);
    const std::string fn = "/bld/m.c/f" + std::to_string(r % 5);
    store.addResource(proc, "execution/process");
    store.addResource(fn, "build/module/function");
    store.addPerformanceResult("big", {{{proc, fn}, FocusType::Primary}}, "IRS", "time",
                               1.0 * r, "seconds");
  }
  QuerySession session(store);
  session.addFamily(ResourceFilter::byName("/big", Expansion::Descendants));
  obs::Counter& queries = obs::Registry::global().counter("pt_sql_queries_total");
  const std::uint64_t before = queries.value();
  ResultTable table = session.run();
  const auto free = table.freeResourceTypes();
  for (const std::string& type : free) table.addColumn(type);
  const std::uint64_t spent = queries.value() - before;
  EXPECT_EQ(table.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(free.size(), 2u);  // execution/process and build/module/function
  return spent;
}

TEST(ResultTableStatements, GrowWithChunksNotRows) {
  const std::uint64_t small = tableStatements(50);    // 1 chunk of results
  const std::uint64_t large = tableStatements(1000);  // 5 chunks of results
  // Per extra 200-id chunk the table spends at most one statement on each
  // set it walks: result rows, focus links, focus members and context
  // resources, plus the family's resources and foci when the pr-filter
  // match runs as SQL — 8 with slack. A per-row loop spends 950+ more.
  EXPECT_LE(large, small + 8 * (5 - 1)) << "small=" << small << " large=" << large;
  EXPECT_LT(large, 100u);
}

}  // namespace
}  // namespace perftrack::core
