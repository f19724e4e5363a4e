// core::diag differential: the set-oriented diagnosis (per-execution scans,
// interned contexts, integer alignment keys) must render byte-identically to
// a reference implementation that aligns the way the engine first did: one
// join per side, a std::set of canonical names per result, and a
// (metric name, context) std::map. toText(), toRows() and every Stats field
// but diff_us must agree, on simulated IRS and SMG2000 mpiP stores and on an
// edge-case store built through PTDataStore and plain SQL.
#include "core/diag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/datastore.h"
#include "dbal/connection.h"
#include "ptdf/ptdf.h"
#include "sim/irs_gen.h"
#include "sim/machines.h"
#include "sim/smg_gen.h"
#include "tools/irs_parser.h"
#include "tools/smg_parser.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/tempdir.h"

namespace perftrack::core::diag {
namespace {

using minidb::Value;
using minidb::sql::ResultSet;

// --- reference implementation ----------------------------------------------

struct OracleSide {
  std::uint64_t results = 0;
  /// (metric, canonical context) -> value; several samples of one metric in
  /// one context keep the first (lowest result id).
  std::map<std::pair<std::string, std::string>, double> values;
};

OracleSide oracleSide(minidb::sql::Engine& engine, const std::string& exec) {
  ResultSet found =
      engine.prepare("SELECT id FROM execution WHERE name = ?").execute({Value(exec)});
  if (found.rows.empty()) throw util::ModelError("no such execution: " + exec);
  const std::int64_t exec_id = found.rows[0][0].asInt();

  ResultSet results =
      engine
          .prepare(
              "SELECT pr.id, m.name, pr.value FROM performance_result pr, metric m "
              "WHERE pr.execution_id = ? AND m.id = pr.metric_id ORDER BY pr.id")
          .execute({Value(exec_id)});

  std::unordered_map<std::int64_t, std::vector<std::int64_t>> result_foci;
  for (const auto& row :
       engine
           .prepare(
               "SELECT prhf.result_id, prhf.focus_id "
               "FROM performance_result pr, performance_result_has_focus prhf "
               "WHERE pr.execution_id = ? AND prhf.result_id = pr.id")
           .execute({Value(exec_id)})
           .rows) {
    result_foci[row[0].asInt()].push_back(row[1].asInt());
  }

  std::unordered_map<std::int64_t, std::vector<std::int64_t>> focus_resources;
  std::set<std::int64_t> resource_ids;
  for (const auto& row : engine
                             .prepare(
                                 "SELECT fhr.focus_id, fhr.resource_id "
                                 "FROM focus f, focus_has_resource fhr "
                                 "WHERE f.execution_id = ? AND fhr.focus_id = f.id")
                             .execute({Value(exec_id)})
                             .rows) {
    focus_resources[row[0].asInt()].push_back(row[1].asInt());
    resource_ids.insert(row[1].asInt());
  }

  std::unordered_map<std::int64_t, std::string> canonical;
  for (const std::int64_t id : resource_ids) {
    ResultSet rs = engine.prepare("SELECT full_name FROM resource_item WHERE id = ?")
                       .execute({Value(id)});
    if (!rs.rows.empty()) {
      canonical.emplace(id, canonicalResourceName(exec, rs.rows[0][0].asText()));
    }
  }

  OracleSide side;
  side.results = results.rows.size();
  for (const auto& row : results.rows) {
    std::set<std::string> names;
    const auto foci = result_foci.find(row[0].asInt());
    if (foci != result_foci.end()) {
      for (const std::int64_t focus : foci->second) {
        const auto res = focus_resources.find(focus);
        if (res == focus_resources.end()) continue;
        for (const std::int64_t rid : res->second) {
          const auto name = canonical.find(rid);
          if (name != canonical.end()) names.insert(name->second);
        }
      }
    }
    side.values.try_emplace({row[1].asText(), util::join({names.begin(), names.end()}, "|")},
                            row[2].asReal());
  }
  return side;
}

Report oracleDiagnose(minidb::sql::Engine& engine, const Request& request) {
  Report report;
  report.request = request;
  const OracleSide a = oracleSide(engine, request.exec_a);
  const OracleSide b = oracleSide(engine, request.exec_b);
  report.stats.results_a = a.results;
  report.stats.results_b = b.results;

  std::vector<std::pair<const std::pair<std::string, std::string>*, std::pair<double, double>>>
      aligned;
  std::map<std::string, double> metric_total_delta;
  for (const auto& [key, value_a] : a.values) {
    const auto it = b.values.find(key);
    if (it == b.values.end()) {
      ++report.stats.only_a;
      continue;
    }
    aligned.push_back({&key, {value_a, it->second}});
    metric_total_delta[key.first] += std::abs(it->second - value_a);
    if (value_a == 0.0) ++report.stats.zero_baseline;
  }
  for (const auto& [key, value_b] : b.values) {
    if (!a.values.contains(key)) ++report.stats.only_b;
  }
  report.stats.aligned = aligned.size();

  for (const auto& [key, values] : aligned) {
    Row row;
    row.metric = key->first;
    row.context = key->second;
    row.value_a = values.first;
    row.value_b = values.second;
    row.has_ratio = row.value_a != 0.0;
    if (row.has_ratio) row.ratio = row.value_b / row.value_a;
    const double delta = std::abs(row.delta());
    const bool past_ratio = row.has_ratio
                                ? std::abs(row.ratio - 1.0) > request.ratio_threshold
                                : delta != 0.0;
    if (!past_ratio || delta < request.abs_threshold) continue;
    const double total = metric_total_delta[row.metric];
    row.contribution_pct = total > 0.0 ? delta / total * 100.0 : 0.0;
    report.rows.push_back(std::move(row));
  }
  report.stats.divergent = report.rows.size();
  std::sort(report.rows.begin(), report.rows.end(), [](const Row& x, const Row& y) {
    if (x.contribution_pct != y.contribution_pct) {
      return x.contribution_pct > y.contribution_pct;
    }
    const double dx = std::abs(x.delta());
    const double dy = std::abs(y.delta());
    if (dx != dy) return dx > dy;
    if (x.metric != y.metric) return x.metric < y.metric;
    return x.context < y.context;
  });
  if (request.top_k > 0 && report.rows.size() > request.top_k) {
    report.rows.resize(request.top_k);
  }
  return report;
}

// --- comparison ---------------------------------------------------------------

/// Same storage class and, for reals, the same bits.
bool sameValue(const Value& x, const Value& y) {
  if (x.isNull() || y.isNull()) return x.isNull() && y.isNull();
  if (x.isReal() != y.isReal() || x.isInt() != y.isInt()) return false;
  if (x.isReal()) {
    const double dx = x.asReal();
    const double dy = y.asReal();
    return std::memcmp(&dx, &dy, sizeof dx) == 0;
  }
  return x == y;
}

void expectSameReport(const Report& got, const Report& want, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.toText(), want.toText());
  EXPECT_EQ(got.stats.results_a, want.stats.results_a);
  EXPECT_EQ(got.stats.results_b, want.stats.results_b);
  EXPECT_EQ(got.stats.aligned, want.stats.aligned);
  EXPECT_EQ(got.stats.only_a, want.stats.only_a);
  EXPECT_EQ(got.stats.only_b, want.stats.only_b);
  EXPECT_EQ(got.stats.divergent, want.stats.divergent);
  EXPECT_EQ(got.stats.zero_baseline, want.stats.zero_baseline);
  const auto got_rows = got.toRows();
  const auto want_rows = want.toRows();
  ASSERT_EQ(got_rows.size(), want_rows.size());
  for (std::size_t r = 0; r < got_rows.size(); ++r) {
    ASSERT_EQ(got_rows[r].size(), want_rows[r].size());
    for (std::size_t c = 0; c < got_rows[r].size(); ++c) {
      EXPECT_TRUE(sameValue(got_rows[r][c], want_rows[r][c]))
          << "row " << r << " column " << Report::columns()[c] << ": "
          << got_rows[r][c].toDisplayString() << " vs "
          << want_rows[r][c].toDisplayString();
    }
  }
}

struct Thresholds {
  std::uint32_t top_k;
  double ratio;
  double abs;
};

const std::vector<Thresholds>& thresholdGrid() {
  static const std::vector<Thresholds> kGrid = {
      {0, 0.10, 0.0}, {10, 0.10, 0.0}, {3, 0.10, 0.0},
      {0, 0.0, 0.0},  {3, 0.25, 1.0},  {0, 0.01, 0.5},
  };
  return kGrid;
}

/// Diffs every ordered pair of `execs` (self-diffs included) over the
/// threshold grid, through the engine and through the oracle.
void expectMatchesOracle(dbal::Connection& conn, const std::vector<std::string>& execs) {
  minidb::sql::Engine engine(*conn.localDatabase());
  for (const std::string& a : execs) {
    for (const std::string& b : execs) {
      for (const Thresholds& t : thresholdGrid()) {
        Request request;
        request.exec_a = a;
        request.exec_b = b;
        request.top_k = t.top_k;
        request.ratio_threshold = t.ratio;
        request.abs_threshold = t.abs;
        expectSameReport(diagnose(engine, request), oracleDiagnose(engine, request),
                         a + " -> " + b + " top " + std::to_string(t.top_k) + " ratio " +
                             util::formatReal(t.ratio) + " abs " +
                             util::formatReal(t.abs));
      }
    }
  }
}

// --- simulated stores -----------------------------------------------------------

struct SimStore {
  std::unique_ptr<dbal::Connection> conn;
  std::unique_ptr<PTDataStore> store;
  std::vector<std::string> irs;
  std::vector<std::string> smg;
};

/// Two IRS runs on Frost and two SMG2000 runs with mpiP on UV, small np.
SimStore& simStore() {
  static SimStore s = [] {
    SimStore out;
    out.conn = dbal::Connection::open(":memory:");
    out.store = std::make_unique<PTDataStore>(*out.conn);
    out.store->initialize();
    util::TempDir dir("diag-oracle");
    const auto load = [&](const std::filesystem::path& path) {
      ptdf::loadFile(*out.store, path.string());
    };
    {
      const auto path = dir.file("machines.ptdf");
      std::ofstream file(path);
      ptdf::Writer writer(file);
      sim::emitMachinePtdf(writer, sim::frostConfig(), 2);
      sim::emitMachinePtdf(writer, sim::uvConfig(), 2);
      file.close();
      load(path);
    }
    for (int i = 0; i < 2; ++i) {
      sim::IrsRunSpec spec{sim::frostConfig(), 4, "MPI", static_cast<std::uint64_t>(11 + i), ""};
      const auto raw = dir.file("irs-" + std::to_string(i));
      const sim::GeneratedRun run = sim::generateIrsRun(spec, raw);
      const auto path = dir.file(run.exec_name + ".ptdf");
      std::ofstream file(path);
      ptdf::Writer writer(file);
      tools::convertIrsRun(raw, spec.machine, writer);
      file.close();
      load(path);
      out.irs.push_back(run.exec_name);
    }
    for (int i = 0; i < 2; ++i) {
      sim::SmgRunSpec spec;
      spec.machine = sim::uvConfig();
      spec.nprocs = 4;
      spec.with_mpip = true;
      spec.with_pmapi = true;
      spec.seed = static_cast<std::uint64_t>(21 + i);
      const auto raw = dir.file("smg-" + std::to_string(i));
      const sim::GeneratedRun run = sim::generateSmgRun(spec, raw);
      const auto path = dir.file(run.exec_name + ".ptdf");
      std::ofstream file(path);
      ptdf::Writer writer(file);
      tools::convertSmgRun(raw, spec.machine, writer);
      file.close();
      load(path);
      out.smg.push_back(run.exec_name);
    }
    return out;
  }();
  return s;
}

TEST(DiagOracleTest, IrsPairMatchesReference) {
  SimStore& s = simStore();
  expectMatchesOracle(*s.conn, s.irs);
}

TEST(DiagOracleTest, SmgMpipPairWithMultiFocusResultsMatchesReference) {
  SimStore& s = simStore();
  // The pair must exercise multi-focus results, or the focus-set cache goes
  // untested.
  const ResultSet multi = s.conn->exec(
      "SELECT COUNT(*) FROM performance_result_has_focus prhf, performance_result pr, "
      "execution e WHERE e.name = '" + s.smg[0] +
      "' AND pr.execution_id = e.id AND prhf.result_id = pr.id");
  const ResultSet results = s.conn->exec(
      "SELECT COUNT(*) FROM performance_result pr, execution e WHERE e.name = '" +
      s.smg[0] + "' AND pr.execution_id = e.id");
  ASSERT_GT(multi.rows[0][0].asInt(), results.rows[0][0].asInt());
  expectMatchesOracle(*s.conn, s.smg);
}

TEST(DiagOracleTest, CrossApplicationPairsMatchReference) {
  SimStore& s = simStore();
  expectMatchesOracle(*s.conn, {s.irs[0], s.smg[1]});
}

// --- edge cases -------------------------------------------------------------------

class DiagOracleEdgeTest : public ::testing::Test {
 protected:
  DiagOracleEdgeTest() : conn_(dbal::Connection::open(":memory:")), store_(*conn_) {
    store_.initialize();
    for (const char* exec : {"runA", "runB"}) {
      store_.addExecution(exec, "app");
      const std::string root = std::string("/") + exec;
      store_.addResource(root + "/p0", "execution/process");
      store_.addResource(root + "/p1", "execution/process");
    }
    store_.addResource("/mach", "grid/machine");  // shared by both executions
    store_.addResource("/mach/n0", "grid/machine/node");
  }

  std::int64_t add(const std::string& exec, const std::vector<ResourceSetSpec>& sets,
                   const std::string& metric, double value) {
    return store_.addPerformanceResult(exec, sets, "tool", metric, value);
  }

  std::int64_t addAt(const std::string& exec, const std::string& resource,
                     const std::string& metric, double value) {
    return add(exec, {{{resource}, FocusType::Primary}}, metric, value);
  }

  std::int64_t scalar(const std::string& sql) {
    return conn_->exec(sql).rows.at(0).at(0).asInt();
  }

  std::unique_ptr<dbal::Connection> conn_;
  PTDataStore store_;
};

TEST_F(DiagOracleEdgeTest, EdgeCasesMatchReference) {
  for (const char* exec : {"runA", "runB"}) {
    const std::string root = std::string("/") + exec;
    const double scale = exec == std::string("runA") ? 1.0 : 1.7;
    // Duplicate (metric, context) samples with different values: the lowest
    // result id wins on both sides.
    addAt(exec, root + "/p0", "wall_ms", 10.0 * scale);
    addAt(exec, root + "/p0", "wall_ms", 99.0 * scale);
    addAt(exec, root + "/p0", "wall_ms", 5.0);
    // The shared resource, alone and in a multi-focus result.
    addAt(exec, "/mach", "wall_ms", 40.0 * scale);
    add(exec,
        {{{root + "/p1"}, FocusType::Primary}, {{"/mach/n0"}, FocusType::Parent}},
        "wall_ms", 7.0 * scale);
    add(exec,
        {{{root + "/p0", root + "/p1"}, FocusType::Primary},
         {{"/mach"}, FocusType::Parent}},
        "cpu_ms", 3.0 * scale);
    // A zero baseline (A is 0, B is not) and a both-zero pair.
    addAt(exec, root + "/p1", "page_faults", exec == std::string("runA") ? 0.0 : 12.0);
    addAt(exec, root + "/p1", "swaps", 0.0);
    // Equal contributions: ranking falls through to |delta| and names.
    addAt(exec, root + "/p0", "bytes", exec == std::string("runA") ? 100.0 : 110.0);
    addAt(exec, root + "/p1", "bytes", exec == std::string("runA") ? 200.0 : 210.0);
  }
  // A metric on one side only.
  addAt("runA", "/runA/p0", "cache_misses", 500.0);
  addAt("runB", "/runB/p1", "tlb_misses", 80.0);

  // A result with no focus link on each side (empty context; they align).
  for (const char* exec : {"runA", "runB"}) {
    const std::int64_t id = addAt(exec, std::string("/") + exec + "/p0", "orphan_ms",
                                  exec == std::string("runA") ? 4.0 : 9.0);
    conn_->exec("DELETE FROM performance_result_has_focus WHERE result_id = " +
                std::to_string(id));
  }
  // A result of A linked only to one of B's foci: also the empty context,
  // and a later duplicate of the no-link sample above (lowest id wins).
  {
    const std::int64_t a_result = addAt("runA", "/runA/p1", "orphan_ms", 77.0);
    const std::int64_t b_focus = scalar(
        "SELECT prhf.focus_id FROM performance_result_has_focus prhf, "
        "performance_result pr, execution e WHERE e.name = 'runB' "
        "AND pr.execution_id = e.id AND prhf.result_id = pr.id ORDER BY prhf.focus_id");
    conn_->exec("DELETE FROM performance_result_has_focus WHERE result_id = " +
                std::to_string(a_result));
    conn_->exec("INSERT INTO performance_result_has_focus (result_id, focus_id) VALUES (" +
                std::to_string(a_result) + ", " + std::to_string(b_focus) + ")");
    // And one of A's results keeps its own focus plus one of B's: only its
    // own focus counts.
    const std::int64_t mixed = addAt("runA", "/runA/p0", "mixed_ms", 20.0);
    addAt("runB", "/runB/p0", "mixed_ms", 30.0);
    conn_->exec("INSERT INTO performance_result_has_focus (result_id, focus_id) VALUES (" +
                std::to_string(mixed) + ", " + std::to_string(b_focus) + ")");
    // A link row with no result joins no result on either path.
    conn_->exec("INSERT INTO performance_result_has_focus (result_id, focus_id) VALUES (NULL, " +
                std::to_string(b_focus) + ")");
  }
  // Results that join no metric row are not results of the diagnosis.
  {
    const std::int64_t exec_a = scalar("SELECT id FROM execution WHERE name = 'runA'");
    conn_->exec(
        "INSERT INTO performance_result (execution_id, metric_id, value) VALUES (" +
        std::to_string(exec_a) + ", 987654, 1.5)");
    conn_->exec("INSERT INTO performance_result (execution_id, metric_id, value) VALUES (" +
                std::to_string(exec_a) + ", NULL, 2.5)");
  }

  expectMatchesOracle(*conn_, {"runA", "runB"});

  // Spot-check the rules the differential relies on.
  Request request;
  request.exec_a = "runA";
  request.exec_b = "runB";
  request.ratio_threshold = 0.0;
  const Report report = conn_->diff(request);
  EXPECT_EQ(report.stats.results_a,
            static_cast<std::uint64_t>(
                scalar("SELECT COUNT(*) FROM performance_result pr, execution e "
                       "WHERE e.name = 'runA' AND pr.execution_id = e.id") - 2));
  bool saw_first_sample = false;
  bool saw_orphan = false;
  for (const Row& row : report.rows) {
    if (row.metric == "wall_ms" && row.context == "/$EXEC/p0") {
      EXPECT_DOUBLE_EQ(row.value_a, 10.0);  // the lowest id, not 99 or 5
      saw_first_sample = true;
    }
    if (row.metric == "orphan_ms") {
      EXPECT_EQ(row.context, "");
      EXPECT_DOUBLE_EQ(row.value_a, 4.0);
      saw_orphan = true;
    }
  }
  EXPECT_TRUE(saw_first_sample);
  EXPECT_TRUE(saw_orphan);
}

TEST_F(DiagOracleEdgeTest, UnknownExecutionThrowsLikeReference) {
  minidb::sql::Engine engine(*conn_->localDatabase());
  Request request;
  request.exec_a = "runA";
  request.exec_b = "missing";
  EXPECT_THROW(diagnose(engine, request), util::ModelError);
  EXPECT_THROW(oracleDiagnose(engine, request), util::ModelError);
}

}  // namespace
}  // namespace perftrack::core::diag
