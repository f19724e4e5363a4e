// Observability overhead ablation: what does per-query instrumentation cost?
//
// DESIGN.md §5.5 budgets the tracing hot path (stage-timer clock reads plus
// one ring-buffer record per query) at under 2% of a point-SELECT. This
// bench runs the cheapest query the engine serves — a prepared primary-key
// probe that hits the plan cache and touches one index leaf — and A/Bs it
// with obs::setEnabled(false) vs (true). Rounds are interleaved so clock
// drift and cache warmth hit both arms equally. Counters are not part of
// the ablation: they are unconditional relaxed atomic adds (cheaper than
// the branch that would skip them) and are priced into both arms.
//
// PT_OBS_JSON=<path>: also emit the result as JSON for
// scripts/bench_smoke.sh and before/after comparisons.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "dbal/connection.h"
#include "obs/metrics.h"
#include "util/timer.h"

using namespace perftrack;

namespace {

constexpr std::int64_t kTableRows = 10000;
constexpr int kWarmupQueries = 5000;
constexpr int kQueriesPerRound = 6000;
constexpr int kRounds = 24;  // per arm; interleaved off/on

const char* kPoint = "SELECT v FROM kv WHERE id = ?";

/// One timed burst of point SELECTs; returns seconds for the whole burst.
double burst(dbal::Connection& conn, int queries) {
  util::Timer timer;
  std::int64_t checksum = 0;
  for (int i = 0; i < queries; ++i) {
    const std::int64_t id = 1 + (static_cast<std::int64_t>(i) * 7919) % kTableRows;
    const auto rs = conn.execPrepared(kPoint, {minidb::Value(id)});
    if (!rs.rows.empty()) checksum += rs.rows[0][0].asInt();
  }
  const double s = timer.elapsedSeconds();
  if (checksum < 0) std::printf("impossible\n");  // keep the loop observable
  return s;
}

}  // namespace

int main() {
  // In memory: the query path is the subject, and pages are resident either way.
  auto conn = dbal::Connection::open(":memory:");
  conn->exec("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER)");
  conn->begin();
  for (std::int64_t i = 0; i < kTableRows; ++i) {
    conn->execPrepared("INSERT INTO kv (id, v) VALUES (?, ?)",
                       {minidb::Value(i + 1), minidb::Value(i * 3)});
  }
  conn->commit();

  // Warm the plan cache, the pager, and the branch predictors before either
  // arm is timed.
  obs::setEnabled(true);
  burst(*conn, kWarmupQueries);

  // Each round times the two arms back to back, so a round's on/off ratio
  // sees the same machine state; the median ratio across rounds then drops
  // the rounds a scheduler or frequency wobble disturbed. (Min-of-rounds
  // per arm compares timings taken seconds apart and still drifts.)
  std::vector<double> off_round_s(kRounds);
  std::vector<double> on_round_s(kRounds);
  for (int round = 0; round < kRounds; ++round) {
    obs::setEnabled(false);
    off_round_s[static_cast<std::size_t>(round)] = burst(*conn, kQueriesPerRound);
    obs::setEnabled(true);
    on_round_s[static_cast<std::size_t>(round)] = burst(*conn, kQueriesPerRound);
  }
  obs::setEnabled(true);  // leave the process in the default state

  std::vector<double> ratios(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    ratios[static_cast<std::size_t>(i)] =
        on_round_s[static_cast<std::size_t>(i)] / off_round_s[static_cast<std::size_t>(i)];
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  const double total = static_cast<double>(kRounds) * kQueriesPerRound;
  const double off_ns = 1e9 * median(off_round_s) / kQueriesPerRound;
  const double on_ns = 1e9 * median(on_round_s) / kQueriesPerRound;
  const double overhead_pct = 100.0 * (median(ratios) - 1.0);

  std::printf("%-16s %12s %16s\n", "arm", "queries", "median ns/query");
  std::printf("%-16s %12.0f %16.1f\n", "tracing off", total, off_ns);
  std::printf("%-16s %12.0f %16.1f\n", "tracing on", total, on_ns);
  std::printf("overhead: %.2f%% (budget < 2%%) -> %s\n", overhead_pct,
              overhead_pct < 2.0 ? "within budget" : "OVER BUDGET");

  if (const char* json = std::getenv("PT_OBS_JSON")) {
    std::ofstream out(json);
    out << "[\n  {\"workload\": \"point_select\", \"table_rows\": " << kTableRows
        << ", \"queries_per_arm\": " << static_cast<std::int64_t>(total)
        << ", \"off_ns_per_query\": " << off_ns
        << ", \"on_ns_per_query\": " << on_ns
        << ", \"overhead_pct\": " << overhead_pct
        << ", \"budget_pct\": 2.0}\n]\n";
    std::printf("wrote %s\n", json);
  }
  obs::writeSnapshotIfRequested();
  return 0;
}
