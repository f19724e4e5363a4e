#include "metrics.h"

#include <cmath>
#include <cstdio>

#include "minidb/pager.h"
#include "obs/metrics.h"
#include "server/session.h"

namespace perfbench {

using namespace perftrack;

namespace {

constexpr const char* kCounters[] = {
    "pt_stmt_cache_hits_total",       "pt_stmt_cache_misses_total",
    "pt_plan_revalidations_total",
    "pt_invidx_probes_total",         "pt_invidx_fallbacks_total",
    "pt_invidx_builds_total",         "pt_invidx_invalidations_total",
    "pt_pager_commits_total",         "pt_wal_fsyncs_total",
    "pt_wal_frames_total",            "pt_wal_checkpoints_total",
};

constexpr const char* kHistograms[] = {
    "pt_invidx_build_ms",
    "pt_pager_commit_ms",
    "pt_wal_group_commit_batch",
    "pt_diag_diff_ms",
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::string formatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

RegistrySnapshot RegistrySnapshot::take() {
  obs::Registry& reg = obs::Registry::global();
  RegistrySnapshot s;
  for (const char* name : kCounters) {
    s.values[name] = static_cast<double>(reg.counter(name).value());
  }
  if (const server::ServerCounters* server = serverCounters()) {
    s.values["pt_server_busy_rejections_total"] =
        static_cast<double>(server->busy_rejections.load(std::memory_order_relaxed));
  }
  for (const char* name : kHistograms) {
    const obs::Histogram& h = reg.histogram(name);
    s.values[std::string(name) + ":sum"] = h.sumMs();
    s.values[std::string(name) + ":count"] = static_cast<double>(h.count());
  }
  return s;
}

RegistrySnapshot RegistrySnapshot::operator-(const RegistrySnapshot& o) const {
  RegistrySnapshot d;
  for (const auto& [name, v] : values) d.values[name] = v - o.get(name);
  return d;
}

double RegistrySnapshot::get(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

void Metrics::add(const std::string& name, double value, const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Metrics::print() const {
  for (const Entry& e : entries_) {
    std::printf("%-36s %14.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

std::string Metrics::json(bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + formatNumber(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}";
  return out;
}

Metrics layerMetrics(const LayerInputs& in) {
  auto op = [&](OpKind k) -> const OpTotals& {
    return in.totals[static_cast<std::size_t>(k)];
  };
  const OpTotals& count = op(OpKind::Count);
  const OpTotals& table = op(OpKind::Table);
  const OpTotals& diff = op(OpKind::Diff);
  const OpTotals& load = op(OpKind::Load);
  auto per = [](double v, std::uint64_t n) { return ratio(v, static_cast<double>(n)); };
  double all_ops = 0, all_sql = 0, all_pages = 0;
  for (const OpTotals& t : in.totals) {
    all_ops += static_cast<double>(t.ops);
    all_sql += static_cast<double>(t.counters.sql_queries);
    all_pages += static_cast<double>(t.counters.page_reads);
  }
  const RegistrySnapshot& g = in.traced;
  auto both = [&](const std::string& name) { return g.get(name) + in.setup.get(name); };

  Metrics m;
  // core.query_session: step time minus time inside dbal calls.
  m.add("query_session.count_self_ms", per(count.ms - count.dbal_ms, count.ops), "ms");
  m.add("query_session.table_self_ms", per(table.ms - table.dbal_ms, table.ops), "ms");
  // dbal: statements, cursor pulls and time spent inside the layer.
  m.add("dbal.statements_per_count", per(count.statements, count.ops), "stmts/op");
  m.add("dbal.statements_per_table", per(table.statements, table.ops), "stmts/op");
  m.add("dbal.statements_per_result", per(table.statements, table.results),
        "stmts/result");
  m.add("dbal.fetch_calls_per_table", per(table.fetch_calls, table.ops), "calls/op");
  m.add("dbal.busy_ms_per_count", per(count.dbal_ms, count.ops), "ms");
  m.add("dbal.busy_ms_per_table", per(table.dbal_ms, table.ops), "ms");
  m.add("dbal.stmt_cache_hit_ratio",
        ratio(g.get("pt_stmt_cache_hits_total"),
              g.get("pt_stmt_cache_hits_total") + g.get("pt_stmt_cache_misses_total")),
        "ratio");
  // server: frames per step, wire time beyond local execution, refusals.
  m.add("server.frames_per_count", per(count.counters.frames, count.ops), "frames/op");
  m.add("server.frames_per_table", per(table.counters.frames, table.ops), "frames/op");
  m.add("wire.residual_ms_per_table", in.wire_residual_ms_per_table, "ms");
  m.add("server.busy_rejections", g.get("pt_server_busy_rejections_total"), "count");
  // minidb.sql
  m.add("sql.statements_per_op", ratio(all_sql, all_ops), "stmts/op");
  m.add("sql.rows_streamed_per_result",
        per(count.counters.rows_streamed + table.counters.rows_streamed,
            count.results + table.results),
        "rows/result");
  m.add("sql.plan_revalidations", g.get("pt_plan_revalidations_total"), "count");
  // minidb.invidx
  m.add("invidx.fallback_ratio",
        ratio(g.get("pt_invidx_fallbacks_total"),
              g.get("pt_invidx_probes_total") + g.get("pt_invidx_fallbacks_total")),
        "ratio");
  m.add("invidx.probes_per_count", per(count.counters.invidx_probes, count.ops),
        "probes/op");
  m.add("invidx.builds", both("pt_invidx_builds_total"), "count");
  m.add("invidx.build_ms", both("pt_invidx_build_ms:sum"), "ms");
  m.add("invidx.invalidations", both("pt_invidx_invalidations_total"), "count");
  // minidb.pager / WAL
  m.add("pager.page_reads_per_op", ratio(all_pages, all_ops), "pages/op");
  m.add("pager.commit_ms",
        ratio(g.get("pt_pager_commit_ms:sum"), g.get("pt_pager_commit_ms:count")), "ms");
  m.add("wal.fsyncs_per_commit",
        ratio(g.get("pt_wal_fsyncs_total"), g.get("pt_pager_commits_total")),
        "fsyncs/commit");
  m.add("wal.bytes_per_result",
        per(g.get("pt_wal_frames_total") * static_cast<double>(minidb::kWalFrameSize),
            load.results),
        "B/result");
  m.add("wal.checkpoints", g.get("pt_wal_checkpoints_total"), "count");
  m.add("wal.group_commit_batch_mean",
        ratio(g.get("pt_wal_group_commit_batch:sum"),
              g.get("pt_wal_group_commit_batch:count")),
        "commits");
  // ptdf: loadFile time outside dbal, time inside dbal (commit included).
  m.add("ptdf.self_ms_per_file", per(load.ms - load.dbal_ms, load.ops), "ms");
  m.add("ptdf.dbal_ms_per_file", per(load.dbal_ms, load.ops), "ms");
  m.add("dbal.statements_per_result_ingested", per(load.statements, load.results),
        "stmts/result");
  // core.diag
  m.add("diag.statements", per(diff.counters.sql_queries, diff.ops), "stmts/op");
  m.add("diag.ms", ratio(g.get("pt_diag_diff_ms:sum"), g.get("pt_diag_diff_ms:count")),
        "ms");
  // Tracing cost: untraced against traced throughput of the same run.
  m.add("trace.overhead_pct",
        100.0 * (ratio(in.ops_per_s_plain, in.ops_per_s_traced) - 1.0), "%");
  return m;
}

}  // namespace perfbench
