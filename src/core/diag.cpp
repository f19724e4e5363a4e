#include "core/diag.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/in_list.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace perftrack::core::diag {

namespace {

using minidb::Value;
using minidb::sql::PreparedStatement;
using minidb::sql::ResultSet;

/// Instrumentation sites, resolved once (registry lookups are cold-path).
struct DiagMetrics {
  obs::Counter* diffs;
  obs::Counter* aligned;
  obs::Counter* divergences;
  obs::Histogram* diff_ms;
};

DiagMetrics& metrics() {
  static DiagMetrics m{
      &obs::Registry::global().counter("pt_diag_diffs_total"),
      &obs::Registry::global().counter("pt_diag_pairs_aligned_total"),
      &obs::Registry::global().counter("pt_diag_divergences_total"),
      &obs::Registry::global().histogram("pt_diag_diff_ms"),
  };
  return m;
}

/// Binds `params`, opens a cursor on `stmt` and calls `fn(cols, i)` for
/// every live row, reading (or moving out of) the batch columns in place.
template <typename Fn>
void forEachRow(PreparedStatement& stmt, std::vector<Value> params, Fn&& fn) {
  stmt.bindAll(std::move(params));
  minidb::sql::Cursor cursor = stmt.openCursor();
  minidb::sql::RowBatch batch;
  while (cursor.fetchBatch(batch)) {
    for (const std::uint32_t i : batch.sel) fn(batch.cols, i);
  }
}

/// The per-execution statements, prepared once and run for both sides. Each
/// starts from an indexed equality on execution_id (pr_by_exec,
/// focus_by_exec) and joins through indexed equality conjuncts
/// (prhf_by_focus, fhr_by_focus), so cost scales with the two executions'
/// data, not the store, and the link join opens one index probe per focus,
/// not one per result.
struct Statements {
  explicit Statements(minidb::sql::Engine& engine)
      : execution(engine.prepare("SELECT id FROM execution WHERE name = ?")),
        results(engine.prepare(
            "SELECT id, metric_id, value FROM performance_result "
            "WHERE execution_id = ?")),
        links(engine.prepare(
            "SELECT prhf.result_id, prhf.focus_id "
            "FROM focus f, performance_result_has_focus prhf "
            "WHERE f.execution_id = ? AND prhf.focus_id = f.id")),
        focus_resources(engine.prepare(
            "SELECT fhr.focus_id, fhr.resource_id "
            "FROM focus f, focus_has_resource fhr "
            "WHERE f.execution_id = ? AND fhr.focus_id = f.id")) {}

  PreparedStatement execution;
  PreparedStatement results;
  PreparedStatement links;
  PreparedStatement focus_resources;
};

/// Runs `prefix IN (?,...,?)` once per chunk of `ids` (sorted, deduped),
/// each chunk bound as a prepared statement padded to its rung
/// (core/in_list.h).
template <typename Fn>
void forEachRowIn(minidb::sql::Engine& engine, std::string_view prefix,
                  std::span<const std::int64_t> ids, Fn&& fn) {
  forEachChunk(ids, [&](std::span<const std::int64_t> chunk) {
    const std::size_t rung = inListRung(chunk.size());
    PreparedStatement stmt = engine.prepare(inListSql(prefix, rung));
    std::vector<Value> params;
    appendPaddedIds(params, chunk, rung);
    forEachRow(stmt, std::move(params), fn);
  });
}

/// Marks a result whose metric_id is NULL: it joins no metric row.
constexpr std::int64_t kNoMetric = std::numeric_limits<std::int64_t>::min();

/// One execution's rows, as its per-execution scans return them.
struct Side {
  struct Result {
    std::int64_t id;
    std::int64_t metric_id;  // kNoMetric when NULL
    Value value;
  };
  std::string exec;
  std::vector<Result> results;                               // ascending id
  std::vector<std::pair<std::int64_t, std::int64_t>> links;  // (result, focus), sorted
  std::unordered_map<std::int64_t, std::vector<std::int64_t>> focus_resources;
};

Side scanSide(Statements& s, const std::string& exec) {
  const ResultSet found = s.execution.execute({Value(exec)});
  if (found.rows.empty()) throw util::ModelError("no such execution: " + exec);
  const Value exec_id = found.rows[0][0];

  Side side;
  side.exec = exec;
  forEachRow(s.results, {exec_id}, [&](auto& cols, std::uint32_t i) {
    const Value& metric = cols[1][i];
    side.results.push_back({cols[0][i].asInt(),
                            metric.isInt() ? metric.asInt() : kNoMetric,
                            std::move(cols[2][i])});
  });
  const auto by_id = [](const Side::Result& x, const Side::Result& y) {
    return x.id < y.id;
  };
  if (!std::is_sorted(side.results.begin(), side.results.end(), by_id)) {
    std::sort(side.results.begin(), side.results.end(), by_id);
  }
  forEachRow(s.links, {exec_id}, [&](auto& cols, std::uint32_t i) {
    if (cols[0][i].isInt()) side.links.emplace_back(cols[0][i].asInt(), cols[1][i].asInt());
  });
  std::sort(side.links.begin(), side.links.end());
  forEachRow(s.focus_resources, {exec_id}, [&](auto& cols, std::uint32_t i) {
    side.focus_resources[cols[0][i].asInt()].push_back(cols[1][i].asInt());
  });
  return side;
}

/// Interns canonical context strings to dense ids shared by both sides, so
/// alignment compares integers and each distinct context is built once.
class ContextTable {
 public:
  std::uint32_t intern(std::string text) {
    const auto [it, fresh] = ids_.try_emplace(
        std::move(text), static_cast<std::uint32_t>(texts_.size()));
    if (fresh) texts_.push_back(&it->first);
    return it->second;
  }
  const std::string& text(std::uint32_t id) const { return *texts_[id]; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(texts_.size()); }

 private:
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<const std::string*> texts_;  // by id; map nodes never move
};

struct FocusSetHash {
  std::size_t operator()(const std::vector<std::int64_t>& ids) const {
    std::size_t h = ids.size();
    for (const std::int64_t id : ids) h = h * 1000003u ^ std::hash<std::int64_t>{}(id);
    return h;
  }
};

/// The context id of every result of `side`, in result order. A context is
/// the sorted, deduped canonical names of the resources in the result's
/// foci, joined with '|'. Only this execution's foci carry resources (the
/// link scan starts from them), so a result with no link, or only links to
/// another execution's foci, gets the empty context. Each resource is
/// canonicalized once and each distinct focus set is built once.
std::vector<std::uint32_t> assignContexts(
    const Side& side, const std::unordered_map<std::int64_t, std::string>& names,
    ContextTable& contexts) {
  std::unordered_map<std::int64_t, std::string> canonical;
  std::unordered_map<std::int64_t, std::vector<const std::string*>> focus_names;
  for (const auto& [focus, resources] : side.focus_resources) {
    auto& members = focus_names[focus];
    for (const std::int64_t rid : resources) {
      auto it = canonical.find(rid);
      if (it == canonical.end()) {
        const auto name = names.find(rid);
        if (name == names.end()) continue;
        it = canonical.emplace(rid, canonicalResourceName(side.exec, name->second)).first;
      }
      members.push_back(&it->second);
    }
  }

  std::unordered_map<std::vector<std::int64_t>, std::uint32_t, FocusSetHash> by_focus_set;
  std::vector<std::int64_t> focus_set;
  std::vector<const std::string*> members;
  std::vector<std::uint32_t> out;
  out.reserve(side.results.size());
  auto link = side.links.begin();
  for (const Side::Result& result : side.results) {
    while (link != side.links.end() && link->first < result.id) ++link;
    focus_set.clear();
    for (; link != side.links.end() && link->first == result.id; ++link) {
      if (focus_set.empty() || focus_set.back() != link->second) {
        focus_set.push_back(link->second);
      }
    }
    auto it = by_focus_set.find(focus_set);
    if (it == by_focus_set.end()) {
      members.clear();
      for (const std::int64_t focus : focus_set) {
        const auto f = focus_names.find(focus);
        if (f != focus_names.end()) {
          members.insert(members.end(), f->second.begin(), f->second.end());
        }
      }
      std::sort(members.begin(), members.end(),
                [](const std::string* x, const std::string* y) { return *x < *y; });
      members.erase(std::unique(members.begin(), members.end(),
                                [](const std::string* x, const std::string* y) {
                                  return *x == *y;
                                }),
                    members.end());
      std::string text;
      for (std::size_t m = 0; m < members.size(); ++m) {
        if (m) text += '|';
        text += *members[m];
      }
      it = by_focus_set.emplace(focus_set, contexts.intern(std::move(text))).first;
    }
    out.push_back(it->second);
  }
  return out;
}

/// (metric rank << 32 | context rank): ranks follow metric name and context
/// text, so ascending keys walk pairs in (metric, context) order.
using Key = std::uint64_t;

/// One side's values by key, ascending, one value per key: several samples
/// in one (metric, context) keep the lowest result id. Results whose metric
/// has no metric row are dropped, as an inner join would; `results` counts
/// the rest.
std::vector<std::pair<Key, double>> keyedValues(
    const Side& side, const std::vector<std::uint32_t>& result_contexts,
    const std::unordered_map<std::int64_t, std::uint32_t>& metric_rank,
    const std::vector<std::uint32_t>& context_rank, std::uint64_t& results) {
  std::vector<std::pair<Key, double>> out;
  out.reserve(side.results.size());
  for (std::size_t r = 0; r < side.results.size(); ++r) {
    const auto m = metric_rank.find(side.results[r].metric_id);
    if (m == metric_rank.end()) continue;
    out.emplace_back(Key{m->second} << 32 | context_rank[result_contexts[r]],
                     side.results[r].value.asReal());
  }
  results = out.size();
  // Results are in ascending id order and the sort is stable, so the first
  // of each run of equal keys is the lowest result id.
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const auto& x, const auto& y) { return x.first == y.first; }),
            out.end());
  return out;
}

}  // namespace

std::string canonicalResourceName(const std::string& execution,
                                  std::string full_name) {
  if (execution.empty() || full_name.size() < 2) return full_name;
  // Canonicalize the leading segment when it embeds the execution name
  // (e.g. /irs-frost-np8-s1/p0, /build-irs-frost-np8-s1, /env-...).
  const auto slash = full_name.find('/', 1);
  const std::string head = slash == std::string::npos
                               ? full_name.substr(1)
                               : full_name.substr(1, slash - 1);
  const auto pos = head.find(execution);
  if (pos == std::string::npos) return full_name;
  const std::string tail =
      slash == std::string::npos ? "" : full_name.substr(slash);
  // Keep any collector prefix ("build-", "env-") so different hierarchies
  // stay distinct after canonicalization.
  std::string prefix = head;
  prefix.replace(pos, execution.size(), "$EXEC");
  return "/" + prefix + tail;
}

const std::vector<std::string>& Report::columns() {
  static const std::vector<std::string> kColumns = {
      "rank",  "metric", "context", "value_a",
      "value_b", "delta",  "ratio",   "contribution_pct"};
  return kColumns;
}

std::vector<minidb::Row> Report::toRows() const {
  std::vector<minidb::Row> out;
  out.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    minidb::Row row;
    row.reserve(8);
    row.emplace_back(static_cast<std::int64_t>(i + 1));
    row.emplace_back(r.metric);
    row.emplace_back(r.context);
    row.emplace_back(r.value_a);
    row.emplace_back(r.value_b);
    row.emplace_back(r.delta());
    row.emplace_back(r.has_ratio ? Value(r.ratio) : Value::null());
    row.emplace_back(r.contribution_pct);
    out.push_back(std::move(row));
  }
  return out;
}

std::string Report::toText() const {
  std::ostringstream out;
  out << "diff: " << request.exec_a << " -> " << request.exec_b << "\n"
      << "  results (A / B):   " << stats.results_a << " / " << stats.results_b
      << "\n"
      << "  aligned pairs:     " << stats.aligned << "\n"
      << "  only in A:         " << stats.only_a << "\n"
      << "  only in B:         " << stats.only_b << "\n"
      << "  zero baselines:    " << stats.zero_baseline << "\n"
      << "  divergent:         " << stats.divergent << " (|ratio-1| > "
      << util::formatReal(request.ratio_threshold) << ", |delta| >= "
      << util::formatReal(request.abs_threshold) << ")\n";
  if (rows.empty()) {
    out << "  ranked explanations: (none)\n";
    return out.str();
  }
  out << "  ranked explanations";
  if (rows.size() < stats.divergent) {
    out << " (top " << rows.size() << " of " << stats.divergent << ")";
  }
  out << ":\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    " << (i + 1) << ". " << r.metric << " [" << r.context << "]  "
        << util::formatReal(r.value_a) << " -> " << util::formatReal(r.value_b);
    if (r.has_ratio) {
      out << "  (x" << util::formatReal(r.ratio);
    } else {
      out << "  (zero baseline";
    }
    out << ", " << util::formatReal(r.contribution_pct) << "% of "
        << r.metric << " change)\n";
  }
  return out.str();
}

Report diagnose(minidb::sql::Engine& engine, const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  Report report;
  report.request = request;

  // Scans: per side, the execution's results, its focus->result links, and
  // its foci's resources; then one name lookup for the resources and one for
  // the metrics both sides use.
  Statements stmts(engine);
  const Side a = scanSide(stmts, request.exec_a);
  const Side b = scanSide(stmts, request.exec_b);

  std::vector<std::int64_t> ids;
  for (const Side* side : {&a, &b}) {
    for (const auto& [focus, resources] : side->focus_resources) {
      ids.insert(ids.end(), resources.begin(), resources.end());
    }
  }
  sortUnique(ids);
  std::unordered_map<std::int64_t, std::string> resource_names;
  resource_names.reserve(ids.size());
  forEachRowIn(engine, "SELECT id, full_name FROM resource_item WHERE id", ids,
               [&](auto& cols, std::uint32_t i) {
                 resource_names.emplace(cols[0][i].asInt(), cols[1][i].asText());
               });

  ids.clear();
  for (const Side* side : {&a, &b}) {
    for (const Side::Result& result : side->results) {
      if (result.metric_id != kNoMetric) ids.push_back(result.metric_id);
    }
  }
  sortUnique(ids);
  std::vector<std::pair<std::string, std::int64_t>> metrics_by_name;
  forEachRowIn(engine, "SELECT id, name FROM metric WHERE id", ids,
               [&](auto& cols, std::uint32_t i) {
                 metrics_by_name.emplace_back(cols[1][i].asText(), cols[0][i].asInt());
               });

  // Integer keys. Metric ranks follow names (equal names share a rank, so
  // a key means exactly one (metric name, context) pair); context ranks
  // follow the interned text.
  std::sort(metrics_by_name.begin(), metrics_by_name.end());
  std::unordered_map<std::int64_t, std::uint32_t> metric_rank;
  std::vector<const std::string*> metric_names;  // by rank
  for (const auto& [name, id] : metrics_by_name) {
    if (metric_names.empty() || *metric_names.back() != name) metric_names.push_back(&name);
    metric_rank.emplace(id, static_cast<std::uint32_t>(metric_names.size() - 1));
  }

  ContextTable contexts;
  const std::vector<std::uint32_t> contexts_a = assignContexts(a, resource_names, contexts);
  const std::vector<std::uint32_t> contexts_b = assignContexts(b, resource_names, contexts);
  std::vector<std::uint32_t> context_by_rank(contexts.size());
  std::iota(context_by_rank.begin(), context_by_rank.end(), 0u);
  std::sort(context_by_rank.begin(), context_by_rank.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              return contexts.text(x) < contexts.text(y);
            });
  std::vector<std::uint32_t> context_rank(contexts.size());
  for (std::uint32_t rank = 0; rank < contexts.size(); ++rank) {
    context_rank[context_by_rank[rank]] = rank;
  }

  const auto values_a = keyedValues(a, contexts_a, metric_rank, context_rank,
                                    report.stats.results_a);
  const auto values_b = keyedValues(b, contexts_b, metric_rank, context_rank,
                                    report.stats.results_b);

  // Alignment: merge the two key-ordered sides. Pairs arrive in (metric
  // name, context) order, and each metric's total |delta| must be summed in
  // that order: a floating-point sum depends on it, and contribution_pct
  // divides by the sum.
  struct Aligned {
    Key key;
    double value_a;
    double value_b;
  };
  std::vector<Aligned> aligned;
  std::vector<double> metric_total_delta(metric_names.size(), 0.0);  // by rank
  auto ia = values_a.begin();
  auto ib = values_b.begin();
  while (ia != values_a.end() || ib != values_b.end()) {
    if (ib == values_b.end() || (ia != values_a.end() && ia->first < ib->first)) {
      ++report.stats.only_a;
      ++ia;
    } else if (ia == values_a.end() || ib->first < ia->first) {
      ++report.stats.only_b;
      ++ib;
    } else {
      aligned.push_back({ia->first, ia->second, ib->second});
      metric_total_delta[ia->first >> 32] += std::abs(ib->second - ia->second);
      if (ia->second == 0.0) ++report.stats.zero_baseline;
      ++ia;
      ++ib;
    }
  }
  report.stats.aligned = aligned.size();

  for (const Aligned& pair : aligned) {
    Row row;
    row.value_a = pair.value_a;
    row.value_b = pair.value_b;
    row.has_ratio = pair.value_a != 0.0;
    if (row.has_ratio) row.ratio = pair.value_b / pair.value_a;
    const double delta = std::abs(row.delta());
    // Zero-baseline guard: without a ratio, any change at all is divergent
    // (the value appeared from nothing); with one, apply the threshold.
    const bool past_ratio = row.has_ratio
                                ? std::abs(row.ratio - 1.0) > request.ratio_threshold
                                : delta != 0.0;
    if (!past_ratio || delta < request.abs_threshold) continue;
    const double total = metric_total_delta[pair.key >> 32];
    row.contribution_pct = total > 0.0 ? delta / total * 100.0 : 0.0;
    row.metric = *metric_names[pair.key >> 32];
    row.context = contexts.text(context_by_rank[pair.key & 0xffffffffu]);
    report.rows.push_back(std::move(row));
  }
  report.stats.divergent = report.rows.size();

  // Rank: contribution first, then raw |delta|, then a deterministic
  // name/context tiebreak so local and remote renderings are byte-identical.
  // The order is total, so a partial sort for top-K ranks the same prefix.
  const auto ranked_before = [](const Row& x, const Row& y) {
    if (x.contribution_pct != y.contribution_pct) {
      return x.contribution_pct > y.contribution_pct;
    }
    const double dx = std::abs(x.delta());
    const double dy = std::abs(y.delta());
    if (dx != dy) return dx > dy;
    if (x.metric != y.metric) return x.metric < y.metric;
    return x.context < y.context;
  };
  if (request.top_k > 0 && report.rows.size() > request.top_k) {
    std::partial_sort(report.rows.begin(), report.rows.begin() + request.top_k,
                      report.rows.end(), ranked_before);
    report.rows.resize(request.top_k);
  } else {
    std::sort(report.rows.begin(), report.rows.end(), ranked_before);
  }

  report.stats.diff_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  DiagMetrics& m = metrics();
  m.diffs->inc();
  m.aligned->inc(report.stats.aligned);
  m.divergences->inc(report.stats.divergent);
  m.diff_ms->observe(static_cast<double>(report.stats.diff_us) / 1000.0);
  return report;
}

}  // namespace perftrack::core::diag
