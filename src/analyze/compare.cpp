#include "analyze/compare.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "core/diag.h"
#include "util/strings.h"

namespace perftrack::analyze {

std::optional<double> ComparisonRow::ratio() const {
  if (value_a == 0.0) return std::nullopt;
  return value_b / value_a;
}

std::string comparableContext(
    const core::PerfResultRecord& record,
    const std::unordered_map<core::ResourceId, core::ResourceInfo>& infos) {
  // The $EXEC canonicalization rule is shared with the core::diag engine so
  // both layers align the same contexts across executions.
  std::set<std::string> names;
  for (const auto& context : record.contexts) {
    for (core::ResourceId id : context) {
      names.insert(
          core::diag::canonicalResourceName(record.execution, infos.at(id).full_name));
    }
  }
  return util::join({names.begin(), names.end()}, "|");
}

ComparisonReport compareExecutions(core::PTDataStore& store, const std::string& exec_a,
                                   const std::string& exec_b) {
  ComparisonReport report;
  report.execution_a = exec_a;
  report.execution_b = exec_b;

  // (metric, comparable context) -> value. Duplicate keys (several samples
  // of one metric in one context) keep the first; a production tool would
  // aggregate, which ComparisonRow consumers can do upstream if needed.
  auto collect = [&](const std::string& exec) {
    const auto records = store.getResults(store.resultsForExecution(exec));
    const auto infos = core::contextResourceInfos(store, records);
    std::map<std::pair<std::string, std::string>, double> out;
    for (const core::PerfResultRecord& rec : records) {
      out.try_emplace({rec.metric, comparableContext(rec, infos)}, rec.value);
    }
    return out;
  };
  const auto a = collect(exec_a);
  const auto b = collect(exec_b);

  for (const auto& [key, value_a] : a) {
    const auto it = b.find(key);
    if (it == b.end()) {
      ++report.unmatched_a;
      continue;
    }
    report.rows.push_back({key.first, key.second, value_a, it->second});
  }
  for (const auto& [key, value_b] : b) {
    if (!a.contains(key)) ++report.unmatched_b;
  }
  return report;
}

std::vector<ComparisonRow> ComparisonReport::divergent(double threshold) const {
  std::vector<ComparisonRow> out;
  for (const ComparisonRow& row : rows) {
    const auto r = row.ratio();
    if (!r || std::abs(*r - 1.0) > threshold) out.push_back(row);
  }
  std::sort(out.begin(), out.end(), [](const ComparisonRow& x, const ComparisonRow& y) {
    return std::abs(x.difference()) > std::abs(y.difference());
  });
  return out;
}

std::string ComparisonReport::toText(std::size_t max_rows) const {
  std::ostringstream out;
  out << "comparison: " << execution_a << " vs " << execution_b << "\n"
      << "  matched results:   " << rows.size() << "\n"
      << "  unmatched (A only): " << unmatched_a << "\n"
      << "  unmatched (B only): " << unmatched_b << "\n";
  const auto top = divergent(0.0);
  out << "  largest changes:\n";
  for (std::size_t i = 0; i < top.size() && i < max_rows; ++i) {
    const ComparisonRow& row = top[i];
    out << "    " << row.metric << "  " << util::formatReal(row.value_a) << " -> "
        << util::formatReal(row.value_b);
    if (const auto r = row.ratio()) {
      out << "  (x" << util::formatReal(*r) << ")";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace perftrack::analyze
