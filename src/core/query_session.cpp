#include "core/query_session.h"

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>

#include "core/in_chunks.h"
#include "util/compare.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/strings.h"

namespace perftrack::core {

using util::ModelError;

// ---------------------------------------------------------------------------
// ResultTable
// ---------------------------------------------------------------------------

const std::unordered_map<ResourceId, ResourceInfo>& ResultTable::infos() {
  if (!infos_) {
    std::vector<ResourceId> ids;
    for (const ResultRow& row : rows_) {
      ids.insert(ids.end(), row.context_resources.begin(), row.context_resources.end());
    }
    sortUnique(ids);
    infos_.emplace();
    for (ResourceInfo& info : store_->resourceInfos(ids)) {
      const ResourceId id = info.id;
      infos_->emplace(id, std::move(info));
    }
  }
  return *infos_;
}

std::map<std::string, std::vector<std::string>> ResultTable::columnValuesByType() {
  // For each row, group its context resources by type path and record the
  // (comma-joined) paths.
  const auto& info = infos();
  std::map<std::string, std::vector<std::string>> by_type;
  for (const ResultRow& row : rows_) {
    std::map<std::string, std::set<std::string>> row_values;
    for (ResourceId id : row.context_resources) {
      const ResourceInfo& ri = info.at(id);
      // Full path (sans leading '/') rather than base name: processors named
      // "p0" on different nodes must count as different values.
      row_values[ri.type_path].insert(ri.full_name.substr(1));
    }
    for (auto& [type, names] : row_values) {
      by_type[type].push_back(util::join({names.begin(), names.end()}, ","));
    }
  }
  return by_type;
}

std::vector<std::string> ResultTable::freeResourceTypes() {
  std::vector<std::string> out;
  for (const auto& [type, values] : columnValuesByType()) {
    // Hide types whose value is identical on every row AND which appear on
    // every row (no information), per the paper's Add Columns dialog.
    const bool on_every_row = values.size() == rows_.size();
    const bool all_identical =
        std::all_of(values.begin(), values.end(),
                    [&](const std::string& v) { return v == values.front(); });
    if (!(on_every_row && all_identical)) out.push_back(type);
  }
  return out;
}

void ResultTable::addColumn(const std::string& type_path) {
  if (std::find(extra_columns_.begin(), extra_columns_.end(), type_path) !=
      extra_columns_.end()) {
    return;
  }
  const auto& info = infos();
  for (ResultRow& row : rows_) {
    std::set<std::string> names;
    for (ResourceId id : row.context_resources) {
      const ResourceInfo& ri = info.at(id);
      if (ri.type_path == type_path) names.insert(ri.full_name.substr(1));
    }
    row.extra_columns[type_path] = util::join({names.begin(), names.end()}, ",");
  }
  extra_columns_.push_back(type_path);
}

std::string ResultTable::cellText(const ResultRow& row, const std::string& column) const {
  if (column == "execution") return row.execution;
  if (column == "metric") return row.metric;
  if (column == "tool") return row.tool;
  if (column == "value") return util::formatReal(row.value);
  if (column == "units") return row.units;
  const auto it = row.extra_columns.find(column);
  if (it != row.extra_columns.end()) return it->second;
  throw ModelError("ResultTable: no column named '" + column + "'");
}

void ResultTable::sortBy(const std::string& column, bool descending) {
  const bool numeric = column == "value";
  auto less = [&](const ResultRow& a, const ResultRow& b) {
    if (numeric) return a.value < b.value;
    return cellText(a, column) < cellText(b, column);
  };
  if (descending) {
    std::stable_sort(rows_.begin(), rows_.end(),
                     [&](const ResultRow& a, const ResultRow& b) { return less(b, a); });
  } else {
    std::stable_sort(rows_.begin(), rows_.end(), less);
  }
}

void ResultTable::filterRows(const std::string& column, const std::string& comparator,
                             const std::string& value) {
  std::erase_if(rows_, [&](const ResultRow& row) {
    return !util::comparePredicate(cellText(row, column), comparator, value);
  });
}

namespace {

std::vector<std::string> headerColumns(const std::vector<std::string>& extra) {
  std::vector<std::string> cols = {"execution", "metric", "tool", "value", "units"};
  cols.insert(cols.end(), extra.begin(), extra.end());
  return cols;
}

}  // namespace

void ResultTable::toCsv(std::ostream& out) const {
  const auto cols = headerColumns(extra_columns_);
  util::writeCsvRow(out, cols);
  for (const ResultRow& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(cols.size());
    for (const std::string& col : cols) cells.push_back(cellText(row, col));
    util::writeCsvRow(out, cells);
  }
}

std::string ResultTable::toText() const {
  const auto cols = headerColumns(extra_columns_);
  std::vector<std::size_t> widths;
  widths.reserve(cols.size());
  for (const auto& c : cols) widths.push_back(c.size());
  std::vector<std::vector<std::string>> grid;
  grid.reserve(rows_.size());
  for (const ResultRow& row : rows_) {
    std::vector<std::string> cells;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      cells.push_back(cellText(row, cols[i]));
      widths[i] = std::max(widths[i], cells.back().size());
    }
    grid.push_back(std::move(cells));
  }
  std::ostringstream out;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    out << cols[i] << std::string(widths[i] - cols[i].size() + 2, ' ');
  }
  out << '\n';
  for (const auto& cells : grid) {
    for (std::size_t i = 0; i < cols.size(); ++i) {
      out << cells[i] << std::string(widths[i] - cells[i].size() + 2, ' ');
    }
    out << '\n';
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// QuerySession
// ---------------------------------------------------------------------------

std::vector<std::string> QuerySession::attributeNamesForType(const std::string& type_path) {
  dbal::Connection& conn = store_->connection();
  auto cur = conn.query(
      "SELECT DISTINCT ra.name FROM resource_attribute ra "
      "JOIN resource_item r ON ra.resource_id = r.id "
      "JOIN focus_framework f ON r.focus_framework_id = f.id "
      "WHERE f.type_name = ? ORDER BY ra.name",
      {minidb::Value(type_path)});
  std::vector<std::string> out;
  minidb::Row row;
  while (cur.next(row)) out.push_back(row[0].asText());
  return out;
}

std::size_t QuerySession::addFamily(ResourceFilter filter) {
  families_.push_back(std::move(filter));
  cache_.emplace_back();
  return families_.size() - 1;
}

void QuerySession::removeFamily(std::size_t index) {
  if (index >= families_.size()) throw ModelError("QuerySession: bad family index");
  families_.erase(families_.begin() + static_cast<std::ptrdiff_t>(index));
  cache_.erase(cache_.begin() + static_cast<std::ptrdiff_t>(index));
}

void QuerySession::setExpansion(std::size_t index, Expansion expansion) {
  if (index >= families_.size()) throw ModelError("QuerySession: bad family index");
  families_[index].expand = expansion;
  cache_[index].reset();
}

const std::vector<ResourceId>& QuerySession::evaluated(std::size_t index) {
  if (!cache_[index]) cache_[index] = evaluateFamily(*store_, families_[index]);
  return *cache_[index];
}

std::size_t QuerySession::familyMatchCount(std::size_t index) {
  if (index >= families_.size()) throw ModelError("QuerySession: bad family index");
  return core::familyMatchCount(*store_, evaluated(index));
}

std::size_t QuerySession::totalMatchCount() {
  std::vector<std::vector<ResourceId>> families;
  families.reserve(families_.size());
  for (std::size_t i = 0; i < families_.size(); ++i) families.push_back(evaluated(i));
  return matchResultCount(*store_, families);
}

ResultTable QuerySession::run() {
  std::vector<std::vector<ResourceId>> families;
  families.reserve(families_.size());
  for (std::size_t i = 0; i < families_.size(); ++i) families.push_back(evaluated(i));
  // Streamed: a whole-execution table never holds every record beside its
  // row.
  const auto result_ids = matchResults(*store_, families);
  std::vector<ResultRow> rows;
  rows.reserve(result_ids.size());
  store_->forEachResult(result_ids, [&](PerfResultRecord& rec) {
    ResultRow row;
    row.result_id = rec.id;
    row.execution = std::move(rec.execution);
    row.metric = std::move(rec.metric);
    row.tool = std::move(rec.tool);
    row.value = rec.value;
    row.units = std::move(rec.units);
    for (const auto& context : rec.contexts) {
      row.context_resources.insert(row.context_resources.end(), context.begin(),
                                   context.end());
    }
    sortUnique(row.context_resources);
    rows.push_back(std::move(row));
  });
  return ResultTable(*store_, std::move(rows));
}

}  // namespace perftrack::core
