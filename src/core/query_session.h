// PerfTrack core: QuerySession — the GUI's query engine as a library.
//
// The paper's Qt GUI (§3.2) is a front-end over exactly these operations:
//   * incremental browsing (resource types -> top-level names -> children,
//     attributes fetched on demand),
//   * building a pr-filter family by family, with live match counts per
//     family and for the whole filter ("This lets users tailor queries to
//     return a reasonable number of results"),
//   * two-step retrieval: first the result rows, then a separate
//     "Add Columns" step offering only *free resources* — context resources
//     the query didn't constrain and whose names differ across the rows,
//   * sorting, filtering, bar charts, CSV export.
// We implement the engine here; src/analyze renders tables and charts, and
// the ptquery CLI plays the role of the widgets.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/datastore.h"
#include "core/filter.h"

namespace perftrack::core {

/// One row of the main-window result table (Fig. 4).
struct ResultRow {
  std::int64_t result_id = 0;
  std::string execution;
  std::string metric;
  std::string tool;
  double value = 0.0;
  std::string units;
  /// Union of the resources of every matching context of this result.
  std::vector<ResourceId> context_resources;
  /// Values of user-added free-resource columns, keyed by type path.
  std::map<std::string, std::string> extra_columns;
};

/// Retrieved result set plus the free-resource machinery.
class ResultTable {
 public:
  ResultTable(PTDataStore& store, std::vector<ResultRow> rows)
      : store_(&store), rows_(std::move(rows)) {}

  const std::vector<ResultRow>& rows() const { return rows_; }
  std::size_t size() const { return rows_.size(); }

  /// Type paths of free resources: context resource types the filter did not
  /// pin down and whose names are NOT identical across all rows (identical
  /// columns carry no information; the paper's GUI hides them).
  std::vector<std::string> freeResourceTypes();

  /// Adds a display column for `type_path`, filling each row with the full
  /// path(s), without the leading '/', of its context resources of that type
  /// (sorted, comma-joined). Full paths, not base names: processors named
  /// "p0" on two nodes must read as different values.
  void addColumn(const std::string& type_path);

  const std::vector<std::string>& extraColumns() const { return extra_columns_; }

  /// Sorts rows by a column: "execution", "metric", "tool", "value", "units",
  /// or any added free-resource column.
  void sortBy(const std::string& column, bool descending = false);

  /// Keeps only rows whose column satisfies comparator/value (same
  /// comparator grammar as attribute predicates).
  void filterRows(const std::string& column, const std::string& comparator,
                  const std::string& value);

  /// Writes the table as CSV (the paper's spreadsheet-import path).
  void toCsv(std::ostream& out) const;

  /// Renders an aligned text table.
  std::string toText() const;

 private:
  std::string cellText(const ResultRow& row, const std::string& column) const;
  /// type path -> set of value strings observed across rows.
  std::map<std::string, std::vector<std::string>> columnValuesByType();
  /// Info of every context resource of the rows, fetched with one
  /// resourceInfos() call the first time a free-resource step needs it and
  /// shared by every later one.
  const std::unordered_map<ResourceId, ResourceInfo>& infos();

  PTDataStore* store_;
  std::vector<ResultRow> rows_;
  std::vector<std::string> extra_columns_;
  std::optional<std::unordered_map<ResourceId, ResourceInfo>> infos_;
};

/// An interactive query-building session.
class QuerySession {
 public:
  explicit QuerySession(PTDataStore& store) : store_(&store) {}

  // --- browsing (incremental, on demand — §3.2 implementation notes) ------
  std::vector<std::string> resourceTypes() { return store_->resourceTypes(); }
  std::vector<ResourceInfo> topLevelResources(const std::string& root_type) {
    return store_->topLevelOfType(root_type);
  }
  std::vector<ResourceInfo> childrenOf(ResourceId id) { return store_->childrenOf(id); }
  std::vector<AttributeInfo> attributesOf(ResourceId id) {
    return store_->attributesOf(id);
  }
  /// Distinct attribute names seen on resources of one type (the left-hand
  /// attribute list of the selection dialog).
  std::vector<std::string> attributeNamesForType(const std::string& type_path);

  // --- pr-filter construction ----------------------------------------------
  /// Adds a family; returns its index.
  std::size_t addFamily(ResourceFilter filter);
  void removeFamily(std::size_t index);
  void setExpansion(std::size_t index, Expansion expansion);
  const std::vector<ResourceFilter>& families() const { return families_; }

  /// Number of results this family matches by itself (Fig. 3 live count).
  std::size_t familyMatchCount(std::size_t index);
  /// Number of results the entire pr-filter matches.
  std::size_t totalMatchCount();

  /// Executes the query and returns the result table.
  ResultTable run();

 private:
  /// Evaluates (or returns the cached evaluation of) one family. The
  /// reference stays valid until the family list or its expansion changes.
  const std::vector<ResourceId>& evaluated(std::size_t index);

  PTDataStore* store_;
  std::vector<ResourceFilter> families_;
  // Families are re-evaluated lazily; the cache is keyed by describe().
  std::vector<std::optional<std::vector<ResourceId>>> cache_;
};

}  // namespace perftrack::core
