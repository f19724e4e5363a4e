#include "core/datastore.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "core/in_chunks.h"
#include "core/typesystem.h"
#include "dbal/schema.h"
#include "util/error.h"
#include "util/strings.h"

namespace perftrack::core {

using minidb::Value;
using util::ModelError;

namespace {

/// Position of `id` in the ascending, distinct `sorted`.
std::size_t slotOf(std::span<const std::int64_t> sorted, std::int64_t id) {
  return static_cast<std::size_t>(std::lower_bound(sorted.begin(), sorted.end(), id) -
                                  sorted.begin());
}

/// Lays `loaded`, the rows of the distinct ids `sorted`, out in the order of
/// `ids`, repeating duplicates.
template <typename T>
std::vector<T> inRequestOrder(const std::vector<std::int64_t>& ids,
                              const std::vector<std::int64_t>& sorted,
                              std::vector<T> loaded) {
  if (ids == sorted) return loaded;
  const bool distinct = sorted.size() == ids.size();
  std::vector<T> out;
  out.reserve(ids.size());
  for (std::int64_t id : ids) {
    T& row = loaded[slotOf(sorted, id)];
    out.push_back(distinct ? std::move(row) : row);
  }
  return out;
}

}  // namespace

std::string_view focusTypeName(FocusType type) {
  switch (type) {
    case FocusType::Primary: return "primary";
    case FocusType::Parent: return "parent";
    case FocusType::Child: return "child";
    case FocusType::Sender: return "sender";
    case FocusType::Receiver: return "receiver";
  }
  return "?";
}

FocusType focusTypeFromName(std::string_view name) {
  if (util::iequals(name, "primary")) return FocusType::Primary;
  if (util::iequals(name, "parent")) return FocusType::Parent;
  if (util::iequals(name, "child")) return FocusType::Child;
  if (util::iequals(name, "sender")) return FocusType::Sender;
  if (util::iequals(name, "receiver")) return FocusType::Receiver;
  throw ModelError("unknown focus type '" + std::string(name) + "'");
}

void PTDataStore::initialize() {
  dbal::createPerfTrackSchema(*conn_);
  // The base types are loaded through the same extension interface users
  // call, exactly as the paper describes for new-database initialization.
  for (const std::string& path : baseHierarchicalTypes()) addResourceType(path);
  for (const std::string& path : baseSingleLevelTypes()) addResourceType(path);
}

void PTDataStore::clearCache() {
  resource_cache_.clear();
  type_cache_.clear();
  metric_cache_.clear();
  tool_cache_.clear();
  exec_cache_.clear();
  app_cache_.clear();
  focus_cache_.clear();
}

std::int64_t PTDataStore::addResourceType(const std::string& type_path) {
  const auto segments = splitTypePath(type_path);
  std::int64_t parent_id = 0;
  std::string prefix;
  std::int64_t id = 0;
  for (const std::string& segment : segments) {
    if (!prefix.empty()) prefix.push_back('/');
    prefix.append(segment);
    auto cached = type_cache_.find(prefix);
    if (cached != type_cache_.end()) {
      id = cached->second;
      parent_id = id;
      continue;
    }
    id = conn_->queryInt("SELECT id FROM focus_framework WHERE type_name = ?",
                         {Value(prefix)});
    if (id == 0) {
      const auto rs = conn_->execPrepared(
          "INSERT INTO focus_framework (type_name, base_name, parent_id) "
          "VALUES (?, ?, ?)",
          {Value(prefix), Value(segment),
           parent_id == 0 ? Value::null() : Value(parent_id)});
      id = rs.last_insert_id;
    }
    type_cache_[prefix] = id;
    parent_id = id;
  }
  return id;
}

bool PTDataStore::hasResourceType(const std::string& type_path) {
  if (type_cache_.contains(type_path)) return true;
  return conn_->queryInt("SELECT id FROM focus_framework WHERE type_name = ?",
                         {Value(type_path)}) != 0;
}

std::vector<std::string> PTDataStore::resourceTypes() {
  const auto rs =
      conn_->exec("SELECT type_name FROM focus_framework ORDER BY type_name");
  std::vector<std::string> out;
  out.reserve(rs.rows.size());
  for (const auto& row : rs.rows) out.push_back(row[0].asText());
  return out;
}

std::vector<std::string> PTDataStore::childTypes(const std::string& type_path) {
  const auto rs =
      type_path.empty()
          ? conn_->exec("SELECT type_name FROM focus_framework WHERE parent_id "
                        "IS NULL ORDER BY type_name")
          : conn_->execPrepared("SELECT type_name FROM focus_framework WHERE "
                                "parent_id = ? ORDER BY type_name",
                                {Value(typeIdFor(type_path))});
  std::vector<std::string> out;
  out.reserve(rs.rows.size());
  for (const auto& row : rs.rows) out.push_back(row[0].asText());
  return out;
}

std::int64_t PTDataStore::typeIdFor(const std::string& type_path) {
  auto cached = type_cache_.find(type_path);
  if (cached != type_cache_.end()) return cached->second;
  const std::int64_t id = conn_->queryInt(
      "SELECT id FROM focus_framework WHERE type_name = ?", {Value(type_path)});
  if (id == 0) throw ModelError("unknown resource type '" + type_path + "'");
  type_cache_[type_path] = id;
  return id;
}

std::int64_t PTDataStore::lookupOrInsertNamed(const std::string& table,
                                              const std::string& name,
                                              const std::string& extra_cols,
                                              std::vector<Value> extra_vals) {
  const std::int64_t existing =
      conn_->queryInt("SELECT id FROM " + table + " WHERE name = ?", {Value(name)});
  if (existing != 0) return existing;
  std::string sql = "INSERT INTO " + table + " (name" + extra_cols + ") VALUES (?";
  for (std::size_t i = 0; i < extra_vals.size(); ++i) sql += ", ?";
  sql += ")";
  std::vector<Value> params;
  params.reserve(1 + extra_vals.size());
  params.emplace_back(name);
  for (Value& v : extra_vals) params.push_back(std::move(v));
  const auto rs = conn_->execPrepared(sql, std::move(params));
  return rs.last_insert_id;
}

std::int64_t PTDataStore::addApplication(const std::string& name) {
  auto cached = app_cache_.find(name);
  if (cached != app_cache_.end()) return cached->second;
  const std::int64_t id = lookupOrInsertNamed("application", name);
  app_cache_[name] = id;
  return id;
}

std::int64_t PTDataStore::addExecution(const std::string& exec_name,
                                       const std::string& app_name) {
  auto cached = exec_cache_.find(exec_name);
  if (cached != exec_cache_.end()) return cached->second;
  const std::int64_t app_id = addApplication(app_name);
  const std::int64_t id =
      lookupOrInsertNamed("execution", exec_name, ", application_id", {Value(app_id)});
  exec_cache_[exec_name] = id;
  return id;
}

std::int64_t PTDataStore::addPerformanceTool(const std::string& name) {
  auto cached = tool_cache_.find(name);
  if (cached != tool_cache_.end()) return cached->second;
  const std::int64_t id = lookupOrInsertNamed("performance_tool", name);
  tool_cache_[name] = id;
  return id;
}

std::int64_t PTDataStore::addMetric(const std::string& name, const std::string& units) {
  auto cached = metric_cache_.find(name);
  if (cached != metric_cache_.end()) return cached->second;
  const std::int64_t existing =
      conn_->queryInt("SELECT id FROM metric WHERE name = ?", {Value(name)});
  std::int64_t id = existing;
  if (id == 0) {
    const auto rs = conn_->execPrepared("INSERT INTO metric (name, units) VALUES (?, ?)",
                                        {Value(name), Value(units)});
    id = rs.last_insert_id;
  }
  metric_cache_[name] = id;
  return id;
}

ResourceId PTDataStore::addResource(const std::string& full_name,
                                    const std::string& type_path) {
  auto cached = resource_cache_.find(full_name);
  if (cached != resource_cache_.end()) return cached->second;

  const auto name_segments = splitResourceName(full_name);
  const auto type_segments = splitTypePath(type_path);
  if (name_segments.size() > type_segments.size()) {
    throw ModelError("resource '" + full_name + "' is deeper than its type path '" +
                     type_path + "'");
  }
  // Ensure the type path exists (extension interface tolerates re-adds).
  addResourceType(type_path);

  ResourceId parent_id = 0;
  std::vector<ResourceId> ancestors;
  std::string prefix;
  std::string type_prefix;
  ResourceId id = 0;
  for (std::size_t depth = 0; depth < name_segments.size(); ++depth) {
    prefix.push_back('/');
    prefix.append(name_segments[depth]);
    if (depth > 0) type_prefix.push_back('/');
    type_prefix.append(type_segments[depth]);

    auto hit = resource_cache_.find(prefix);
    if (hit != resource_cache_.end()) {
      id = hit->second;
    } else {
      id = conn_->queryInt("SELECT id FROM resource_item WHERE full_name = ?",
                           {Value(prefix)});
      if (id == 0) {
        const std::int64_t type_id = typeIdFor(type_prefix);
        const auto rs = conn_->execPrepared(
            "INSERT INTO resource_item (name, full_name, parent_id, "
            "focus_framework_id) VALUES (?, ?, ?, ?)",
            {Value(name_segments[depth]), Value(prefix),
             parent_id == 0 ? Value::null() : Value(parent_id), Value(type_id)});
        id = rs.last_insert_id;
        // Maintain both closure tables (paper: added "for performance
        // reasons" to avoid parent-chain traversal).
        for (ResourceId anc : ancestors) {
          conn_->execPrepared(
              "INSERT INTO resource_has_ancestor (resource_id, ancestor_id) "
              "VALUES (?, ?)",
              {Value(id), Value(anc)});
          conn_->execPrepared(
              "INSERT INTO resource_has_descendant (resource_id, descendant_id) "
              "VALUES (?, ?)",
              {Value(anc), Value(id)});
        }
      }
      resource_cache_[prefix] = id;
    }
    ancestors.push_back(id);
    parent_id = id;
  }
  return id;
}

void PTDataStore::addResourceAttribute(const std::string& resource_full_name,
                                       const std::string& attr_name,
                                       const std::string& value,
                                       const std::string& attr_type) {
  const auto rid = findResource(resource_full_name);
  if (!rid) throw ModelError("addResourceAttribute: unknown resource " + resource_full_name);
  conn_->execPrepared(
      "INSERT INTO resource_attribute (resource_id, name, value, attr_type) "
      "VALUES (?, ?, ?, ?)",
      {Value(*rid), Value(attr_name), Value(value), Value(attr_type)});
}

void PTDataStore::addResourceConstraint(const std::string& resource1_full_name,
                                        const std::string& resource2_full_name) {
  const auto r1 = findResource(resource1_full_name);
  const auto r2 = findResource(resource2_full_name);
  if (!r1 || !r2) {
    throw ModelError("addResourceConstraint: unknown resource in (" +
                     resource1_full_name + ", " + resource2_full_name + ")");
  }
  conn_->execPrepared(
      "INSERT INTO resource_constraint (resource_id1, resource_id2) VALUES (?, ?)",
      {Value(*r1), Value(*r2)});
  // A constraint is "an attribute of type resource" (paper Figure 6); also
  // record it in resource_attribute so attribute views show it.
  conn_->execPrepared(
      "INSERT INTO resource_attribute (resource_id, name, value, attr_type) "
      "VALUES (?, ?, ?, 'resource')",
      {Value(*r1), Value(typeBaseName(resourceInfo(*r2).type_path)),
       Value(resource2_full_name)});
}

std::int64_t PTDataStore::focusFor(std::int64_t execution_id, const ResourceSetSpec& spec) {
  // Canonical signature: sorted resource ids + focus type. Foci are shared
  // between results with identical contexts (paper: "a single context can
  // apply to multiple performance results").
  std::vector<ResourceId> ids;
  ids.reserve(spec.resource_names.size());
  for (const std::string& name : spec.resource_names) {
    const auto rid = findResource(name);
    if (!rid) throw ModelError("performance result names unknown resource " + name);
    ids.push_back(*rid);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::string signature(focusTypeName(spec.set_type));
  for (ResourceId id : ids) {
    signature.push_back(':');
    signature.append(std::to_string(id));
  }
  const std::string cache_key = std::to_string(execution_id) + "|" + signature;
  auto cached = focus_cache_.find(cache_key);
  if (cached != focus_cache_.end()) return cached->second;

  std::int64_t focus_id = conn_->queryInt(
      "SELECT id FROM focus WHERE signature = ? AND execution_id = ?",
      {Value(signature), Value(execution_id)});
  if (focus_id == 0) {
    const auto rs = conn_->execPrepared(
        "INSERT INTO focus (execution_id, signature) VALUES (?, ?)",
        {Value(execution_id), Value(signature)});
    focus_id = rs.last_insert_id;
    for (ResourceId id : ids) {
      conn_->execPrepared(
          "INSERT INTO focus_has_resource (focus_id, resource_id, focus_type) "
          "VALUES (?, ?, ?)",
          {Value(focus_id), Value(id), Value(std::string(focusTypeName(spec.set_type)))});
    }
  }
  focus_cache_[cache_key] = focus_id;
  return focus_id;
}

std::int64_t PTDataStore::addPerformanceResult(
    const std::string& exec_name, const std::vector<ResourceSetSpec>& resource_sets,
    const std::string& tool_name, const std::string& metric_name, double value,
    const std::string& units, double start_time, double end_time) {
  if (resource_sets.empty()) {
    throw ModelError("performance result requires at least one resource set");
  }
  auto exec_it = exec_cache_.find(exec_name);
  std::int64_t exec_id = 0;
  if (exec_it != exec_cache_.end()) {
    exec_id = exec_it->second;
  } else {
    exec_id = conn_->queryInt("SELECT id FROM execution WHERE name = ?",
                              {Value(exec_name)});
    if (exec_id == 0) throw ModelError("unknown execution '" + exec_name + "'");
    exec_cache_[exec_name] = exec_id;
  }
  const std::int64_t tool_id = addPerformanceTool(tool_name);
  const std::int64_t metric_id = addMetric(metric_name, units);
  const auto rs = conn_->execPrepared(
      "INSERT INTO performance_result (execution_id, metric_id, performance_tool_id, "
      "value, units, start_time, end_time) VALUES (?, ?, ?, ?, ?, ?, ?)",
      {Value(exec_id), Value(metric_id), Value(tool_id), Value(value), Value(units),
       Value(start_time), Value(end_time)});
  const std::int64_t result_id = rs.last_insert_id;
  for (const ResourceSetSpec& spec : resource_sets) {
    const std::int64_t focus_id = focusFor(exec_id, spec);
    conn_->execPrepared(
        "INSERT INTO performance_result_has_focus (result_id, focus_id) VALUES (?, ?)",
        {Value(result_id), Value(focus_id)});
  }
  return result_id;
}

std::int64_t PTDataStore::addHistogramResult(
    const std::string& exec_name, const std::vector<ResourceSetSpec>& resource_sets,
    const std::string& tool_name, const std::string& metric_name,
    const std::vector<double>& bins, double bin_width, const std::string& units) {
  if (bin_width <= 0.0) throw ModelError("histogram result requires bin_width > 0");
  double total = 0.0;
  std::size_t recorded = 0;
  for (double v : bins) {
    if (!std::isnan(v)) {
      total += v;
      ++recorded;
    }
  }
  if (recorded == 0) {
    throw ModelError("histogram result must record at least one non-NaN bin");
  }
  const std::int64_t result_id = addPerformanceResult(
      exec_name, resource_sets, tool_name, metric_name, total, units, 0.0,
      bin_width * static_cast<double>(bins.size()));
  conn_->execPrepared(
      "INSERT INTO performance_result_histogram (result_id, num_bins, bin_width) "
      "VALUES (?, ?, ?)",
      {Value(result_id), Value(static_cast<std::int64_t>(bins.size())),
       Value(bin_width)});
  for (std::size_t bin = 0; bin < bins.size(); ++bin) {
    if (std::isnan(bins[bin])) continue;
    conn_->execPrepared(
        "INSERT INTO performance_result_bin (result_id, bin, value) VALUES (?, ?, ?)",
        {Value(result_id), Value(static_cast<std::int64_t>(bin)), Value(bins[bin])});
  }
  return result_id;
}

std::optional<PTDataStore::Histogram> PTDataStore::getHistogram(std::int64_t result_id) {
  return std::move(getHistograms({result_id}).front());
}

std::vector<std::optional<PTDataStore::Histogram>> PTDataStore::getHistograms(
    const std::vector<std::int64_t>& result_ids) {
  std::vector<std::int64_t> sorted = result_ids;
  sortUnique(sorted);
  std::vector<std::optional<Histogram>> loaded(sorted.size());
  std::vector<std::int64_t> with_bins;
  forEachRowInChunks(*conn_,
                     "SELECT pr.id, h.num_bins, h.bin_width FROM performance_result pr "
                     "JOIN performance_result_histogram h ON h.result_id = pr.id "
                     "WHERE pr.id",
                     sorted, [&](minidb::Row& row) {
                       auto& hist = loaded[slotOf(sorted, row[0].asInt())];
                       if (hist) return;
                       hist.emplace();
                       hist->num_bins = static_cast<int>(row[1].asInt());
                       hist->bin_width = row[2].asReal();
                       with_bins.push_back(row[0].asInt());
                     });
  forEachRowInChunks(*conn_,
                     "SELECT pr.id, b.bin, b.value FROM performance_result pr "
                     "JOIN performance_result_bin b ON b.result_id = pr.id WHERE pr.id",
                     with_bins, [&](minidb::Row& row) {
                       loaded[slotOf(sorted, row[0].asInt())]->bins.emplace_back(
                           static_cast<int>(row[1].asInt()), row[2].asReal());
                     });
  for (std::optional<Histogram>& hist : loaded) {
    if (!hist) continue;
    std::stable_sort(hist->bins.begin(), hist->bins.end(),
                     [](const auto& x, const auto& y) { return x.first < y.first; });
  }
  std::vector<std::optional<Histogram>> out;
  out.reserve(result_ids.size());
  for (std::int64_t id : result_ids) out.push_back(loaded[slotOf(sorted, id)]);
  return out;
}

std::optional<ResourceId> PTDataStore::findResource(const std::string& full_name) {
  auto cached = resource_cache_.find(full_name);
  if (cached != resource_cache_.end()) return cached->second;
  const std::int64_t id = conn_->queryInt(
      "SELECT id FROM resource_item WHERE full_name = ?", {Value(full_name)});
  if (id == 0) return std::nullopt;
  resource_cache_[full_name] = id;
  return id;
}

namespace {

ResourceInfo rowToResource(const minidb::Row& row) {
  ResourceInfo info;
  info.id = row.at(0).asInt();
  info.name = row.at(1).asText();
  info.full_name = row.at(2).asText();
  info.parent_id = row.at(3).isNull() ? 0 : row.at(3).asInt();
  info.type_path = row.at(4).asText();
  return info;
}

constexpr const char* kResourceSelect =
    "SELECT r.id, r.name, r.full_name, r.parent_id, f.type_name "
    "FROM resource_item r JOIN focus_framework f ON r.focus_framework_id = f.id ";

}  // namespace

ResourceInfo PTDataStore::resourceInfo(ResourceId id) {
  return std::move(resourceInfos({id}).front());
}

std::vector<ResourceInfo> PTDataStore::resourceInfos(const std::vector<ResourceId>& ids) {
  std::vector<ResourceId> sorted = ids;
  sortUnique(sorted);
  std::vector<ResourceInfo> loaded(sorted.size());
  std::vector<bool> found(sorted.size());
  forEachRowInChunks(*conn_, std::string(kResourceSelect) + "WHERE r.id", sorted,
                     [&](minidb::Row& row) {
                       const std::size_t slot = slotOf(sorted, row.at(0).asInt());
                       loaded[slot] = rowToResource(row);
                       found[slot] = true;
                     });
  for (std::size_t slot = 0; slot < sorted.size(); ++slot) {
    if (!found[slot]) {
      throw ModelError("no resource with id " + std::to_string(sorted[slot]));
    }
  }
  return inRequestOrder(ids, sorted, std::move(loaded));
}

std::vector<ResourceInfo> PTDataStore::resourcesOfType(const std::string& type_path) {
  auto cur = conn_->query(
      std::string(kResourceSelect) + "WHERE f.type_name = ? ORDER BY r.full_name",
      {Value(type_path)});
  std::vector<ResourceInfo> out;
  minidb::Row row;
  while (cur.next(row)) out.push_back(rowToResource(row));
  return out;
}

std::vector<ResourceInfo> PTDataStore::resourcesNamed(const std::string& base_name) {
  auto cur = conn_->query(
      std::string(kResourceSelect) + "WHERE r.name = ? ORDER BY r.full_name",
      {Value(base_name)});
  std::vector<ResourceInfo> out;
  minidb::Row row;
  while (cur.next(row)) out.push_back(rowToResource(row));
  return out;
}

std::vector<ResourceInfo> PTDataStore::childrenOf(ResourceId id) {
  auto cur = conn_->query(
      std::string(kResourceSelect) + "WHERE r.parent_id = ? ORDER BY r.full_name",
      {Value(id)});
  std::vector<ResourceInfo> out;
  minidb::Row row;
  while (cur.next(row)) out.push_back(rowToResource(row));
  return out;
}

std::vector<ResourceInfo> PTDataStore::topLevelOfType(const std::string& root_type) {
  auto cur = conn_->query(
      std::string(kResourceSelect) +
          "WHERE f.type_name = ? AND r.parent_id IS NULL ORDER BY r.full_name",
      {Value(root_type)});
  std::vector<ResourceInfo> out;
  minidb::Row row;
  while (cur.next(row)) out.push_back(rowToResource(row));
  return out;
}

std::vector<AttributeInfo> PTDataStore::attributesOf(ResourceId id) {
  auto cur = conn_->query(
      "SELECT name, value, attr_type FROM resource_attribute WHERE resource_id = ? "
      "ORDER BY name",
      {Value(id)});
  std::vector<AttributeInfo> out;
  minidb::Row row;
  while (cur.next(row)) {
    out.push_back({row[0].asText(), row[1].asText(), row[2].asText()});
  }
  return out;
}

std::vector<ResourceId> PTDataStore::ancestorsOf(ResourceId id) {
  auto cur = conn_->query(
      "SELECT ancestor_id FROM resource_has_ancestor WHERE resource_id = ?",
      {Value(id)});
  std::vector<ResourceId> out;
  minidb::Row row;
  while (cur.next(row)) out.push_back(row[0].asInt());
  return out;
}

std::vector<ResourceId> PTDataStore::descendantsOf(ResourceId id) {
  auto cur = conn_->query(
      "SELECT descendant_id FROM resource_has_descendant WHERE resource_id = ?",
      {Value(id)});
  std::vector<ResourceId> out;
  minidb::Row row;
  while (cur.next(row)) out.push_back(row[0].asInt());
  return out;
}

std::vector<ResourceId> PTDataStore::constraintsOf(ResourceId id) {
  auto cur = conn_->query(
      "SELECT resource_id2 FROM resource_constraint WHERE resource_id1 = ?",
      {Value(id)});
  std::vector<ResourceId> out;
  minidb::Row row;
  while (cur.next(row)) out.push_back(row[0].asInt());
  return out;
}

std::vector<std::string> PTDataStore::executions() {
  auto cur = conn_->query("SELECT name FROM execution ORDER BY name");
  std::vector<std::string> out;
  minidb::Row row;
  while (cur.next(row)) out.push_back(row[0].asText());
  return out;
}

std::vector<std::string> PTDataStore::metrics() {
  auto cur = conn_->query("SELECT name FROM metric ORDER BY name");
  std::vector<std::string> out;
  minidb::Row row;
  while (cur.next(row)) out.push_back(row[0].asText());
  return out;
}

PerfResultRecord PTDataStore::getResult(std::int64_t result_id) {
  return std::move(getResults({result_id}).front());
}

std::vector<PerfResultRecord> PTDataStore::getResults(
    const std::vector<std::int64_t>& ids) {
  std::vector<std::int64_t> sorted = ids;
  sortUnique(sorted);
  std::vector<PerfResultRecord> loaded;
  loaded.reserve(sorted.size());
  forEachResult(sorted, [&](PerfResultRecord& rec) { loaded.push_back(std::move(rec)); });
  return inRequestOrder(ids, sorted, std::move(loaded));
}

// Every IN-list below sits on a primary key (performance_result.id,
// focus.id), which the planner answers with a B-tree multi-point probe; the
// link and membership tables are reached by index joins from there.
void PTDataStore::forEachResult(std::span<const std::int64_t> ids,
                                const std::function<void(PerfResultRecord&)>& fn) {
  if (std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()) != ids.end()) {
    throw ModelError("forEachResult: ids must be strictly ascending");
  }
  // Contexts first, for every id: focus links as (position in ids, focus
  // id) in link order per result, then the members of the distinct foci.
  // Foci are shared between results, so there are usually far fewer foci
  // than links.
  std::vector<std::pair<std::size_t, std::int64_t>> links;
  forEachRowInChunks(*conn_,
                     "SELECT pr.id, h.focus_id FROM performance_result pr "
                     "JOIN performance_result_has_focus h ON h.result_id = pr.id "
                     "WHERE pr.id",
                     ids, [&](minidb::Row& row) {
                       links.emplace_back(slotOf(ids, row[0].asInt()), row[1].asInt());
                     });
  std::stable_sort(links.begin(), links.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<std::int64_t> focus_ids;
  focus_ids.reserve(links.size());
  for (const auto& link : links) focus_ids.push_back(link.second);
  sortUnique(focus_ids);
  std::vector<std::vector<ResourceId>> members(focus_ids.size());
  std::vector<FocusType> types(focus_ids.size(), FocusType::Primary);
  forEachRowInChunks(*conn_,
                     "SELECT f.id, m.resource_id, m.focus_type FROM focus f "
                     "JOIN focus_has_resource m ON m.focus_id = f.id WHERE f.id",
                     focus_ids, [&](minidb::Row& row) {
                       const std::size_t slot = slotOf(focus_ids, row[0].asInt());
                       members[slot].push_back(row[1].asInt());
                       types[slot] = focusTypeFromName(row[2].asText());
                     });

  // Then the result rows, one chunk at a time, each completed with its
  // contexts and handed on in id order.
  std::size_t base = 0;
  auto link = links.begin();
  forEachChunk(ids, [&](std::span<const std::int64_t> chunk) {
    std::vector<PerfResultRecord> records(chunk.size());
    std::vector<bool> found(chunk.size());
    forEachRowInChunks(
        *conn_,
        "SELECT pr.id, e.name, a.name, m.name, t.name, pr.value, pr.units, "
        "pr.start_time, pr.end_time "
        "FROM performance_result pr "
        "JOIN execution e ON pr.execution_id = e.id "
        "JOIN application a ON e.application_id = a.id "
        "JOIN metric m ON pr.metric_id = m.id "
        "JOIN performance_tool t ON pr.performance_tool_id = t.id "
        "WHERE pr.id",
        chunk, [&](minidb::Row& row) {
          const std::size_t slot = slotOf(chunk, row[0].asInt());
          PerfResultRecord& rec = records[slot];
          found[slot] = true;
          rec.id = row[0].asInt();
          rec.execution = row[1].asText();
          rec.application = row[2].asText();
          rec.metric = row[3].asText();
          rec.tool = row[4].asText();
          rec.value = row[5].asReal();
          rec.units = row[6].asText();
          rec.start_time = row[7].asReal();
          rec.end_time = row[8].asReal();
        });
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      if (!found[i]) {
        throw ModelError("no performance result with id " + std::to_string(chunk[i]));
      }
      PerfResultRecord& rec = records[i];
      for (; link != links.end() && link->first == base + i; ++link) {
        const std::size_t slot = slotOf(focus_ids, link->second);
        rec.contexts.push_back(members[slot]);
        rec.context_types.push_back(types[slot]);
      }
      fn(rec);
    }
    base += chunk.size();
  });
}

std::unordered_map<ResourceId, ResourceInfo> contextResourceInfos(
    PTDataStore& store, const std::vector<PerfResultRecord>& records) {
  std::vector<ResourceId> ids;
  for (const PerfResultRecord& rec : records) {
    for (const auto& context : rec.contexts) {
      ids.insert(ids.end(), context.begin(), context.end());
    }
  }
  sortUnique(ids);
  std::unordered_map<ResourceId, ResourceInfo> infos;
  infos.reserve(ids.size());
  for (ResourceInfo& info : store.resourceInfos(ids)) {
    const ResourceId id = info.id;
    infos.emplace(id, std::move(info));
  }
  return infos;
}

std::vector<std::int64_t> PTDataStore::resultsForExecution(const std::string& exec_name) {
  auto cur = conn_->query(
      "SELECT pr.id FROM performance_result pr JOIN execution e "
      "ON pr.execution_id = e.id WHERE e.name = ? ORDER BY pr.id",
      {Value(exec_name)});
  std::vector<std::int64_t> out;
  minidb::Row row;
  while (cur.next(row)) out.push_back(row[0].asInt());
  return out;
}

void PTDataStore::deleteExecution(const std::string& exec_name, bool with_resources) {
  const std::int64_t exec_id =
      conn_->queryInt("SELECT id FROM execution WHERE name = ?", {Value(exec_name)});
  if (exec_id == 0) throw ModelError("deleteExecution: unknown execution " + exec_name);
  const Value eid(exec_id);

  // Results, their histogram payloads, and their context links. The
  // subqueries keep every statement self-contained (no huge IN lists).
  conn_->execPrepared("DELETE FROM performance_result_bin WHERE result_id IN "
                      "(SELECT id FROM performance_result WHERE execution_id = ?)",
                      {eid});
  conn_->execPrepared("DELETE FROM performance_result_histogram WHERE result_id IN "
                      "(SELECT id FROM performance_result WHERE execution_id = ?)",
                      {eid});
  conn_->execPrepared("DELETE FROM performance_result_has_focus WHERE result_id IN "
                      "(SELECT id FROM performance_result WHERE execution_id = ?)",
                      {eid});
  conn_->execPrepared("DELETE FROM performance_result WHERE execution_id = ?", {eid});
  conn_->execPrepared("DELETE FROM focus_has_resource WHERE focus_id IN "
                      "(SELECT id FROM focus WHERE execution_id = ?)",
                      {eid});
  conn_->execPrepared("DELETE FROM focus WHERE execution_id = ?", {eid});

  if (with_resources) {
    // Per-execution subtrees follow the collector/converter naming
    // conventions; shared resources never use these roots.
    const std::string roots[] = {
        "/" + exec_name,          "/build-" + exec_name,       "/env-" + exec_name,
        "/" + exec_name + "-time", "/submission-" + exec_name,
        "/syncObjects-" + exec_name,
    };
    std::vector<ResourceId> doomed;
    for (const std::string& root : roots) {
      const auto id = findResource(root);
      if (!id) continue;
      doomed.push_back(*id);
      const auto subtree = descendantsOf(*id);
      doomed.insert(doomed.end(), subtree.begin(), subtree.end());
    }
    for (ResourceId id : doomed) {
      const Value rid(id);
      conn_->execPrepared("DELETE FROM resource_attribute WHERE resource_id = ?",
                          {rid});
      conn_->execPrepared(
          "DELETE FROM resource_constraint WHERE resource_id1 = ? OR resource_id2 = ?",
          {rid, rid});
      conn_->execPrepared(
          "DELETE FROM resource_has_ancestor WHERE resource_id = ? OR ancestor_id = ?",
          {rid, rid});
      conn_->execPrepared(
          "DELETE FROM resource_has_descendant WHERE resource_id = ? "
          "OR descendant_id = ?",
          {rid, rid});
      conn_->execPrepared("DELETE FROM resource_item WHERE id = ?", {rid});
    }
  }
  conn_->execPrepared("DELETE FROM execution WHERE id = ?", {eid});
  clearCache();
}

StoreStats PTDataStore::stats() {
  StoreStats s;
  s.resource_types = conn_->queryInt("SELECT COUNT(*) FROM focus_framework");
  s.resources = conn_->queryInt("SELECT COUNT(*) FROM resource_item");
  s.attributes = conn_->queryInt("SELECT COUNT(*) FROM resource_attribute");
  s.metrics = conn_->queryInt("SELECT COUNT(*) FROM metric");
  s.executions = conn_->queryInt("SELECT COUNT(*) FROM execution");
  s.performance_results = conn_->queryInt("SELECT COUNT(*) FROM performance_result");
  s.foci = conn_->queryInt("SELECT COUNT(*) FROM focus");
  s.size_bytes = conn_->sizeBytes();
  return s;
}

}  // namespace perftrack::core
