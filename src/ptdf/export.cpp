#include "ptdf/export.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/in_chunks.h"
#include "core/typesystem.h"
#include "minidb/sql/row_batch.h"
#include "util/strings.h"

namespace perftrack::ptdf {

namespace {

/// Type paths loaded by PTDataStore::initialize(); re-exporting them is
/// harmless but noisy, so they are skipped.
const std::set<std::string>& baseTypePaths() {
  static const std::set<std::string> kBase = [] {
    std::set<std::string> base;
    for (const std::string& path : core::baseHierarchicalTypes()) {
      const auto segments = core::splitTypePath(path);
      std::string prefix;
      for (const std::string& segment : segments) {
        if (!prefix.empty()) prefix.push_back('/');
        prefix.append(segment);
        base.insert(prefix);
      }
    }
    for (const std::string& path : core::baseSingleLevelTypes()) base.insert(path);
    return base;
  }();
  return kBase;
}

/// The distinct ids of `infos`, ascending, for chunked IN-lists.
std::vector<std::int64_t> sortedIds(const std::vector<core::ResourceInfo>& infos) {
  std::vector<std::int64_t> ids;
  ids.reserve(infos.size());
  for (const core::ResourceInfo& info : infos) ids.push_back(info.id);
  core::sortUnique(ids);
  return ids;
}

/// Emits `infos` in order, each with its string attributes (by name, as
/// attributesOf() lists them). Resource-typed attributes are skipped here;
/// they re-emerge from the constraint table. The attributes of the whole
/// list are fetched in chunked IN-lists, not one statement per resource.
void emitResources(core::PTDataStore& store, Writer& writer,
                   const std::vector<core::ResourceInfo>& infos, ExportStats& stats) {
  const std::vector<std::int64_t> ids = sortedIds(infos);
  std::unordered_map<std::int64_t, std::vector<core::AttributeInfo>> attributes;
  core::forEachRowInChunks(
      store.connection(),
      "SELECT resource_id, name, value, attr_type FROM resource_attribute "
      "WHERE resource_id",
      ids, [&](minidb::Row& row) {
        attributes[row[0].asInt()].push_back(
            {row[1].asText(), row[2].asText(), row[3].asText()});
      });
  for (const core::ResourceInfo& info : infos) {
    writer.resource(info.full_name, info.type_path);
    ++stats.resources;
    const auto found = attributes.find(info.id);
    if (found == attributes.end()) continue;
    std::vector<core::AttributeInfo>& attrs = found->second;
    // Per resource the rows arrive in scan order; a stable sort by name
    // orders them exactly as attributesOf()'s ORDER BY name.
    std::stable_sort(attrs.begin(), attrs.end(),
                     [](const core::AttributeInfo& x, const core::AttributeInfo& y) {
                       return x.name < y.name;
                     });
    for (const core::AttributeInfo& attr : attrs) {
      if (attr.attr_type == "resource") continue;
      writer.resourceAttribute(info.full_name, attr.name, attr.value, attr.attr_type);
      ++stats.attributes;
    }
  }
}

/// Emits the constraints of each of `infos`, in order, each resource's in
/// constraintsOf() order. One chunked IN-list fetches the constraints of
/// the whole list and one resourceInfos() call names their targets.
void emitConstraints(core::PTDataStore& store, Writer& writer,
                     const std::vector<core::ResourceInfo>& infos, ExportStats& stats) {
  const std::vector<std::int64_t> ids = sortedIds(infos);
  std::vector<std::pair<std::int64_t, core::ResourceId>> constraints;  // (from, to)
  core::forEachRowInChunks(
      store.connection(),
      "SELECT resource_id1, resource_id2 FROM resource_constraint WHERE resource_id1",
      ids, [&](minidb::Row& row) {
        constraints.emplace_back(row[0].asInt(), row[1].asInt());
      });
  std::stable_sort(constraints.begin(), constraints.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<core::ResourceId> targets;
  targets.reserve(constraints.size());
  for (const auto& [from, to] : constraints) targets.push_back(to);
  const std::vector<core::ResourceInfo> others = store.resourceInfos(targets);
  for (const core::ResourceInfo& info : infos) {
    auto it = std::lower_bound(
        constraints.begin(), constraints.end(), info.id,
        [](const auto& c, std::int64_t id) { return c.first < id; });
    for (; it != constraints.end() && it->first == info.id; ++it) {
      const core::ResourceInfo& other =
          others[static_cast<std::size_t>(it - constraints.begin())];
      writer.resourceConstraint(info.full_name, other.full_name);
      ++stats.constraints;
    }
  }
}

/// Streams `sql` (a query of resource ids) and calls `emit` with the infos
/// of each batch of ids, so the exporter's footprint stays flat in the
/// store size (BENCH_cursor.json measures this).
template <typename Emit>
void forEachResourceBatch(core::PTDataStore& store, const std::string& sql, Emit&& emit) {
  auto resources = store.connection().query(sql);
  minidb::sql::RowBatch batch;
  while (resources.fetchBatch(batch)) {
    std::vector<core::ResourceId> ids;
    ids.reserve(batch.sel.size());
    for (const std::uint32_t i : batch.sel) ids.push_back(batch.cols[0][i].asInt());
    emit(store.resourceInfos(ids));
  }
}

/// Emits every performance result of one execution, reconstructing the
/// resource sets with their focus types. Results are fetched set-oriented,
/// kInChunk at a time, so memory stays flat in the execution size.
void emitResults(core::PTDataStore& store, const std::string& exec_name, Writer& writer,
                 ExportStats& stats) {
  const auto ids = store.resultsForExecution(exec_name);
  core::forEachChunk(ids, [&](std::span<const std::int64_t> slice) {
    const std::vector<std::int64_t> chunk(slice.begin(), slice.end());
    const auto records = store.getResults(chunk);
    const auto hists = store.getHistograms(chunk);
    const auto infos = core::contextResourceInfos(store, records);
    for (std::size_t r = 0; r < records.size(); ++r) {
      const core::PerfResultRecord& rec = records[r];
      std::vector<core::ResourceSetSpec> sets;
      for (std::size_t c = 0; c < rec.contexts.size(); ++c) {
        if (rec.contexts[c].empty()) continue;
        core::ResourceSetSpec spec;
        spec.set_type = rec.context_types[c];
        for (core::ResourceId rid : rec.contexts[c]) {
          spec.resource_names.push_back(infos.at(rid).full_name);
        }
        sets.push_back(std::move(spec));
      }
      if (const auto& hist = hists[r]) {
        // Complex result: re-expand the sparse bins into the full vector
        // with NaN holes so the PerfHistogram record round-trips exactly.
        std::vector<double> bins(static_cast<std::size_t>(hist->num_bins),
                                 std::numeric_limits<double>::quiet_NaN());
        for (const auto& [bin, value] : hist->bins) {
          bins.at(static_cast<std::size_t>(bin)) = value;
        }
        writer.perfHistogram(exec_name, sets, rec.tool, rec.metric, hist->bin_width,
                             rec.units, bins);
      } else {
        writer.perfResult(exec_name, sets, rec.tool, rec.metric, rec.value, rec.units,
                          rec.start_time, rec.end_time);
      }
      ++stats.perf_results;
    }
  });
}

}  // namespace

ExportStats exportStore(core::PTDataStore& store, Writer& writer) {
  ExportStats stats;
  dbal::Connection& conn = store.connection();
  writer.comment("PTdf export: full store");

  for (const std::string& type : store.resourceTypes()) {
    if (baseTypePaths().contains(type)) continue;
    writer.resourceType(type);
    ++stats.resource_types;
  }

  // Executions (and their applications) before resources so PerfResults can
  // always resolve.
  {
    auto execs = conn.query(
        "SELECT e.name, a.name FROM execution e JOIN application a "
        "ON e.application_id = a.id ORDER BY e.id");
    minidb::sql::RowBatch batch;
    while (execs.fetchBatch(batch)) {
      for (const std::uint32_t i : batch.sel) {
        writer.application(batch.cols[1][i].asText());
        writer.execution(batch.cols[0][i].asText(), batch.cols[1][i].asText());
        ++stats.executions;
      }
    }
  }

  // Resources in id order: parents were created before children, so a
  // straight replay always finds ancestors in place. Two streaming passes
  // over the resource table instead of one materialized list.
  const std::string by_id = "SELECT r.id FROM resource_item r ORDER BY r.id";
  forEachResourceBatch(store, by_id, [&](const std::vector<core::ResourceInfo>& infos) {
    emitResources(store, writer, infos, stats);
  });
  forEachResourceBatch(store, by_id, [&](const std::vector<core::ResourceInfo>& infos) {
    emitConstraints(store, writer, infos, stats);
  });

  for (const std::string& exec : store.executions()) {
    emitResults(store, exec, writer, stats);
  }
  return stats;
}

ExportStats exportExecution(core::PTDataStore& store, const std::string& exec_name,
                            Writer& writer) {
  ExportStats stats;
  writer.comment("PTdf export: execution " + exec_name);

  // Collect the resource closure the execution's results reference:
  // context members plus all their ancestors (so paths re-create cleanly).
  std::optional<std::string> app;  // of the execution, once it has a result
  std::vector<core::ResourceId> needed;
  store.forEachResult(store.resultsForExecution(exec_name),
                      [&](const core::PerfResultRecord& rec) {
                        app = rec.application;
                        for (const auto& context : rec.contexts) {
                          needed.insert(needed.end(), context.begin(), context.end());
                        }
                      });
  core::sortUnique(needed);
  std::vector<core::ResourceId> ancestors;
  core::forEachRowInChunks(store.connection(),
                           "SELECT a.ancestor_id FROM resource_item r "
                           "JOIN resource_has_ancestor a ON a.resource_id = r.id "
                           "WHERE r.id",
                           needed, [&](minidb::Row& row) {
                             ancestors.push_back(row[0].asInt());
                           });
  needed.insert(needed.end(), ancestors.begin(), ancestors.end());
  core::sortUnique(needed);
  // Parents first (ids ascend along every path).
  const std::vector<core::ResourceInfo> infos = store.resourceInfos(needed);

  // Non-base types used by the closure.
  std::set<std::string> types;
  for (const core::ResourceInfo& info : infos) types.insert(info.type_path);
  for (const std::string& type : types) {
    if (baseTypePaths().contains(type)) continue;
    writer.resourceType(type);
    ++stats.resource_types;
  }

  if (app) {
    writer.application(*app);
    writer.execution(exec_name, *app);
    ++stats.executions;
  }
  emitResources(store, writer, infos, stats);
  emitResults(store, exec_name, writer, stats);
  return stats;
}

}  // namespace perftrack::ptdf
