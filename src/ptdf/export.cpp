#include "ptdf/export.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

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

/// Emits one resource with its string attributes. Resource-typed attributes
/// are skipped here; they re-emerge from the constraint table.
void emitResource(core::PTDataStore& store, Writer& writer,
                  const core::ResourceInfo& info, ExportStats& stats) {
  writer.resource(info.full_name, info.type_path);
  ++stats.resources;
  for (const core::AttributeInfo& attr : store.attributesOf(info.id)) {
    if (attr.attr_type == "resource") continue;
    writer.resourceAttribute(info.full_name, attr.name, attr.value, attr.attr_type);
    ++stats.attributes;
  }
}

void emitConstraints(core::PTDataStore& store, Writer& writer,
                     const core::ResourceInfo& info, ExportStats& stats) {
  const auto others = store.resourceInfos(store.constraintsOf(info.id));
  for (const core::ResourceInfo& other : others) {
    writer.resourceConstraint(info.full_name, other.full_name);
    ++stats.constraints;
  }
}

/// Streams `sql` (a query of resource ids) and calls `emit` with the info of
/// each id, fetched one batch at a time so the exporter's footprint stays
/// flat in the store size (BENCH_cursor.json measures this).
template <typename Emit>
void forEachResource(core::PTDataStore& store, const std::string& sql, Emit&& emit) {
  auto resources = store.connection().query(sql);
  minidb::sql::RowBatch batch;
  while (resources.fetchBatch(batch)) {
    std::vector<core::ResourceId> ids;
    ids.reserve(batch.sel.size());
    for (const std::uint32_t i : batch.sel) ids.push_back(batch.cols[0][i].asInt());
    for (const core::ResourceInfo& info : store.resourceInfos(ids)) emit(info);
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
  forEachResource(store, by_id, [&](const core::ResourceInfo& info) {
    emitResource(store, writer, info, stats);
  });
  forEachResource(store, by_id, [&](const core::ResourceInfo& info) {
    emitConstraints(store, writer, info, stats);
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
  for (const core::ResourceInfo& info : infos) emitResource(store, writer, info, stats);
  emitResults(store, exec_name, writer, stats);
  return stats;
}

}  // namespace perftrack::ptdf
