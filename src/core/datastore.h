// PerfTrack core: PTDataStore — the paper's data-store interface (§3.3).
//
// This class is the C++ analogue of the prototype's Python PTdataStore: the
// single entry point for initializing a store, extending the type system,
// defining resources/attributes/constraints, recording performance results
// (with one or more contexts), and looking everything back up. All state
// lives in the relational schema of dbal/schema.h; PTDataStore keeps only a
// name->id cache for load speed (invalidated by clearCache()).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dbal/connection.h"

namespace perftrack::core {

using ResourceId = std::int64_t;

/// Everything known about one resource row.
struct ResourceInfo {
  ResourceId id = 0;
  std::string name;       // base name (last path segment)
  std::string full_name;  // unique full path
  ResourceId parent_id = 0;  // 0 = top level
  std::string type_path;  // e.g. grid/machine/partition
};

/// One resource attribute.
struct AttributeInfo {
  std::string name;
  std::string value;
  std::string attr_type;  // "string" or "resource"
};

/// Focus (context) membership role, paper §3.1.
enum class FocusType { Primary, Parent, Child, Sender, Receiver };

std::string_view focusTypeName(FocusType type);
FocusType focusTypeFromName(std::string_view name);

/// One resource set of a performance-result context.
struct ResourceSetSpec {
  std::vector<std::string> resource_names;  // full resource names
  FocusType set_type = FocusType::Primary;
};

/// One retrieved performance result with its context(s).
struct PerfResultRecord {
  std::int64_t id = 0;
  std::string execution;
  std::string application;
  std::string metric;
  std::string tool;
  double value = 0.0;
  std::string units;
  double start_time = -1.0;
  double end_time = -1.0;
  std::vector<std::vector<ResourceId>> contexts;  // one vector per focus
  std::vector<FocusType> context_types;           // set type of each context
};

/// Aggregate store statistics (drives the Table 1 reproduction).
struct StoreStats {
  std::int64_t resource_types = 0;
  std::int64_t resources = 0;
  std::int64_t attributes = 0;
  std::int64_t metrics = 0;
  std::int64_t executions = 0;
  std::int64_t performance_results = 0;
  std::int64_t foci = 0;
  std::uint64_t size_bytes = 0;
};

class PTDataStore {
 public:
  /// Binds to an open connection. Call initialize() on a fresh store.
  explicit PTDataStore(dbal::Connection& conn) : conn_(&conn) {}

  /// Creates the schema (idempotent) and loads the base resource types of
  /// Figure 2 through the type extension interface.
  void initialize();

  dbal::Connection& connection() { return *conn_; }

  // --- type extension interface (paper §2.1) -------------------------------
  /// Registers a type path, creating any missing ancestors. Returns the id
  /// of the leaf type. Registering an existing path is a no-op.
  std::int64_t addResourceType(const std::string& type_path);
  bool hasResourceType(const std::string& type_path);
  /// All registered type paths, sorted.
  std::vector<std::string> resourceTypes();
  /// Direct child type paths of `type_path` ("" = the roots).
  std::vector<std::string> childTypes(const std::string& type_path);

  // --- definitions ----------------------------------------------------------
  std::int64_t addApplication(const std::string& name);
  std::int64_t addExecution(const std::string& exec_name, const std::string& app_name);
  std::int64_t addPerformanceTool(const std::string& name);
  std::int64_t addMetric(const std::string& name, const std::string& units = "");

  /// Adds a resource with the given full name and type path. Missing
  /// ancestor resources are created automatically with type-path prefixes.
  /// The resource name depth must not exceed the type path depth. Re-adding
  /// an existing resource returns its id. Closure tables are maintained.
  ResourceId addResource(const std::string& full_name, const std::string& type_path);

  void addResourceAttribute(const std::string& resource_full_name,
                            const std::string& attr_name, const std::string& value,
                            const std::string& attr_type = "string");

  /// Records that resource2 is an attribute of resource1 (paper §2.1:
  /// attributes that are themselves resources).
  void addResourceConstraint(const std::string& resource1_full_name,
                             const std::string& resource2_full_name);

  /// Records a performance result with one or more contexts (§4.2 allows
  /// multiple resource sets per result). Returns the result id.
  std::int64_t addPerformanceResult(const std::string& exec_name,
                                    const std::vector<ResourceSetSpec>& resource_sets,
                                    const std::string& tool_name,
                                    const std::string& metric_name, double value,
                                    const std::string& units = "",
                                    double start_time = -1.0, double end_time = -1.0);

  /// Records a histogram-valued ("complex", §6 future work) result: ONE
  /// performance result carrying every bin of a time-series measurement,
  /// instead of one result per bin. Missing bins (instrumentation not yet
  /// inserted; 'nan' in Paradyn exports) are passed as NaN and not stored.
  /// The scalar `value` of the result is the sum over recorded bins.
  std::int64_t addHistogramResult(const std::string& exec_name,
                                  const std::vector<ResourceSetSpec>& resource_sets,
                                  const std::string& tool_name,
                                  const std::string& metric_name,
                                  const std::vector<double>& bins, double bin_width,
                                  const std::string& units = "");

  /// A retrieved histogram: recorded (bin index, value) pairs plus geometry.
  struct Histogram {
    int num_bins = 0;
    double bin_width = 0.0;
    std::vector<std::pair<int, double>> bins;  // sorted by bin index
  };

  /// One-element getHistograms().
  std::optional<Histogram> getHistogram(std::int64_t result_id);
  /// The histogram attached to each of `result_ids`, in their order, or
  /// nullopt for plain scalar (or unknown) results. One statement per chunk
  /// of up to 200 distinct ids, plus one per chunk of histogram results.
  std::vector<std::optional<Histogram>> getHistograms(
      const std::vector<std::int64_t>& result_ids);

  // --- lookups ---------------------------------------------------------------
  std::optional<ResourceId> findResource(const std::string& full_name);
  /// One-element resourceInfos().
  ResourceInfo resourceInfo(ResourceId id);
  /// The rows of `ids`, in the order of `ids` (duplicates repeat). One
  /// statement per chunk of up to 200 distinct ids; throws ModelError naming
  /// the smallest id that has no resource.
  std::vector<ResourceInfo> resourceInfos(const std::vector<ResourceId>& ids);
  std::vector<ResourceInfo> resourcesOfType(const std::string& type_path);
  /// Resources with the given base name (the paper's "batch on any machine"
  /// shorthand).
  std::vector<ResourceInfo> resourcesNamed(const std::string& base_name);
  std::vector<ResourceInfo> childrenOf(ResourceId id);
  std::vector<ResourceInfo> topLevelOfType(const std::string& root_type);
  std::vector<AttributeInfo> attributesOf(ResourceId id);
  std::vector<ResourceId> ancestorsOf(ResourceId id);
  std::vector<ResourceId> descendantsOf(ResourceId id);
  /// Resources recorded as resource-valued attributes of `id`.
  std::vector<ResourceId> constraintsOf(ResourceId id);

  std::vector<std::string> executions();
  std::vector<std::string> metrics();
  /// One-element getResults().
  PerfResultRecord getResult(std::int64_t result_id);
  /// The records of `ids`, in the order of `ids` (duplicates repeat), each
  /// with its contexts in focus-link order and members in membership order.
  /// Set-oriented: two statements per chunk of up to 200 distinct results
  /// plus one per chunk of up to 200 distinct foci, never a statement per
  /// record. Throws ModelError naming the smallest id that has no result.
  std::vector<PerfResultRecord> getResults(const std::vector<std::int64_t>& ids);
  /// getResults() for strictly ascending `ids`, handing each record to `fn`
  /// in id order as its 200-id chunk arrives instead of holding them all.
  void forEachResult(std::span<const std::int64_t> ids,
                     const std::function<void(PerfResultRecord&)>& fn);
  /// All result ids for an execution.
  std::vector<std::int64_t> resultsForExecution(const std::string& exec_name);

  StoreStats stats();

  /// Removes an execution and everything owned by it: its performance
  /// results (with focus links, histogram rows, and foci), the execution
  /// record, and — when `with_resources` — the per-execution resource
  /// subtrees created by the collectors and converters (roots "/<exec>",
  /// "/build-<exec>", "/env-<exec>", "/<exec>-time", "/submission-<exec>",
  /// "/syncObjects-<exec>"), including their attributes, constraints, and
  /// closure rows. Shared resources (machines, build functions) are kept.
  /// Call VACUUM afterwards to reclaim the pages. Throws when unknown.
  void deleteExecution(const std::string& exec_name, bool with_resources = true);

  /// Drops the name->id caches (required after rollback or external writes).
  void clearCache();

 private:
  /// SELECT-by-name then INSERT on miss, both through bound parameters;
  /// `extra_cols` is the literal ", col, ..." tail of the column list and
  /// `extra_vals` its values, bound after `name`.
  std::int64_t lookupOrInsertNamed(const std::string& table, const std::string& name,
                                   const std::string& extra_cols = "",
                                   std::vector<minidb::Value> extra_vals = {});
  std::int64_t typeIdFor(const std::string& type_path);
  std::int64_t focusFor(std::int64_t execution_id, const ResourceSetSpec& spec);

  dbal::Connection* conn_;
  std::unordered_map<std::string, ResourceId> resource_cache_;
  std::unordered_map<std::string, std::int64_t> type_cache_;
  std::unordered_map<std::string, std::int64_t> metric_cache_;
  std::unordered_map<std::string, std::int64_t> tool_cache_;
  std::unordered_map<std::string, std::int64_t> exec_cache_;
  std::unordered_map<std::string, std::int64_t> app_cache_;
  std::unordered_map<std::string, std::int64_t> focus_cache_;  // keyed by exec:signature
};

/// Info of every resource in the contexts of `records`, keyed by id, from
/// one resourceInfos() call.
std::unordered_map<ResourceId, ResourceInfo> contextResourceInfos(
    PTDataStore& store, const std::vector<PerfResultRecord>& records);

}  // namespace perftrack::core
