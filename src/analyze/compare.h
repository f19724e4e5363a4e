// PerfTrack analysis: comparison operators across executions.
//
// The paper lists "the addition of a set of comparison operators to
// automate the comparison of different executions and performance results
// in the data store" as in-progress work (§6), building on the
// comparison-based diagnosis line of Karavanic & Miller. We implement that
// extension: results of two executions are matched by *comparable context* —
// the multiset of context resources with execution-specific name prefixes
// canonicalized — and compared metric by metric (difference and ratio).
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/datastore.h"

namespace perftrack::analyze {

/// One matched pair of results.
struct ComparisonRow {
  std::string metric;
  std::string context;  // canonical comparable-context description
  double value_a = 0.0;
  double value_b = 0.0;

  double difference() const { return value_b - value_a; }
  /// b/a; nullopt when a == 0.
  std::optional<double> ratio() const;
};

struct ComparisonReport {
  std::string execution_a;
  std::string execution_b;
  std::vector<ComparisonRow> rows;
  std::size_t unmatched_a = 0;  // results of A with no counterpart in B
  std::size_t unmatched_b = 0;

  /// Rows whose |ratio - 1| exceeds `threshold` (candidate regressions),
  /// sorted by descending |difference|.
  std::vector<ComparisonRow> divergent(double threshold) const;

  std::string toText(std::size_t max_rows = 20) const;
};

/// Canonical key for one result's context: resource full names with any
/// leading segment equal to the execution name (or "<exec>-suffix") replaced
/// by "$EXEC", sorted and joined. Results from different runs of the same
/// code match when their contexts differ only by those per-run prefixes.
/// `infos` must hold every context resource of `record`
/// (core::contextResourceInfos).
std::string comparableContext(
    const core::PerfResultRecord& record,
    const std::unordered_map<core::ResourceId, core::ResourceInfo>& infos);

/// Compares every result of `exec_a` against `exec_b`.
ComparisonReport compareExecutions(core::PTDataStore& store, const std::string& exec_a,
                                   const std::string& exec_b);

}  // namespace perftrack::analyze
