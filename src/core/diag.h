// Comparison-based diagnosis engine (the paper's §6 "comparison operators",
// grown into a first-class workload).
//
// diagnose() answers "why did execution A perform differently than execution
// B?" from nothing but the store: it aligns the two executions' performance
// results over *comparable contexts* (resource full names with the per-run
// segment canonicalized to $EXEC, sorted and joined — the same rule
// analyze::compareExecutions uses), computes per-(metric, context) divergence
// under configurable ratio/absolute thresholds, and ranks the divergent pairs
// by their contribution to the metric's total absolute delta — PerfXplain-
// style ranked explanations instead of a raw ratio dump.
//
// The engine lives below dbal and server (it operates on a
// minidb::sql::Engine directly), so the same code path backs the local
// dbal::Connection::diff(), the server's DIFF wire verb, and the CLIs. Its
// alignment is set-oriented (DESIGN.md §5.10): per side, one results scan
// on pr_by_exec, one focus-driven link join (focus_by_exec, then
// prhf_by_focus), one focus-resource join (fhr_by_focus); then one
// resource-name and one metric-name lookup for both sides. The lookups are
// padded, prepared IN-lists (core/in_list.h) on the primary keys, which
// EXPLAIN shows as B-tree multi-point probes (`resource_item__pk (id IN
// multi-point probe)`), not posting lists. Contexts are built once per
// distinct focus set and interned, and the sides align on integer keys.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "minidb/sql/executor.h"

namespace perftrack::core::diag {

/// One diff request. Thresholds classify a matched pair as divergent when
/// |ratio - 1| > ratio_threshold (or the baseline is zero and the values
/// differ) AND |delta| >= abs_threshold.
struct Request {
  std::string exec_a;  // baseline
  std::string exec_b;  // candidate
  std::uint32_t top_k = 0;        // 0 = return every divergent pair
  double ratio_threshold = 0.10;  // 10% change
  double abs_threshold = 0.0;     // absolute |delta| floor
};

/// One ranked divergent (metric, context) pair.
struct Row {
  std::string metric;
  std::string context;  // canonical comparable-context key
  double value_a = 0.0;
  double value_b = 0.0;
  bool has_ratio = false;  // false when value_a == 0 (ratio guard)
  double ratio = 0.0;      // value_b / value_a when has_ratio
  /// |delta| as a percentage of the metric's total |delta| over all aligned
  /// pairs — the PerfXplain-style "how much of the change is this pair".
  double contribution_pct = 0.0;

  double delta() const { return value_b - value_a; }
};

/// Alignment statistics (the EXPLAIN-style half of the report).
struct Stats {
  std::uint64_t results_a = 0;      // raw performance results of A
  std::uint64_t results_b = 0;
  std::uint64_t aligned = 0;        // (metric, context) pairs on both sides
  std::uint64_t only_a = 0;         // pairs with no counterpart in B
  std::uint64_t only_b = 0;
  std::uint64_t divergent = 0;      // pairs past the thresholds (pre top-K)
  std::uint64_t zero_baseline = 0;  // aligned pairs where value_a == 0
  std::uint64_t diff_us = 0;        // wall time of the diagnosis
};

struct Report {
  Request request;
  Stats stats;
  std::vector<Row> rows;  // ranked, top-K applied

  /// Column names of toRows(), shared with the DIFF wire verb.
  static const std::vector<std::string>& columns();
  /// The ranked rows as result-set rows: rank (1-based INTEGER), metric,
  /// context, value_a, value_b, delta, ratio (NULL under the zero-baseline
  /// guard), contribution_pct.
  std::vector<minidb::Row> toRows() const;

  /// Human-readable report: alignment stats then the ranked table.
  /// Deliberately excludes diff_us so local and remote runs over the same
  /// store render byte-identically (timing goes to the pt_diag_* metrics).
  std::string toText() const;
};

/// $EXEC canonicalization of one resource full name: when the leading path
/// segment embeds the execution name (e.g. /irs-np8/p0, /build-irs-np8),
/// that substring becomes "$EXEC", keeping any collector prefix. Shared with
/// analyze::comparableContext so both layers align contexts identically.
std::string canonicalResourceName(const std::string& execution,
                                  std::string full_name);

/// Runs the full diagnosis against the store behind `engine`. Throws
/// util::ModelError when either execution does not exist. Callers are
/// responsible for gating/snapshotting the underlying database exactly as
/// for any SELECT (the engine only reads).
Report diagnose(minidb::sql::Engine& engine, const Request& request);

}  // namespace perftrack::core::diag
