// Metric reporting: obs::Registry windows, the per-layer metric
// definitions, and the result line.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracing.h"

namespace perfbench {

/// The obs::Registry counters and histogram sums/counts the per-layer
/// metrics read, by name ("<histogram>:sum" / "<histogram>:count"), plus
/// the server's pt_server_busy_rejections_total.
struct RegistrySnapshot {
  std::map<std::string, double> values;
  static RegistrySnapshot take();
  RegistrySnapshot operator-(const RegistrySnapshot& o) const;
  double get(const std::string& name) const;
};

/// An ordered set of named metrics with units.
class Metrics {
 public:
  /// Records a metric. A non-finite value (a ratio with a zero base) is
  /// reported as 0.
  void add(const std::string& name, double value, const std::string& unit);
  /// One "name value unit" line per metric.
  void print() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// What a traced run measured.
struct LayerInputs {
  std::array<OpTotals, kOpKinds> totals{};  // per operation kind, traced phase
  RegistrySnapshot traced;                  // registry delta over the traced phase
  RegistrySnapshot setup;                   // registry delta over the last set-up
  double ops_per_s_plain = 0;
  double ops_per_s_traced = 0;
  double wire_residual_ms_per_table = 0;
};

/// The per-layer metrics, in BENCHMARK.json order.
Metrics layerMetrics(const LayerInputs& in);

}  // namespace perfbench
