#include "analyze/loadbalance.h"

#include <algorithm>
#include <map>

#include "core/filter.h"
#include "util/strings.h"

namespace perftrack::analyze {

std::vector<LoadBalancePoint> loadBalanceStudy(core::PTDataStore& store,
                                               const std::string& function_resource,
                                               const std::string& metric_base) {
  // pr-filter: one family = the function resource.
  core::PrFilter filter;
  filter.families.push_back(
      core::ResourceFilter::byName(function_resource, core::Expansion::None));
  const auto result_ids = core::queryResults(store, filter);

  std::map<std::string, LoadBalancePoint> by_execution;
  const std::string max_metric = metric_base + " (max)";
  const std::string min_metric = metric_base + " (min)";
  for (const core::PerfResultRecord& rec : store.getResults(result_ids)) {
    if (rec.metric != max_metric && rec.metric != min_metric) continue;
    LoadBalancePoint& point = by_execution[rec.execution];
    point.execution = rec.execution;
    if (rec.metric == max_metric) {
      point.max_value = rec.value;
    } else {
      point.min_value = rec.value;
    }
  }

  std::vector<LoadBalancePoint> points;
  points.reserve(by_execution.size());
  for (auto& [exec, point] : by_execution) {
    // Process count from the execution root's nprocs attribute.
    if (const auto root = store.findResource("/" + exec)) {
      for (const core::AttributeInfo& attr : store.attributesOf(*root)) {
        if (attr.name == "nprocs") {
          point.nprocs = static_cast<int>(util::parseInt(attr.value).value_or(0));
        }
      }
    }
    points.push_back(std::move(point));
  }
  std::sort(points.begin(), points.end(),
            [](const LoadBalancePoint& a, const LoadBalancePoint& b) {
              return a.nprocs < b.nprocs;
            });
  return points;
}

BarChart loadBalanceChart(const std::vector<LoadBalancePoint>& points,
                          const std::string& title, const std::string& units) {
  BarChart chart;
  chart.title = title;
  chart.value_units = units;
  ChartSeries min_series{"min", {}};
  ChartSeries max_series{"max", {}};
  for (const LoadBalancePoint& point : points) {
    chart.categories.push_back("np=" + std::to_string(point.nprocs));
    min_series.values.push_back(point.min_value);
    max_series.values.push_back(point.max_value);
  }
  chart.series.push_back(std::move(min_series));
  chart.series.push_back(std::move(max_series));
  return chart;
}

}  // namespace perftrack::analyze
