#include "analyze/predict.h"

#include "util/error.h"
#include "util/strings.h"

namespace perftrack::analyze {

namespace {

bool isTimeMetric(const std::string& metric) {
  const std::string lower = util::toLower(metric);
  return lower.find("time") != std::string::npos;
}

int nprocsOf(core::PTDataStore& store, const std::string& exec) {
  const auto root = store.findResource("/" + exec);
  if (!root) throw util::ModelError("prediction: execution root /" + exec + " not found");
  for (const auto& attr : store.attributesOf(*root)) {
    if (attr.name == "nprocs") {
      const auto n = util::parseInt(attr.value);
      if (n && *n > 0) return static_cast<int>(*n);
    }
  }
  throw util::ModelError("prediction: /" + exec + " has no usable nprocs attribute");
}

}  // namespace

ScalingModel linearScalingModel() {
  return [](const std::string& metric, double value, int base, int target) {
    if (!isTimeMetric(metric)) return value;
    return value * static_cast<double>(base) / static_cast<double>(target);
  };
}

ScalingModel amdahlScalingModel(double serial_fraction) {
  return [serial_fraction](const std::string& metric, double value, int base,
                           int target) {
    if (!isTimeMetric(metric)) return value;
    const double b = static_cast<double>(base);
    const double t = static_cast<double>(target);
    const double base_factor = serial_fraction + (1.0 - serial_fraction) / b;
    const double target_factor = serial_fraction + (1.0 - serial_fraction) / t;
    return value * target_factor / base_factor;
  };
}

std::string predictExecution(core::PTDataStore& store, const std::string& base_exec,
                             int target_nprocs, const ScalingModel& model,
                             const std::string& label) {
  const int base_nprocs = nprocsOf(store, base_exec);
  const auto base_ids = store.resultsForExecution(base_exec);
  if (base_ids.empty()) {
    throw util::ModelError("prediction: execution '" + base_exec + "' has no results");
  }
  const std::string pred_exec = base_exec + "-pred" +
                                (label.empty() ? "" : "-" + label) + "-np" +
                                std::to_string(target_nprocs);
  if (store.findResource("/" + pred_exec)) {
    throw util::ModelError("prediction: execution '" + pred_exec +
                           "' already exists; use a distinct label");
  }
  const auto records = store.getResults(base_ids);
  const auto infos = core::contextResourceInfos(store, records);
  const std::string& app = records.front().application;
  store.addExecution(pred_exec, app);
  store.addResource("/" + pred_exec, "execution");
  store.addResourceAttribute("/" + pred_exec, "nprocs", std::to_string(target_nprocs));
  store.addResourceAttribute("/" + pred_exec, "predicted from", base_exec);

  for (const core::PerfResultRecord& rec : records) {
    // Rebuild each context: per-execution resources (whose top-level name
    // embeds the baseline execution) are re-rooted under the predicted
    // execution; shared resources (build functions, machines, metrics of
    // the grid) are reused as-is.
    std::vector<core::ResourceSetSpec> sets;
    for (const auto& context : rec.contexts) {
      core::ResourceSetSpec spec;
      spec.set_type = core::FocusType::Primary;
      for (core::ResourceId rid : context) {
        const core::ResourceInfo& info = infos.at(rid);
        const auto slash = info.full_name.find('/', 1);
        const std::string head = slash == std::string::npos
                                     ? info.full_name.substr(1)
                                     : info.full_name.substr(1, slash - 1);
        if (head.find(base_exec) != std::string::npos) {
          std::string new_head = head;
          const auto pos = new_head.find(base_exec);
          new_head.replace(pos, base_exec.size(), pred_exec);
          const std::string tail =
              slash == std::string::npos ? "" : info.full_name.substr(slash);
          const std::string new_name = "/" + new_head + tail;
          store.addResource(new_name, info.type_path);
          spec.resource_names.push_back(new_name);
        } else {
          spec.resource_names.push_back(info.full_name);
        }
      }
      sets.push_back(std::move(spec));
    }
    const double predicted = model(rec.metric, rec.value, base_nprocs, target_nprocs);
    store.addPerformanceResult(pred_exec, sets, "PerfTrack-model", rec.metric, predicted,
                               rec.units, rec.start_time, rec.end_time);
  }
  return pred_exec;
}

ComparisonReport predictionError(core::PTDataStore& store, const std::string& base_exec,
                                 const std::string& actual_exec, int target_nprocs,
                                 const ScalingModel& model, const std::string& label) {
  const std::string pred =
      predictExecution(store, base_exec, target_nprocs, model, label);
  return compareExecutions(store, pred, actual_exec);
}

}  // namespace perftrack::analyze
