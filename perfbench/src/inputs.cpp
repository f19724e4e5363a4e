#include "inputs.h"

#include <fstream>

#include "hostspeed.h"
#include "ptdf/ptdf.h"
#include "sim/irs_gen.h"
#include "sim/machines.h"
#include "sim/paradyn_gen.h"
#include "sim/smg_gen.h"
#include "tools/irs_parser.h"
#include "tools/paradyn_parser.h"
#include "tools/smg_parser.h"
#include "util/error.h"

namespace perfbench {

using namespace perftrack;
namespace fs = std::filesystem;

namespace {

// Store shape: several IRS np=32 executions on Frost, SMG2000 runs on UV
// with mpiP and PMAPI data plus small PMAPI-only ones, and one Paradyn
// session on MCR stored as histogram results (one result per metric-focus
// pair).
constexpr int kIrsRuns = 4;
constexpr int kIrsProcs = 32;
constexpr int kSmgRuns = 2;
constexpr int kSmgProcs = 32;
constexpr int kSmgPmapiRuns = 2;
constexpr int kSmgPmapiProcs = 8;
constexpr int kParadynProcs = 8;
constexpr int kParadynCodeResources = 400;
constexpr int kParadynPairs = 25;
constexpr int kParadynBins = 200;

std::ofstream openOut(const fs::path& path) {
  std::ofstream out(path);
  if (!out) throw util::PTError("cannot create " + path.string());
  return out;
}

}  // namespace

Inputs generateInputs(std::uint64_t seed, const fs::path& dir) {
  fs::create_directories(dir);
  Inputs inputs;
  // Per-run seeds are spread so two benchmark seeds never share a run.
  const std::uint64_t base = seed * 1000;

  {
    const fs::path path = dir / "machines.ptdf";
    std::ofstream out = openOut(path);
    ptdf::Writer writer(out);
    sim::emitMachinePtdf(writer, sim::frostConfig(), 4);
    sim::emitMachinePtdf(writer, sim::uvConfig(), 4);
    sim::emitMachinePtdf(writer, sim::mcrConfig(), 4);
    hostSpeed().calibrate();
    inputs.store_files.push_back({path, "", "machines"});
  }

  for (int i = 0; i < kIrsRuns; ++i) {
    const sim::MachineConfig machine = sim::frostConfig();
    sim::IrsRunSpec spec{machine, kIrsProcs, "MPI", base + 1 + i, ""};
    const fs::path raw = dir / ("raw-irs-" + std::to_string(i));
    const sim::GeneratedRun run = sim::generateIrsRun(spec, raw);
    const fs::path path = dir / (run.exec_name + ".ptdf");
    std::ofstream out = openOut(path);
    ptdf::Writer writer(out);
    tools::convertIrsRun(raw, machine, writer);
    hostSpeed().calibrate();
    inputs.store_files.push_back({path, run.exec_name, "irs"});
  }

  for (int i = 0; i < kSmgRuns + kSmgPmapiRuns; ++i) {
    const bool mpip = i < kSmgRuns;
    sim::SmgRunSpec spec;
    spec.machine = sim::uvConfig();
    spec.nprocs = mpip ? kSmgProcs : kSmgPmapiProcs;
    spec.with_mpip = mpip;
    spec.with_pmapi = true;
    spec.seed = base + 101 + i;
    const fs::path raw = dir / ("raw-smg-" + std::to_string(i));
    const sim::GeneratedRun run = sim::generateSmgRun(spec, raw);
    const fs::path path = dir / (run.exec_name + ".ptdf");
    std::ofstream out = openOut(path);
    ptdf::Writer writer(out);
    tools::convertSmgRun(raw, spec.machine, writer);
    hostSpeed().calibrate();
    inputs.store_files.push_back({path, run.exec_name, mpip ? "smg-mpip" : "smg-pmapi"});
  }

  {
    sim::ParadynRunSpec spec;
    spec.machine = sim::mcrConfig();
    spec.nprocs = kParadynProcs;
    spec.seed = base + 201;
    spec.code_resources = kParadynCodeResources;
    spec.metric_focus_pairs = kParadynPairs;
    spec.histogram_bins = kParadynBins;
    const fs::path raw = dir / "raw-paradyn";
    const sim::GeneratedRun run = sim::generateParadynRun(spec, raw);
    const fs::path path = dir / (run.exec_name + ".ptdf");
    std::ofstream out = openOut(path);
    ptdf::Writer writer(out);
    tools::convertParadynRun(raw, run.exec_name, "IRS", writer,
                             tools::BinMode::HistogramResults);
    hostSpeed().calibrate();
    inputs.store_files.push_back({path, run.exec_name, "paradyn"});
  }
  return inputs;
}

}  // namespace perfbench
