// DIFF latency: core::diag::diagnose over two execution pairs of the shapes
// the workflow benchmark DIFFs, in process through the local engine.
//
//   BM_Diff_IrsNp32     two IRS np=32 runs on Frost (~1.5k results each,
//                       one focus per result)
//   BM_Diff_SmgMpipNp32 two SMG2000 np=32 runs on UV with mpiP and PMAPI
//                       data (results carry ~2 foci each)
//
// Each runs at top-K 10 (the analyst's view) and 0 (every divergent pair).
// Counters: `results` (A + B), `statements` per DIFF (pt_sql_queries_total),
// and `divergent` pairs. scripts/bench_smoke.sh runs this as
// BENCH_diag.json, which scripts/perf_gate.sh tracks like every BENCH file.
#include <benchmark/benchmark.h>

#include <fstream>
#include <string>
#include <utility>

#include "bench_util.h"
#include "core/diag.h"
#include "obs/metrics.h"
#include "sim/smg_gen.h"
#include "tools/smg_parser.h"

using namespace perftrack;

namespace {

struct DiffStore {
  bench::Store store;
  std::pair<std::string, std::string> irs;
  std::pair<std::string, std::string> smg;
};

std::string loadSmg(core::PTDataStore& store, const util::TempDir& workspace,
                    std::uint64_t seed) {
  sim::SmgRunSpec spec;
  spec.machine = sim::uvConfig();
  spec.nprocs = 32;
  spec.with_mpip = true;
  spec.with_pmapi = true;
  spec.seed = seed;
  const auto raw = workspace.file("smg-" + std::to_string(seed));
  const sim::GeneratedRun run = sim::generateSmgRun(spec, raw);
  const auto path = workspace.file(run.exec_name + ".ptdf");
  {
    std::ofstream out(path);
    ptdf::Writer writer(out);
    tools::convertSmgRun(raw, spec.machine, writer);
  }
  ptdf::loadFile(store, path.string());
  return run.exec_name;
}

std::string loadIrs(core::PTDataStore& store, const util::TempDir& workspace,
                    std::uint64_t seed) {
  const auto path = bench::makeIrsPtdf(workspace, sim::frostConfig(), 32, seed);
  ptdf::loadFile(store, path.string());
  return path.stem().string();
}

DiffStore& sharedStore() {
  static DiffStore s = [] {
    DiffStore out{bench::Store::openMemory(), {}, {}};
    util::TempDir workspace("bench-diag");
    {
      const auto machines = workspace.file("machines.ptdf");
      std::ofstream file(machines);
      ptdf::Writer writer(file);
      sim::emitMachinePtdf(writer, sim::frostConfig(), 4);
      sim::emitMachinePtdf(writer, sim::uvConfig(), 4);
      file.close();
      ptdf::loadFile(*out.store.store, machines.string());
    }
    core::PTDataStore& store = *out.store.store;
    out.irs = {loadIrs(store, workspace, 1), loadIrs(store, workspace, 2)};
    out.smg = {loadSmg(store, workspace, 101), loadSmg(store, workspace, 102)};
    return out;
  }();
  return s;
}

void runDiff(benchmark::State& state, const std::pair<std::string, std::string>& pair) {
  dbal::Connection& conn = *sharedStore().store.conn;
  core::diag::Request request;
  request.exec_a = pair.first;
  request.exec_b = pair.second;
  request.top_k = static_cast<std::uint32_t>(state.range(0));
  obs::Counter& statements = obs::Registry::global().counter("pt_sql_queries_total");
  core::diag::Report report;
  const std::uint64_t before = statements.value();
  for (auto _ : state) {
    report = conn.diff(request);
    benchmark::DoNotOptimize(report.rows.data());
  }
  const double diffs = static_cast<double>(state.iterations());
  state.counters["statements"] = static_cast<double>(statements.value() - before) / diffs;
  state.counters["results"] =
      static_cast<double>(report.stats.results_a + report.stats.results_b);
  state.counters["divergent"] = static_cast<double>(report.stats.divergent);
}

void BM_Diff_IrsNp32(benchmark::State& state) { runDiff(state, sharedStore().irs); }
BENCHMARK(BM_Diff_IrsNp32)->Arg(10)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_Diff_SmgMpipNp32(benchmark::State& state) { runDiff(state, sharedStore().smg); }
BENCHMARK(BM_Diff_SmgMpipNp32)->Arg(10)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the run can leave a metrics snapshot next
// to its JSON output (PT_METRICS_SNAPSHOT, scripts/bench_smoke.sh).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  obs::writeSnapshotIfRequested();
  return 0;
}
