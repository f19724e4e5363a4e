// perfbench: the PerfTrack workflow benchmark (see perfbench/README.md).
//
//   ptbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --workdir <dir>
//
// Sets the workload up kSetups times from the seed (inputs, store, server,
// warm-up) and reports the median set-up time, then runs the closed-loop
// workload for --seconds and checks every answer against the in-process
// oracle. Every time and rate is rescaled to a reference host speed
// measured between the workload's steps (hostspeed.h); wall times of the
// set-ups and phases, and the calibration passes, are printed too. With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced for half the time and traced for the other
// half, and prints the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/datastore.h"
#include "core/integrity.h"
#include "dbal/connection.h"
#include "hostspeed.h"
#include "inputs.h"
#include "metrics.h"
#include "obs/trace.h"
#include "ptdf/ptdf.h"
#include "script.h"
#include "server/server.h"
#include "tracing.h"
#include "util/error.h"
#include "util/timer.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace perftrack;

enum class Workload { AnalystRemote, AnalystLocal, IngestWal };

constexpr std::pair<const char*, Workload> kWorkloads[] = {
    {"analyst-remote", Workload::AnalystRemote},
    {"analyst-local", Workload::AnalystLocal},
    {"ingest-wal", Workload::IngestWal},
};

constexpr int kSetups = 3;                   // set-ups per run; setup_s is their median
constexpr std::size_t kScriptSessions = 10 * kSessionCycle;  // analyst sessions per seed
constexpr std::size_t kMinTableSamples = 100;  // floor for a p90 (untraced runs)
constexpr double kMaxOverrun = 3.0;  // a run may extend to 3x --seconds to reach it
constexpr std::size_t kSessionsPerIngestPass = 2 * kSessionCycle;
constexpr std::size_t kCaptureTables = 40;  // tables replayed for wire.residual
constexpr int kServerWorkers = 4;

struct Args {
  Workload workload = Workload::AnalystLocal;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  fs::path workdir;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if (argc % 2 == 0 || flags.size() != 5) {
    throw util::PTError(
        "usage: ptbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
        "--workdir <dir>");
  }
  args.workload_name = flags["--workload"];
  bool known = false;
  for (const auto& [name, w] : kWorkloads) {
    if (args.workload_name == name) {
      args.workload = w;
      known = true;
    }
  }
  if (!known) throw util::PTError("unknown workload '" + args.workload_name + "'");
  args.seed = std::stoull(flags["--seed"]);
  args.seconds = std::stod(flags["--seconds"]);
  if (!(args.seconds > 0)) throw util::PTError("--seconds must be positive");
  const std::string trace = flags["--trace"];
  if (trace != "0" && trace != "1") throw util::PTError("--trace must be 0 or 1");
  args.trace = trace == "1";
  args.workdir = flags["--workdir"];
  if (args.workdir.empty()) throw util::PTError("--workdir is required");
  return args;
}

minidb::OpenOptions walOptions() {
  minidb::OpenOptions options;
  options.durability = minidb::Durability::Wal;
  return options;
}

/// Store file bytes plus any WAL bytes.
std::uint64_t storeBytes(const std::string& db_path) {
  std::uint64_t bytes = fs::file_size(db_path);
  const std::string wal = db_path + ".wal";
  if (fs::exists(wal)) bytes += fs::file_size(wal);
  return bytes;
}

std::int64_t countResults(dbal::Connection& conn) {
  return conn.queryInt("SELECT COUNT(*) FROM performance_result");
}

/// Loads one PTdf file in its own transaction, as ptdfload does, then checks
/// its LoadStats against the stored counts. A load takes tens of ms, and a
/// set-up's loads well under a second, so the host speed is measured afresh
/// (a whole window of passes) right before each one.
void loadFileChecked(dbal::Connection& conn, core::PTDataStore& store,
                     const PtdfFile& file, ClientLog& log) {
  const std::int64_t results_before = countResults(conn);
  hostSpeed().calibrate(HostSpeed::kWindow);
  ptdf::LoadStats stats;
  const Outcome outcome = timedOp(OpKind::Load, log.load_ms, log, [&] {
    conn.begin();
    try {
      ScopedSpan span("ptdf.loadFile");
      stats = ptdf::loadFile(store, file.path.string());
    } catch (...) {
      conn.rollback();
      store.clearCache();
      throw;
    }
    conn.commit();
    return stats.perf_results;
  });
  if (outcome == Outcome::Error) return;
  const std::size_t loaded = stats.perf_results;
  log.results_ingested += loaded;
  log.ingest_ms += log.load_ms.back();
  const auto stored = static_cast<std::size_t>(countResults(conn) - results_before);
  const bool exec_found =
      file.execution.empty() ||
      conn.queryInt("SELECT COUNT(*) FROM execution WHERE name = ?",
                    {minidb::Value(file.execution)}) == 1;
  if (outcome == Outcome::Ok && (stored != loaded || !exec_found)) {
    ++log.mismatches;
    log.fail("load of " + file.path.filename().string() + " stored " +
             std::to_string(stored) + " results, LoadStats says " +
             std::to_string(loaded));
  }
}

/// Everything one set-up leaves behind for the measured phase.
struct Fixture {
  fs::path dir;
  Inputs inputs;
  std::string db_path;
  std::vector<Session> script;
  std::vector<Answers> oracle;  // in-process answers, one per session
  std::int64_t store_results = 0;
  ClientLog load_log;  // the set-up load of the store
  std::unique_ptr<dbal::Connection> local;  // analyst-local
  std::unique_ptr<minidb::Database> db;     // analyst-remote: the served store
  std::unique_ptr<server::PtServer> server;
  std::string url;

  ~Fixture() {
    if (server) setServerCounters(nullptr);
    server.reset();
    db.reset();
    local.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

std::unique_ptr<Fixture> setUp(const Args& args, const fs::path& dir) {
  auto fx = std::make_unique<Fixture>();
  fx->dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  fx->inputs = generateInputs(args.seed, dir / "inputs");
  fx->db_path = (dir / "store.db").string();

  auto conn = dbal::Connection::open(fx->db_path, walOptions());
  core::PTDataStore store(*conn);
  store.initialize();
  for (const PtdfFile& file : fx->inputs.store_files) {
    loadFileChecked(*conn, store, file, fx->load_log);
  }
  if (fx->load_log.failed() > 0) {
    throw util::PTError("set-up load: " + fx->load_log.first_error);
  }
  fx->store_results = countResults(*conn);

  // The in-process pass over the script is both the warm-up (it builds the
  // inverted indexes) and the oracle every other answer is checked against.
  std::vector<ExecutionKind> executions;
  for (const PtdfFile& file : fx->inputs.store_files) {
    if (!file.execution.empty()) executions.push_back({file.execution, file.kind});
  }
  fx->script = makeScript(store, executions, args.seed, kScriptSessions);
  ClientLog warm;
  std::map<std::pair<std::string, std::string>, std::string> diffs;
  for (const Session& s : fx->script) {
    Answers answers = runSession(s, store, nullptr, warm, /*run_diff=*/false);
    auto [it, fresh] = diffs.try_emplace({s.diff.exec_a, s.diff.exec_b});
    if (fresh) it->second = conn->diff(s.diff).toText();
    answers.diff_text = it->second;
    fx->oracle.push_back(std::move(answers));
    hostSpeed().calibrate();
  }
  if (warm.failed() > 0) throw util::PTError("set-up oracle pass: " + warm.first_error);

  if (args.workload == Workload::AnalystLocal) {
    fx->local = std::move(conn);
  } else {
    conn.reset();
  }
  if (args.workload == Workload::AnalystRemote) {
    fx->db = minidb::Database::open(fx->db_path, walOptions());
    server::ServerConfig config;
    config.workers = kServerWorkers;
    fx->server = std::make_unique<server::PtServer>(*fx->db, config);
    fx->server->start();
    setServerCounters(&fx->server->counters());
    fx->url = "pt://127.0.0.1:" + std::to_string(fx->server->boundPort());
    auto remote = dbal::Connection::open(fx->url);
    core::PTDataStore remote_store(*remote);
    ClientLog warm_remote;
    runSession(fx->script[0], remote_store, &fx->oracle[0], warm_remote);
    if (warm_remote.failed() > 0) {
      throw util::PTError("set-up remote warm-up: " + warm_remote.first_error);
    }
  }
  return fx;
}

/// When a measured phase ends: after its time is up and, where a p90 is
/// reported, once enough tables were sampled (or the overrun cap is hit).
class PhaseClock {
 public:
  PhaseClock(double seconds, std::size_t min_tables)
      : seconds_(seconds), min_tables_(min_tables) {}
  bool over(std::size_t tables) const {
    const double t = timer_.elapsedSeconds();
    return t >= seconds_ && (tables >= min_tables_ || t >= seconds_ * kMaxOverrun);
  }
  double elapsed() const { return timer_.elapsedSeconds(); }

 private:
  util::Timer timer_;
  double seconds_;
  std::size_t min_tables_;
};

struct PhaseResult {
  ClientLog log;
  double seconds = 0;            // wall time
  double reference_seconds = 0;  // at the reference host speed
  std::uint64_t db_bytes = 0;
  std::int64_t db_results = 0;
};

/// A client connection, wrapped in a TracingConnection when the phase is
/// traced.
struct Client {
  std::unique_ptr<dbal::Connection> own;
  std::unique_ptr<TracingConnection> traced;
  dbal::Connection& conn() { return traced ? *traced : *own; }

  Client(std::unique_ptr<dbal::Connection> c, bool trace) : own(std::move(c)) {
    if (trace) traced = std::make_unique<TracingConnection>(*own);
  }
};

/// Loops the script in whole cycles of session shapes, at least one, so
/// every run measures the same mix.
void runAnalyst(Fixture& fx, dbal::Connection& conn, const PhaseClock& clock,
                ClientLog& log) {
  core::PTDataStore store(conn);
  std::size_t k = 0;
  do {
    for (std::size_t j = 0; j < kSessionCycle; ++j, ++k) {
      const std::size_t i = k % fx.script.size();
      runSession(fx.script[i], store, &fx.oracle[i], log);
      hostSpeed().calibrate();
    }
  } while (!clock.over(log.table_ms.size()));
}

PhaseResult runIngest(Fixture& fx, const PhaseClock& clock, bool trace) {
  PhaseResult result;
  for (std::size_t pass = 0; !clock.over(result.log.table_ms.size()); ++pass) {
    const fs::path pass_dir = fx.dir / "ingest-pass";
    fs::remove_all(pass_dir);
    fs::create_directories(pass_dir);
    const std::string db_path = (pass_dir / "store.db").string();
    {
      Client client(dbal::Connection::open(db_path, walOptions()), trace);
      core::PTDataStore store(client.conn());
      store.initialize();
      for (const PtdfFile& file : fx.inputs.store_files) {
        loadFileChecked(client.conn(), store, file, result.log);
      }
      const auto problems = core::verifyStore(store);
      if (!problems.empty()) {
        ++result.log.mismatches;
        result.log.fail("verifyStore: " + problems.front());
      }
      // Checkpointed, the store reads the same way on every pass, however
      // far the autocheckpoint got. The fresh store must answer the script
      // exactly as the reference store built from the same files does.
      client.own->database().checkpoint();
      for (std::size_t j = 0; j < kSessionsPerIngestPass; ++j) {
        const std::size_t i = (pass * kSessionsPerIngestPass + j) % fx.script.size();
        runSession(fx.script[i], store, &fx.oracle[i], result.log);
        hostSpeed().calibrate();
      }
      result.db_results = countResults(client.conn());
      result.db_bytes = storeBytes(db_path);
    }
    fs::remove_all(pass_dir);
  }
  return result;
}

PhaseResult runPhase(Fixture& fx, const Args& args, double seconds, bool trace,
                     std::size_t min_tables) {
  const PhaseClock clock(seconds, min_tables);
  const double reference_start = hostSpeed().referenceSeconds();
  PhaseResult result;
  switch (args.workload) {
    case Workload::AnalystLocal: {
      std::optional<TracingConnection> traced;
      if (trace) traced.emplace(*fx.local);
      runAnalyst(fx, trace ? *traced : *fx.local, clock, result.log);
      break;
    }
    case Workload::AnalystRemote: {
      Client client(dbal::Connection::open(fx.url), trace);
      runAnalyst(fx, client.conn(), clock, result.log);
      break;
    }
    case Workload::IngestWal:
      result = runIngest(fx, clock, trace);
      break;
  }
  result.seconds = clock.elapsed();
  result.reference_seconds = hostSpeed().referenceSeconds() - reference_start;
  return result;
}

/// Stops the server (if any), checkpoints the reference store and returns
/// its file plus WAL bytes.
std::uint64_t checkpointedStoreBytes(Fixture& fx) {
  if (fx.server) {
    setServerCounters(nullptr);
    fx.server.reset();
  }
  minidb::Database& db = fx.db ? *fx.db : fx.local->database();
  db.checkpoint();
  return storeBytes(fx.db_path);
}

/// Replays the captured statements of traced tables against a
/// LocalConnection on the same store file and returns their time in ms. The
/// server must be stopped first: one store file, one Database.
double replayLocally(Fixture& fx, const Tracer& tracer) {
  setServerCounters(nullptr);
  fx.server.reset();
  fx.db.reset();
  auto conn = dbal::LocalConnection::open(fx.db_path, walOptions());
  util::Timer timer;
  for (const CapturedStatement& s : tracer.captured()) {
    switch (s.kind) {
      case CapturedStatement::Kind::Exec:
        conn->exec(s.sql);
        break;
      case CapturedStatement::Kind::ExecPrepared:
        conn->execPrepared(s.sql, s.params);
        break;
      case CapturedStatement::Kind::Query: {
        auto cursor = conn->query(s.sql, s.params);
        minidb::Row row;
        while (cursor.next(row)) row.clear();
        break;
      }
    }
  }
  return timer.elapsedMillis();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

/// Results committed per second of load-step time.
double ingestRate(const ClientLog& log) {
  return static_cast<double>(log.results_ingested) / (log.ingest_ms / 1e3);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// dbal statements per table retrieval, by result-row band: the N+1 fetch
/// pattern shows as statements growing with rows.
void printStatementsByRows(const Tracer& tracer) {
  constexpr std::uint64_t kBands[] = {0, 16, 32, 64, 128, 1024};
  std::printf("dbal statements per table by result rows:");
  for (std::size_t b = 0; b < std::size(kBands); ++b) {
    const std::uint64_t lo = kBands[b];
    const std::uint64_t hi = b + 1 < std::size(kBands) ? kBands[b + 1] : UINT64_MAX;
    std::uint64_t tables = 0, statements = 0;
    for (const auto& [rows, stmts] : tracer.tableStatements()) {
      if (rows >= lo && rows < hi) {
        ++tables;
        statements += stmts;
      }
    }
    if (tables == 0) continue;
    std::printf("  [%llu,%s) %llu tables %.1f stmts", static_cast<unsigned long long>(lo),
                hi == UINT64_MAX ? "inf" : std::to_string(hi).c_str(),
                static_cast<unsigned long long>(tables),
                static_cast<double>(statements) / static_cast<double>(tables));
  }
  std::printf("\n");
}

void printLogSummary(const char* label, const PhaseResult& r) {
  const ClientLog& log = r.log;
  std::printf("%s: %.2fs wall (%.2fs at reference speed), %llu attempted, %llu failed "
              "(exceptions %llu, busy %llu, oracle mismatches %llu), samples count=%zu "
              "table=%zu diff=%zu load=%zu\n",
              label, r.seconds, r.reference_seconds,
              static_cast<unsigned long long>(log.attempted),
              static_cast<unsigned long long>(log.failed()),
              static_cast<unsigned long long>(log.exceptions),
              static_cast<unsigned long long>(log.busy_refusals),
              static_cast<unsigned long long>(log.mismatches), log.count_ms.size(),
              log.table_ms.size(), log.diff_ms.size(), log.load_ms.size());
  if (!log.first_error.empty()) std::printf("  first failure: %s\n", log.first_error.c_str());
}

/// Confines the process, and every thread it starts later, to one CPU (the
/// highest-numbered one it may use). On a shared VM a loopback round trip
/// that wakes a thread on another vCPU stretched 4-8x whenever the host was
/// busy, which made the remote latencies swing by more than their median
/// from run to run; on one CPU a round trip is an in-guest context switch.
/// Returns the CPU.
int pinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw util::PTError("sched_getaffinity failed");
  }
  int cpu = CPU_SETSIZE - 1;
  while (cpu >= 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  if (cpu < 0) throw util::PTError("no CPU to run on");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    throw util::PTError("sched_setaffinity failed");
  }
  return cpu;
}

/// Removes a run's store directory however the run ends.
struct ScratchDir {
  fs::path path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

int run(const Args& args) {
  const int cpu = pinToOneCpu();
  fs::create_directories(args.workdir);
  const ScratchDir scratch{args.workdir / ("run-" + std::to_string(::getpid()))};
  const fs::path& run_dir = scratch.path;
  HostSpeed& speed = hostSpeed();
  speed.calibrate(HostSpeed::kWindow);
  std::vector<double> setup_s;      // at the reference host speed
  std::vector<double> setup_raw_s;  // wall time
  std::vector<double> setup_ingest;  // results/s of each set-up's store load
  std::unique_ptr<Fixture> fx;
  RegistrySnapshot setup_start, setup_end;
  for (int k = 0; k < kSetups; ++k) {
    fx.reset();  // the previous set-up is torn down outside the timed region
    setup_start = RegistrySnapshot::take();
    const double reference_start = speed.referenceSeconds();
    util::Timer timer;
    fx = setUp(args, run_dir / ("setup-" + std::to_string(k)));
    setup_raw_s.push_back(timer.elapsedSeconds());
    setup_s.push_back(speed.referenceSeconds() - reference_start);
    setup_ingest.push_back(ingestRate(fx->load_log));
    setup_end = RegistrySnapshot::take();
  }
  std::printf("workload %s seed %llu on cpu %d: %zu sessions, %lld results "
              "in store, setup %.3f/%.3f/%.3f s wall, %.3f/%.3f/%.3f s rescaled, "
              "loads %.0f/%.0f/%.0f results/s\n",
              args.workload_name.c_str(), static_cast<unsigned long long>(args.seed), cpu,
              fx->script.size(), static_cast<long long>(fx->store_results),
              setup_raw_s[0], setup_raw_s[1], setup_raw_s[2], setup_s[0], setup_s[1],
              setup_s[2], setup_ingest[0], setup_ingest[1], setup_ingest[2]);

  Metrics metrics;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto account = [&](const PhaseResult& r) {
    attempted += r.log.attempted;
    failed += r.log.failed();
    if (r.log.failed() > 0 || r.log.attempted == 0) correct = false;
  };

  if (!args.trace) {
    PhaseResult r = runPhase(*fx, args, args.seconds, false, kMinTableSamples);
    if (args.workload != Workload::IngestWal) {
      r.db_bytes = checkpointedStoreBytes(*fx);
      r.db_results = fx->store_results;
    }
    printLogSummary("measured", r);
    account(r);
    const ClientLog& log = r.log;
    const bool loads = args.workload == Workload::IngestWal;
    metrics.add("setup_s", percentile(setup_s, 0.5), "s");
    metrics.add("count_ms_p50", percentile(log.count_ms, 0.5), "ms");
    metrics.add("count_ms_p90", percentile(log.count_ms, 0.9), "ms");
    metrics.add("table_ms_p50", percentile(log.table_ms, 0.5), "ms");
    metrics.add("table_ms_p90", percentile(log.table_ms, 0.9), "ms");
    metrics.add("diff_ms_p50", percentile(log.diff_ms, 0.5), "ms");
    metrics.add("ops_per_s", static_cast<double>(log.completed()) / r.reference_seconds,
                "ops/s");
    metrics.add("ingest_results_per_s",
                loads ? ingestRate(log) : percentile(setup_ingest, 0.5), "results/s");
    metrics.add("db_bytes_per_result",
                static_cast<double>(r.db_bytes) / static_cast<double>(r.db_results), "B");
    metrics.add("peak_rss_mb", peakRssMb(), "MB");
  } else {
    // On the analyst workloads, one untimed session cycle first (a
    // zero-second phase), so statement-cache and plan warm-up falls on
    // neither half. Every ingest pass starts from a fresh store anyway.
    if (args.workload != Workload::IngestWal) account(runPhase(*fx, args, 0, false, 0));
    const double half = args.seconds / 2;
    const PhaseResult plain = runPhase(*fx, args, half, false, 0);
    printLogSummary("untraced", plain);
    account(plain);
    // The traced phase also turns on the program's own per-query tracing for
    // every statement, so sampled counters (rows streamed) are complete.
    const bool remote = args.workload == Workload::AnalystRemote;
    Tracer tracer(remote ? kCaptureTables : 0);
    Tracer::setActive(&tracer);
    obs::Tracer::global().setAlwaysSample(true);
    const RegistrySnapshot before = RegistrySnapshot::take();
    const PhaseResult traced = runPhase(*fx, args, half, true, 0);
    const RegistrySnapshot after = RegistrySnapshot::take();
    obs::Tracer::global().setAlwaysSample(false);
    Tracer::setActive(nullptr);
    printLogSummary("traced", traced);
    account(traced);

    LayerInputs in;
    in.totals = tracer.totals();
    in.traced = after - before;
    in.setup = setup_end - setup_start;
    in.ops_per_s_plain =
        static_cast<double>(plain.log.completed()) / plain.reference_seconds;
    in.ops_per_s_traced =
        static_cast<double>(traced.log.completed()) / traced.reference_seconds;
    if (remote && tracer.capturedTables() > 0) {
      const double replay_ms = replayLocally(*fx, tracer);
      in.wire_residual_ms_per_table =
          (tracer.capturedDbalMs() - replay_ms) /
          static_cast<double>(tracer.capturedTables());
    }
    metrics = layerMetrics(in);
    printStatementsByRows(tracer);
    const fs::path trace_dir = args.workdir / "traces";
    fs::create_directories(trace_dir);
    const fs::path trace_file =
        trace_dir / (args.workload_name + "-seed" + std::to_string(args.seed) + ".tsv");
    tracer.writeSpans(trace_file.string());
    std::printf("trace: %zu spans (first %zu kept) -> %s\n", tracer.spansRecorded(),
                std::min(tracer.spansRecorded(), Tracer::kMaxStoredSpans),
                trace_file.string().c_str());
  }
  fx.reset();

  std::vector<double> passes = speed.passes();
  std::sort(passes.begin(), passes.end());
  std::printf("host speed: %zu calibration passes, ms min %.4f p10 %.4f median %.4f "
              "p90 %.4f max %.4f (reference %.4f)\n",
              passes.size(), passes.front(), percentile(passes, 0.1),
              percentile(passes, 0.5), percentile(passes, 0.9), passes.back(),
              HostSpeed::kReferencePassMs);
  metrics.print();
  std::printf("%s\n", metrics.json(correct, attempted, failed).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptbench: %s\n", e.what());
    return 1;
  }
}
