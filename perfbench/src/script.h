// The seeded analyst script: sessions of the paper's Fig. 3/4 workflow.
//
// Each session pins one execution with a name family, adds one or two more
// families (type, name or attribute filters with varied N/A/D/B
// expansion), takes the live count after each add, then the total count,
// retrieves the result table with every free-resource column added, and
// DIFFs an execution pair of the same application.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/datastore.h"
#include "core/diag.h"
#include "core/filter.h"
#include "dbal/connection.h"
#include "dbal/remote.h"
#include "hostspeed.h"
#include "tracing.h"

namespace perfbench {

struct Session {
  std::vector<perftrack::core::ResourceFilter> families;
  perftrack::core::diag::Request diff;
  std::string describe() const;
};

/// Every answer a session produces; the oracle compares these.
struct Answers {
  std::vector<std::size_t> family_counts;
  std::size_t total = 0;
  std::string table_csv;
  std::string diff_text;
  bool operator==(const Answers& o) const = default;
};

/// An execution in the store and the application kind its inputs came from
/// (irs, smg-mpip, smg-pmapi, paradyn).
struct ExecutionKind {
  std::string execution;
  std::string kind;
};

/// Session shapes per cycle (see sessionCycle() in script.cpp).
inline constexpr std::size_t kSessionCycle = 10;

/// Builds `n` sessions over `executions`, seeded by `seed`. Session i has
/// shape i % kSessionCycle of a fixed cycle; the seed picks only the
/// resources its families are built from, so every seed yields the same mix
/// of family kinds, expansions and table sizes.
std::vector<Session> makeScript(perftrack::core::PTDataStore& store,
                                const std::vector<ExecutionKind>& executions,
                                std::uint64_t seed, std::size_t n);

/// Per-step latencies and outcomes of one client, in milliseconds at the
/// reference host speed (see hostspeed.h).
struct ClientLog {
  std::vector<double> count_ms;
  std::vector<double> table_ms;
  std::vector<double> diff_ms;
  std::vector<double> load_ms;
  std::uint64_t attempted = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t busy_refusals = 0;  // operations refused with BUSY at least once
  std::uint64_t mismatches = 0;     // oracle disagreements
  std::uint64_t results_ingested = 0;
  double ingest_ms = 0.0;  // time inside load operations
  std::string first_error;

  std::uint64_t failed() const { return exceptions + busy_refusals + mismatches; }
  std::uint64_t completed() const { return attempted - failed(); }
  void fail(const std::string& what);
};

inline constexpr auto kBusyRetryBudget = std::chrono::seconds(10);

enum class Outcome { Ok, Busy, Error };

/// Runs one operation: times it (BUSY retries included), counts it, and
/// records its latency in `latencies`, rescaled to the reference host speed.
template <class Fn>
Outcome timedOp(OpKind kind, std::vector<double>& latencies, ClientLog& log, Fn&& fn) {
  ++log.attempted;
  OpScope op(kind);
  bool busy = false;
  const auto deadline = std::chrono::steady_clock::now() + kBusyRetryBudget;
  for (;;) {
    try {
      op.setResults(fn());
      break;
    } catch (const perftrack::dbal::ServerBusyError& e) {
      busy = true;
      if (std::chrono::steady_clock::now() > deadline) {
        ++log.busy_refusals;
        log.fail(e.what());
        return Outcome::Error;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } catch (const std::exception& e) {
      ++log.exceptions;
      log.fail(std::string(opKindName(kind)) + ": " + e.what());
      return Outcome::Error;
    }
  }
  latencies.push_back(op.elapsedMs() * hostSpeed().scale());
  if (busy) {
    ++log.busy_refusals;
    log.fail(std::string(opKindName(kind)) + ": refused with BUSY");
    return Outcome::Busy;
  }
  return Outcome::Ok;
}

/// Runs one session against `store`. With `expected` set, every answer is
/// compared to it and a disagreement counts as a failed operation. A
/// ServerBusyError is retried (the wait counts toward the latency) and the
/// operation counts as failed. Without `run_diff` the DIFF step is skipped
/// and diff_text stays empty. Returns the answers produced.
Answers runSession(const Session& session, perftrack::core::PTDataStore& store,
                   const Answers* expected, ClientLog& log, bool run_diff = true);

}  // namespace perfbench
