#include "script.h"

#include <array>
#include <map>
#include <optional>
#include <sstream>

#include "core/query_session.h"
#include "tracing.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {

using namespace perftrack;
using core::Expansion;
using core::ResourceFilter;

namespace {

// Accepted pr-filter totals: [kMinTotal, kMaxTotal) for a narrowed session,
// at least kMinWhole for one that retrieves a whole IRS execution.
constexpr std::size_t kMinTotal = 8;
constexpr std::size_t kMaxTotal = 128;
constexpr std::size_t kMinWhole = 1000;
constexpr int kAttempts = 64;

/// How one family after the pin is built from a context resource of type
/// `type` (a resource of the sampled result's context).
struct FamilySpec {
  enum class Kind { BaseName, FullName, Type, Attribute };
  Kind kind;
  const char* type;
  Expansion expand;
};

/// One session shape: the application whose execution is pinned, the
/// families added after the pin, and whether the families keep the whole
/// execution. The seed only picks the resources, so every seed runs the
/// same shapes with tables of the same sizes.
struct Slot {
  const char* app;
  std::vector<FamilySpec> families;
  bool whole = false;
};

using K = FamilySpec::Kind;
constexpr Expansion N = Expansion::None, A = Expansion::Ancestors,
                    D = Expansion::Descendants, B = Expansion::Both;

/// One cycle of ten sessions. Two retrieve a whole IRS np=32 execution
/// (about 1,500 results), the size at which per-result fetches dominate the
/// remote path. Six retrieve a whole 72-result SMG2000 PMAPI run through
/// different families; their structure is the same for every seed, so their
/// table times are too. The other two are one SMG2000 mpiP rank and MPI
/// operation, and 16 Paradyn rows with several free columns. Sorted by time,
/// the two whole-IRS tables are the top fifth, so the table p90 falls in the
/// middle of that group, and the PMAPI tables hold 60 percent, so the p50
/// falls inside that group too, not on a boundary between groups, where it
/// would jump from seed to seed.
const std::array<Slot, kSessionCycle>& sessionCycle() {
  static const std::array<Slot, kSessionCycle> cycle = {{
      {"irs", {{K::Type, "build/module/function", N}}, true},
      {"smg-pmapi", {{K::FullName, "grid/machine/partition", N}}},
      {"smg-pmapi", {{K::FullName, "grid/machine/partition", A}}},
      {"paradyn", {{K::Type, "time", N}}},
      {"smg-pmapi", {{K::FullName, "execution", D}}},
      {"irs", {{K::FullName, "grid/machine/partition", B}}, true},
      {"smg-pmapi", {{K::FullName, "grid/machine/partition", D}}},
      {"smg-mpip", {{K::FullName, "execution/process", A},
                    {K::BaseName, "environment/module", D}}},
      {"smg-pmapi", {{K::Attribute, "grid/machine/partition", D}}},
      {"smg-pmapi", {{K::FullName, "grid/machine/partition", B}}},
  }};
  return cycle;
}

class ScriptGenerator {
 public:
  ScriptGenerator(core::PTDataStore& store, const std::vector<ExecutionKind>& executions,
                std::uint64_t seed)
      : store_(store), rng_(seed * 0x9e3779b97f4a7c15ULL + 17) {
    for (const ExecutionKind& e : executions) {
      by_app_[e.kind].push_back({e.execution, store_.resultsForExecution(e.execution)});
    }
    for (const Slot& slot : sessionCycle()) {
      if (by_app_[slot.app].empty()) {
        throw util::PTError(std::string("perfbench: no ") + slot.app + " execution");
      }
    }
    // DIFF pairs: each execution of the heavy applications against its
    // neighbour in load order, both ways. With four IRS and two mpiP runs
    // that is one pair per session of a cycle, so every cycle runs the same
    // DIFF mix.
    for (const char* app : {"irs", "smg-mpip"}) {
      const auto& execs = by_app_[app];
      const std::size_t n = execs.size();
      for (std::size_t k = 0; n > 1 && k < n; ++k) {
        const std::string& a = execs[k].name;
        const std::string& b = execs[(k + 1) % n].name;
        diff_pairs_.push_back({a, b});
        if (n > 2) diff_pairs_.push_back({b, a});
      }
    }
    if (diff_pairs_.size() != kSessionCycle) {
      throw util::PTError("perfbench: expected one DIFF pair per session shape");
    }
  }

  Session build(std::size_t i) {
    const Slot& slot = sessionCycle()[i % kSessionCycle];
    const auto& execs = by_app_[slot.app];
    const Execution& exec = execs[(i / kSessionCycle) % execs.size()];
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      std::optional<Session> s = sample(exec, slot);
      if (!s) continue;
      core::QuerySession qs(store_);
      for (const auto& f : s->families) qs.addFamily(f);
      const std::size_t total = qs.totalMatchCount();
      if (slot.whole ? total >= kMinWhole : total >= kMinTotal && total < kMaxTotal) {
        const auto& pair = diff_pairs_[i % kSessionCycle];
        s->diff.exec_a = pair.first;
        s->diff.exec_b = pair.second;
        s->diff.top_k = 10;
        return std::move(*s);
      }
    }
    throw util::PTError("perfbench: no session of shape " + std::to_string(i % kSessionCycle) +
                        " on " + exec.name);
  }

 private:
  struct Execution {
    std::string name;
    std::vector<std::int64_t> result_ids;
  };

  /// Pins `exec` and builds the slot's families from the context of one
  /// random result; nullopt when that context lacks a resource type the
  /// slot needs.
  std::optional<Session> sample(const Execution& exec, const Slot& slot) {
    Session s;
    s.families.push_back(ResourceFilter::byName("/" + exec.name, Expansion::Descendants));
    const auto id = exec.result_ids[rng_.next() % exec.result_ids.size()];
    const core::PerfResultRecord rec = store_.getResult(id);
    const auto& context = rec.contexts[rng_.next() % rec.contexts.size()];
    for (const FamilySpec& spec : slot.families) {
      std::optional<core::ResourceInfo> info;
      for (core::ResourceId rid : context) {
        core::ResourceInfo candidate = store_.resourceInfo(rid);
        if (candidate.type_path == spec.type) info = std::move(candidate);
      }
      if (!info) return std::nullopt;
      std::optional<ResourceFilter> family = familyFor(*info, spec);
      if (!family) return std::nullopt;
      s.families.push_back(std::move(*family));
    }
    return s;
  }

  std::optional<ResourceFilter> familyFor(const core::ResourceInfo& info,
                                          const FamilySpec& spec) {
    switch (spec.kind) {
      case K::BaseName: return ResourceFilter::byName(info.name, spec.expand);
      case K::FullName: return ResourceFilter::byName(info.full_name, spec.expand);
      case K::Type: return ResourceFilter::byType(info.type_path, spec.expand);
      case K::Attribute: break;
    }
    // An attribute of the resource or of its nearest ancestor that has one.
    std::vector<core::ResourceId> chain = {info.id};
    const auto ancestors = store_.ancestorsOf(info.id);
    chain.insert(chain.end(), ancestors.rbegin(), ancestors.rend());
    for (core::ResourceId owner : chain) {
      const auto attrs = store_.attributesOf(owner);
      if (attrs.empty()) continue;
      const core::AttributeInfo& a = attrs[rng_.next() % attrs.size()];
      std::string comparator = "=";
      if (util::parseReal(a.value)) comparator = rng_.chance(0.5) ? ">=" : "<=";
      return ResourceFilter::byAttributes({{a.name, comparator, a.value}}, "", spec.expand);
    }
    return std::nullopt;
  }

  core::PTDataStore& store_;
  util::Rng rng_;
  std::map<std::string, std::vector<Execution>> by_app_;
  std::vector<std::pair<std::string, std::string>> diff_pairs_;
};

void check(Outcome outcome, bool agrees, ClientLog& log, const std::string& what) {
  if (outcome == Outcome::Ok && !agrees) {
    ++log.mismatches;
    log.fail("oracle mismatch: " + what);
  }
}

}  // namespace

std::string Session::describe() const {
  std::string out;
  for (const auto& f : families) out += (out.empty() ? "" : " & ") + f.describe();
  return out + " | diff " + diff.exec_a + " " + diff.exec_b;
}

std::vector<Session> makeScript(core::PTDataStore& store,
                                const std::vector<ExecutionKind>& executions,
                                std::uint64_t seed, std::size_t n) {
  ScriptGenerator generator(store, executions, seed);
  std::vector<Session> script;
  script.reserve(n);
  for (std::size_t i = 0; i < n; ++i) script.push_back(generator.build(i));
  return script;
}

void ClientLog::fail(const std::string& what) {
  if (first_error.empty()) first_error = what;
}

Answers runSession(const Session& session, core::PTDataStore& store,
                   const Answers* expected, ClientLog& log, bool run_diff) {
  Answers got;
  core::QuerySession qs(store);
  for (std::size_t k = 0; k < session.families.size(); ++k) {
    const std::size_t index = qs.addFamily(session.families[k]);
    std::size_t n = 0;
    const Outcome outcome = timedOp(OpKind::Count, log.count_ms, log, [&] {
      ScopedSpan span("qs.familyMatchCount");
      n = qs.familyMatchCount(index);
      return n;
    });
    got.family_counts.push_back(n);
    if (expected) {
      check(outcome, expected->family_counts.at(k) == n, log,
            "family count of " + session.families[k].describe());
    }
  }

  const Outcome total = timedOp(OpKind::Count, log.count_ms, log, [&] {
    ScopedSpan span("qs.totalMatchCount");
    got.total = qs.totalMatchCount();
    return got.total;
  });
  if (expected) check(total, expected->total == got.total, log, "total count");

  std::optional<core::ResultTable> result;
  const Outcome table = timedOp(OpKind::Table, log.table_ms, log, [&] {
    {
      ScopedSpan span("qs.run");
      result.emplace(qs.run());
    }
    std::vector<std::string> free;
    {
      ScopedSpan span("table.freeResourceTypes");
      free = result->freeResourceTypes();
    }
    for (const std::string& type : free) {
      ScopedSpan span("table.addColumn");
      result->addColumn(type);
    }
    return result->size();
  });
  std::ostringstream csv;
  if (result) result->toCsv(csv);
  got.table_csv = csv.str();
  if (expected) {
    check(table, expected->table_csv == got.table_csv, log,
          "table of " + session.describe());
  }

  if (!run_diff) return got;
  std::optional<core::diag::Report> report;
  const Outcome diff = timedOp(OpKind::Diff, log.diff_ms, log, [&] {
    report.emplace(store.connection().diff(session.diff));
    return report->rows.size();
  });
  if (report) got.diff_text = report->toText();
  if (expected) {
    check(diff, expected->diff_text == got.diff_text, log,
          "diff " + session.diff.exec_a + " " + session.diff.exec_b);
  }
  return got;
}

}  // namespace perfbench
