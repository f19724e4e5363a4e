// Span tracing for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own files only: around each
// QuerySession/ResultTable call, Connection::diff, ptdf::loadFile and commit
// (see script.cpp and main.cpp), and around every call into dbal, through the
// forwarding TracingConnection below. Each span carries a name, start, end,
// parent and request id. The first kMaxStoredSpans spans are kept in memory
// and written out when the run ends; self time and the per-operation
// roll-ups are accumulated as spans close, so they cover every span.
//
// An *operation* is one client step the end-to-end metrics time (a live
// count, a table retrieval, a DIFF, a PTdf file load). OpScope opens one;
// while it is open, the dbal spans, statement counts and obs::Registry
// counter deltas are charged to it. Every workload runs one client thread,
// and spans and operations are recorded on that thread only.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dbal/connection.h"

namespace perftrack::server {
struct ServerCounters;
}

namespace perfbench {

/// The in-process server whose counters (frames served, BUSY rejections)
/// the snapshots read; null when the workload runs no server. The caller
/// clears it before the server is destroyed.
void setServerCounters(const perftrack::server::ServerCounters* counters);
const perftrack::server::ServerCounters* serverCounters();

enum class OpKind { Count, Table, Diff, Load };
inline constexpr std::size_t kOpKinds = 4;
const char* opKindName(OpKind kind);

/// Counters read around each operation: obs::Registry counters, plus the
/// server's frame count (exposed as pt_server_frames_served_total).
struct CounterSnapshot {
  std::uint64_t frames = 0;         // pt_server_frames_served_total
  std::uint64_t sql_queries = 0;    // pt_sql_queries_total
  std::uint64_t rows_streamed = 0;  // pt_sql_rows_streamed_total
  std::uint64_t page_reads = 0;     // pt_pager_page_reads_total
  std::uint64_t invidx_probes = 0;  // pt_invidx_probes_total
  static CounterSnapshot take();
  CounterSnapshot operator-(const CounterSnapshot& o) const;
  CounterSnapshot& operator+=(const CounterSnapshot& o);
};

/// Sums over every closed operation of one kind.
struct OpTotals {
  std::uint64_t ops = 0;
  double ms = 0.0;       // operation wall time
  double dbal_ms = 0.0;  // time inside dbal calls made by the operation
  std::uint64_t statements = 0;   // dbal exec/execPrepared/query/diff calls
  std::uint64_t fetch_calls = 0;  // dbal cursor next/fetchBatch calls
  std::uint64_t results = 0;      // results returned (count, rows) or ingested
  CounterSnapshot counters;
};

/// One dbal statement as issued by the client, kept for the wire-residual
/// replay against a LocalConnection.
struct CapturedStatement {
  enum class Kind { Exec, ExecPrepared, Query };
  Kind kind = Kind::Exec;
  std::string sql;
  std::vector<perftrack::minidb::Value> params;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxStoredSpans = 200000;

  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t id = 0;
    std::int64_t parent = 0;  // 0 = root
    std::uint64_t request = 0;
  };

  /// Tables whose statements are captured for the wire-residual replay.
  explicit Tracer(std::size_t capture_tables) : capture_tables_(capture_tables) {}

  /// The tracer spans and operations report to; null when tracing is off.
  static Tracer* active();
  static void setActive(Tracer* tracer);

  const std::array<OpTotals, kOpKinds>& totals() const { return totals_; }
  std::size_t spansRecorded() const { return static_cast<std::size_t>(next_id_ - 1); }

  /// (result rows, dbal statements) of every traced table retrieval.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>>& tableStatements() const {
    return table_statements_;
  }

  /// Statements of the captured tables, and the dbal time they took.
  const std::vector<CapturedStatement>& captured() const { return captured_; }
  std::size_t capturedTables() const { return captured_tables_; }
  double capturedDbalMs() const { return captured_dbal_ms_; }

  /// Writes the stored spans as tab-separated lines
  /// (request, id, parent, name, start_us, end_us).
  void writeSpans(const std::string& path) const;

 private:
  friend class ScopedSpan;
  friend class OpScope;
  friend void captureStatement(CapturedStatement::Kind, std::string_view,
                               const std::vector<perftrack::minidb::Value>&);

  void store(const Span& span);
  void closeOp(OpKind kind, const OpTotals& op, bool captured);
  bool wantCapture();
  void capture(CapturedStatement statement);

  std::size_t capture_tables_;
  std::int64_t next_id_ = 1;
  std::uint64_t next_request_ = 1;

  std::vector<Span> spans_;
  std::array<OpTotals, kOpKinds> totals_{};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> table_statements_;
  std::vector<CapturedStatement> captured_;
  std::size_t capture_claimed_ = 0;
  std::size_t captured_tables_ = 0;
  double captured_dbal_ms_ = 0.0;
};

/// RAII span; a no-op when no tracer is active.
/// `dbal` marks a call into the dbal layer: its time is charged to the
/// enclosing operation's dbal time, and a statement or fetch is counted.
class ScopedSpan {
 public:
  enum class Dbal { No, Call, Statement, Fetch };
  explicit ScopedSpan(const char* name, Dbal dbal = Dbal::No);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// RAII operation: a root span plus the per-kind
/// roll-up. Always measures wall time (elapsedMs()), whether or not a
/// tracer is active.
class OpScope {
 public:
  explicit OpScope(OpKind kind);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  /// Results returned or ingested by the operation (for per-result ratios).
  void setResults(std::uint64_t n) { results_ = n; }
  /// Wall time since the operation opened.
  double elapsedMs() const;

 private:
  OpKind kind_;
  std::int64_t start_ns_;
  std::uint64_t results_ = 0;
  Tracer* tracer_;
};

/// A dbal::Connection that forwards every call to `inner`, wrapping each in
/// a dbal span. It forwards localDatabase() and database(), so the core
/// fast paths engage exactly as on the inner connection.
class TracingConnection final : public perftrack::dbal::Connection {
 public:
  explicit TracingConnection(perftrack::dbal::Connection& inner) : inner_(&inner) {}

  perftrack::dbal::ResultSet exec(std::string_view sql) override;
  perftrack::dbal::ResultSet execPrepared(
      std::string_view sql, std::vector<perftrack::minidb::Value> params) override;
  perftrack::dbal::Cursor query(std::string_view sql) override;
  perftrack::dbal::Cursor query(std::string_view sql,
                                std::vector<perftrack::minidb::Value> params) override;

  void begin() override;
  void commit() override;
  void rollback() override;
  bool inTransaction() const override { return inner_->inTransaction(); }

  perftrack::core::diag::Report diff(
      const perftrack::core::diag::Request& request) override;

  std::uint64_t sizeBytes() const override;
  const perftrack::minidb::RecoveryStats& recoveryStats() const override {
    return inner_->recoveryStats();
  }
  void setUseIndexes(bool enabled) override { inner_->setUseIndexes(enabled); }
  void setExecThreads(int n) override { inner_->setExecThreads(n); }
  void setExecBatchRows(std::size_t n) override { inner_->setExecBatchRows(n); }
  void setInvidxEnabled(bool enabled) override { inner_->setInvidxEnabled(enabled); }
  bool invidxEnabled() const override { return inner_->invidxEnabled(); }
  std::size_t statementCacheSize() const override {
    return inner_->statementCacheSize();
  }
  const perftrack::dbal::StatementCacheStats& statementCacheStats() const override {
    return inner_->statementCacheStats();
  }
  void setStatementCacheCapacity(std::size_t capacity) override {
    inner_->setStatementCacheCapacity(capacity);
  }
  void clearStatementCache() override { inner_->clearStatementCache(); }
  perftrack::minidb::Database& database() override { return inner_->database(); }
  perftrack::minidb::Database* localDatabase() override {
    return inner_->localDatabase();
  }

 private:
  perftrack::dbal::Connection* inner_;
};

}  // namespace perfbench
