// minidb SQL front-end: statement preparation and execution.
//
// The Engine compiles a parsed Statement against a Database and runs it.
// SELECT planning is rule-based, in the spirit of early relational engines:
// tables join in FROM order with nested loops; for each table the planner
// looks for a WHERE/ON conjunct of the form  col <op> <bound expr>  where
// `col` has a B+-tree index and the other side only references earlier
// tables — equality conjuncts become index point scans, IN-lists become
// sorted multi-point probes, inequalities become index range scans,
// otherwise the table is heap-scanned.
//
// Execution is a pull-based Volcano pipeline (see sql/pipeline.h): a SELECT
// can be stepped row by row through a Cursor without materializing the
// result, and exec()/execute() are thin wrappers that drain a cursor into a
// ResultSet. EXPLAIN returns the operator tree, one line per operator.
//
// prepare() compiles a statement once into a PreparedStatement that can be
// bound and executed repeatedly without re-lexing or re-parsing. SELECT
// plans (resolved tables, conjuncts, access paths) are cached inside the
// PreparedStatement and revalidated against Database::schemaEpoch() and the
// engine's use-indexes flag, so DDL or ablation flips trigger a cheap
// replan instead of returning stale plans.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "minidb/database.h"
#include "minidb/sql/ast.h"
#include "minidb/sql/row_batch.h"

namespace perftrack::minidb::sql {

/// Result of executing one statement.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  std::int64_t rows_affected = 0;  // INSERT/UPDATE/DELETE
  std::int64_t last_insert_id = 0; // INSERT into a table with a PK

  bool empty() const { return rows.empty(); }

  /// Renders the result as an aligned text table (for the CLI and examples).
  std::string toText() const;
};

class Engine;
struct SelectPlan;  // cached plan, defined in sql/pipeline.h
struct CursorImpl;  // cursor state, defined in executor.cpp

/// Process default for Engine::execThreads(): PT_EXEC_THREADS when set (>= 1,
/// clamped to the pool ceiling), else std::thread::hardware_concurrency().
/// Resolved once per process.
int defaultExecThreads();

/// Process default for Engine::parallelMinPages(): PT_EXEC_MIN_PAGES when
/// set, else 16. 0 disables the small-table gate entirely.
std::size_t defaultParallelMinPages();

/// Process default for Engine::execBatchRows(): PT_EXEC_BATCH_ROWS when set
/// (clamped to [1, kMaxExecBatchRows]; non-numeric values are ignored), else
/// 1024. Resolved once per process.
std::size_t defaultExecBatchRows();

/// Process default for Engine::invidx(): PT_INVIDX when set ("0"/"off"/
/// "false" disable, anything else enables), else enabled. Resolved once per
/// process.
bool defaultInvidxEnabled();

/// A stepping SELECT cursor: pulls one row at a time through the operator
/// pipeline, so the first row arrives without materializing the result.
///
/// Invariants:
///  - While open (and not EXPLAIN), the cursor holds a Database::CursorPin:
///    DDL, VACUUM, ROLLBACK, and row mutations on the database throw
///    StorageError until the cursor is closed.
///  - The cursor keeps the parsed statement and plan alive (shared), so it
///    survives its PreparedStatement and statement-cache eviction.
///  - next() after exhaustion returns false; close() is idempotent and
///    releases the pin immediately.
class Cursor {
 public:
  Cursor(Cursor&& o) noexcept;
  Cursor& operator=(Cursor&& o) noexcept;
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;
  ~Cursor();

  const std::vector<std::string>& columns() const;

  /// Produces the next row. Returns false (and auto-closes) at end of
  /// stream. The pipeline's one row adapter: it refills an internal batch
  /// (32 rows first, doubling up to execBatchRows()) and hands its rows out
  /// one at a time, so stopping after a few rows scans about 32.
  bool next(Row& row);

  /// Pulls the next batch of rows. `batch.capacity` bounds the refill (0 =
  /// the engine's execBatchRows()); a true return carries at least one live
  /// row in `batch.sel`. Returns false (and auto-closes) at end of stream.
  /// Interleaving with next() is allowed; rows are never duplicated.
  bool fetchBatch(RowBatch& batch);

  /// Releases the pipeline and the database pin early; idempotent.
  void close();

  bool isOpen() const;

 private:
  friend class Engine;
  friend class PreparedStatement;
  explicit Cursor(std::shared_ptr<CursorImpl> impl);

  std::shared_ptr<CursorImpl> impl_;
};

/// A parsed statement plus its parameter bindings and cached SELECT plan.
/// Obtained from Engine::prepare(); re-executable with fresh bindings.
class PreparedStatement {
 public:
  PreparedStatement(PreparedStatement&&) = default;
  PreparedStatement& operator=(PreparedStatement&&) = default;

  /// Number of '?' placeholders in the statement.
  int paramCount() const { return stmt_->param_count; }

  /// Binds one parameter (1-based index, SQLite-style). Throws SqlError when
  /// the index is out of range. NULL is a legal binding.
  void bind(int index, Value v);

  /// Binds every parameter at once; `params.size()` must equal paramCount().
  void bindAll(std::vector<Value> params);

  /// Forgets all bindings (execute() then requires a fresh bindAll/bind).
  void clearBindings();

  /// Executes with the current bindings. Throws SqlError when any parameter
  /// is unbound. Bindings persist across executions until rebound.
  /// SELECTs drain an internal cursor (the materializing wrapper).
  ResultSet execute();

  /// bindAll + execute in one call.
  ResultSet execute(std::vector<Value> params);

  /// Opens a stepping cursor over a SELECT with the current bindings.
  /// Only one cursor may be open per statement at a time (the bindings are
  /// baked into the shared AST); throws SqlError otherwise.
  Cursor openCursor();

  /// Like openCursor(), but every read — planning, the open, and each
  /// next() — resolves through `snapshot`, a pinned committed version from
  /// Database::takeSnapshot(). The cursor owns the snapshot for its open
  /// lifetime; row mutations and rollbacks on the database proceed freely
  /// underneath it (the cursor keeps seeing its frozen version), while DDL
  /// and VACUUM still refuse until it closes.
  Cursor openCursor(Pager::ReadSnapshot snapshot);

  /// True while a cursor opened from this statement is still open.
  bool hasOpenCursor() const;

  const std::string& sql() const { return sql_; }
  Statement::Kind kind() const { return stmt_->kind; }
  const Statement& statement() const { return *stmt_; }

 private:
  friend class Engine;
  PreparedStatement(Engine& engine, std::string sql);
  Cursor openCursorInternal(Pager::ReadSnapshot snapshot);

  Engine* engine_;
  std::string sql_;
  std::shared_ptr<Statement> stmt_;   // shared with cursors opened from here
  std::vector<Value> params_;
  std::vector<char> bound_;        // per-parameter "has been bound" flags
  std::shared_ptr<SelectPlan> plan_;  // lazily built, epoch-validated
  std::shared_ptr<char> busy_token_;  // nonzero while a cursor is open
  std::uint64_t parse_us_ = 0;     // parse span, consumed by the first execution
};

class Engine {
 public:
  explicit Engine(Database& db) : db_(&db) {}

  /// Compiles one statement for repeated execution with bound parameters.
  PreparedStatement prepare(std::string_view sql);

  /// Parses and executes one statement. Statements containing '?' must go
  /// through prepare() instead.
  ResultSet exec(std::string_view sql);

  /// Executes an already-parsed statement (no parameters).
  ResultSet exec(const Statement& stmt);

  /// Opens a stepping cursor over a parameterless SELECT (or EXPLAIN).
  /// The cursor owns the parsed statement and plan; it outlives this call.
  Cursor openCursor(std::string_view sql);

  /// Executes a ';'-separated script (quotes and comments are respected);
  /// returns the last statement's result. Used for DDL batches.
  ResultSet execScript(std::string_view script);

  /// When false the planner never uses indexes (ablation switch; mirrors
  /// the paper's interest in load/query cost drivers). Cached plans built
  /// under the other setting replan automatically on next execution.
  void setUseIndexes(bool enabled) { use_indexes_ = enabled; }
  bool useIndexes() const { return use_indexes_; }

  /// Execution degree for parallel-eligible SELECTs (workers including the
  /// calling thread). 0 restores the process default (PT_EXEC_THREADS or
  /// hardware concurrency); 1 forces the serial path.
  void setExecThreads(int n) { exec_threads_ = n; }
  int execThreads() const {
    return exec_threads_ > 0 ? exec_threads_ : defaultExecThreads();
  }

  /// Heap pages table 0 must span before a SELECT goes parallel; 0 disables
  /// the gate (tests force tiny tables parallel with it).
  void setParallelMinPages(std::size_t n) { min_pages_ = n; }
  std::size_t parallelMinPages() const {
    return min_pages_ ? *min_pages_ : defaultParallelMinPages();
  }

  /// Rows per pipeline batch for this engine's statements. Throws SqlError
  /// on 0 or values above kMaxExecBatchRows (see sql/pipeline.h); unset
  /// engines use the process default (PT_EXEC_BATCH_ROWS or 1024).
  void setExecBatchRows(std::size_t n);
  std::size_t execBatchRows() const {
    return exec_batch_rows_ > 0 ? exec_batch_rows_ : defaultExecBatchRows();
  }

  /// Whether the planner may answer integer IN-list probes from the
  /// inverted index (posting-list point lookups instead of B+-tree
  /// descents). Unset engines use the process default (PT_INVIDX, on by
  /// default). Cached plans built under the other setting replan
  /// automatically on next execution.
  void setInvidx(bool enabled) { invidx_ = enabled ? 1 : 0; }
  bool invidx() const {
    return invidx_ < 0 ? defaultInvidxEnabled() : invidx_ != 0;
  }

  Database& database() { return *db_; }

 private:
  friend class PreparedStatement;

  Database* db_;
  bool use_indexes_ = true;
  int exec_threads_ = 0;                  // 0 = process default
  std::optional<std::size_t> min_pages_;  // unset = process default
  std::size_t exec_batch_rows_ = 0;       // 0 = process default
  int invidx_ = -1;                       // -1 = process default
};

}  // namespace perftrack::minidb::sql
