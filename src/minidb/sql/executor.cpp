#include "minidb/sql/executor.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <utility>

#include "minidb/sql/exec_pool.h"

#include "minidb/sql/lexer.h"
#include "minidb/sql/parser.h"
#include "minidb/sql/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace perftrack::minidb::sql {

using util::SqlError;

namespace {

/// SQL-layer counters, resolved once (hot path is a relaxed atomic add).
struct SqlCounters {
  obs::Counter& queries;
  obs::Counter& rows_streamed;
  obs::Counter& plan_revalidations;
  obs::Histogram& query_ms;
};

SqlCounters& sqlCounters() {
  auto& reg = obs::Registry::global();
  static SqlCounters* c = new SqlCounters{
      reg.counter("pt_sql_queries_total"),
      reg.counter("pt_sql_rows_streamed_total"),
      reg.counter("pt_plan_revalidations_total"),
      reg.histogram("pt_sql_query_ms"),
  };
  return *c;
}

/// Approximate wire size of one value (matches the server's framing costs
/// closely enough for the bytes-streamed span).
std::uint64_t approxValueBytes(const Value& v) {
  if (v.isNull()) return 1;
  if (v.isText()) return 5 + v.asText().size();
  return 9;  // tag + 8-byte int/real payload
}

std::uint64_t approxRowBytes(const Row& row) {
  std::uint64_t n = 0;
  for (const Value& v : row) n += approxValueBytes(v);
  return n;
}

}  // namespace

int defaultExecThreads() {
  static const int resolved = [] {
    if (const char* env = std::getenv("PT_EXEC_THREADS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n >= 1) {
        return static_cast<int>(
            std::min<long>(n, static_cast<long>(ExecPool::kMaxThreads) + 1));
      }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  return resolved;
}

std::size_t defaultParallelMinPages() {
  static const std::size_t resolved = [] {
    if (const char* env = std::getenv("PT_EXEC_MIN_PAGES")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n >= 0) return static_cast<std::size_t>(n);
    }
    return std::size_t{16};
  }();
  return resolved;
}

std::size_t defaultExecBatchRows() {
  static const std::size_t resolved = [] {
    if (const char* env = std::getenv("PT_EXEC_BATCH_ROWS")) {
      char* end = nullptr;
      const long n = std::strtol(env, &end, 10);
      if (end != env && n >= 1) {
        return std::min(static_cast<std::size_t>(n), kMaxExecBatchRows);
      }
    }
    return std::size_t{1024};
  }();
  return resolved;
}

bool defaultInvidxEnabled() {
  static const bool resolved = [] {
    if (const char* env = std::getenv("PT_INVIDX")) {
      const std::string v(env);
      if (v == "0" || v == "off" || v == "false") return false;
    }
    return true;
  }();
  return resolved;
}

void Engine::setExecBatchRows(std::size_t n) {
  if (n == 0 || n > kMaxExecBatchRows) {
    throw SqlError("setExecBatchRows: batch size must be in [1, " +
                   std::to_string(kMaxExecBatchRows) + "]");
  }
  exec_batch_rows_ = n;
}

// ---------------------------------------------------------------------------
// ResultSet rendering
// ---------------------------------------------------------------------------

std::string ResultSet::toText() const {
  std::vector<std::size_t> widths(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows.size());
  for (const Row& row : rows) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::string text = row[c].isNull() ? "NULL" : row[c].toDisplayString();
      if (c < widths.size()) widths[c] = std::max(widths[c], text.size());
      line.push_back(std::move(text));
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream out;
  auto rule = [&] {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      out << '+' << std::string(widths[c] + 2, '-');
    }
    out << "+\n";
  };
  rule();
  for (std::size_t c = 0; c < columns.size(); ++c) {
    out << "| " << columns[c] << std::string(widths[c] - columns[c].size() + 1, ' ');
  }
  out << "|\n";
  rule();
  for (const auto& line : cells) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const std::string& text = c < line.size() ? line[c] : "";
      out << "| " << text << std::string(widths[c] - text.size() + 1, ' ');
    }
    out << "|\n";
  }
  rule();
  return out.str();
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

/// Shared state of one open cursor. Owns (shares) the parsed statement and
/// plan so the cursor survives its PreparedStatement and cache eviction;
/// holds the Database::CursorPin that blocks DDL/VACUUM/DML while open.
struct CursorImpl {
  Database* db = nullptr;
  std::shared_ptr<Statement> stmt;   // keeps the AST the plan points into alive
  std::shared_ptr<SelectPlan> plan;
  Pipeline pipeline;
  std::vector<std::string> columns;
  // EXPLAIN cursors step over precomputed plan lines; no storage is touched
  // and no pin is held.
  std::vector<Row> explain_rows;
  std::size_t explain_pos = 0;
  bool is_explain = false;
  bool open = false;
  std::uint64_t epoch = 0;
  Database::CursorPin pin;
  // Pinned committed version for snapshot cursors (WAL-mode readers). When
  // valid, every pipeline step runs under a SnapshotScope for it, so the
  // cursor streams one frozen version regardless of concurrent commits.
  Pager::ReadSnapshot snap;
  std::shared_ptr<char> busy_token;  // shared with the owning PreparedStatement
  // Query-span tracing (only when the tracer sampled this open). exec_us is
  // wall time from open to close, covering the whole streamed drain.
  bool traced = false;
  obs::QueryTrace trace;
  obs::StageTimer exec_timer;
  std::size_t batch_rows = 1024;  // engine's execBatchRows() at open time

  ~CursorImpl() { closeImpl(); }

  /// The one row adapter over the batch pipeline: refills `rows_` through
  /// nextBatch() and hands its rows out one at a time. Refills ramp from 32
  /// rows, doubling to batch_rows, so a caller that steps a few rows and
  /// closes (a top-K loop) scans about 32 rows, not a full batch.
  bool nextRow(Row& row) {
    if (!open) return false;
    if (is_explain) {
      if (explain_pos >= explain_rows.size()) {
        closeImpl();
        return false;
      }
      row = std::move(explain_rows[explain_pos++]);
      countRow(row);
      return true;
    }
    checkEpoch();
    if (pos_ >= rows_.sel.size()) {
      rows_.capacity = std::min(ramp_, batch_rows);
      ramp_ = std::min(ramp_ * 2, batch_rows);
      if (!pull(rows_)) return false;
      pos_ = 0;
    }
    rows_.takeRow(rows_.sel[pos_++], row);
    countRow(row);
    return true;
  }

  bool fetchBatch(RowBatch& batch) {
    if (!open) return false;
    if (is_explain) {
      // EXPLAIN cursors step precomputed text lines; batch them trivially.
      batch.reset(1, 0);
      const std::size_t cap =
          batch.capacity > 0 ? batch.capacity : explain_rows.size();
      while (batch.nrows < cap && explain_pos < explain_rows.size()) {
        Row& row = explain_rows[explain_pos++];
        countRow(row);
        batch.appendMoveValues(row);
      }
      if (batch.nrows == 0) {
        closeImpl();
        return false;
      }
      return true;
    }
    checkEpoch();
    if (pos_ < rows_.sel.size()) {
      // Rows a next() caller pulled but did not take go out first.
      const std::size_t cap = batch.capacity;
      std::swap(batch, rows_);
      batch.sel.erase(batch.sel.begin(),
                      batch.sel.begin() + static_cast<std::ptrdiff_t>(pos_));
      batch.capacity = cap;
      rows_.sel.clear();
      pos_ = 0;
      countBatch(batch);
      return true;
    }
    if (batch.capacity == 0) batch.capacity = batch_rows;
    if (!pull(batch)) return false;
    countBatch(batch);
    return true;
  }

  void countRow(const Row& row) {
    if (!traced) return;
    ++trace.rows;
    trace.bytes += approxRowBytes(row);
  }

  void countBatch(const RowBatch& batch) {
    if (!traced) return;
    trace.rows += batch.sel.size();
    for (const std::uint32_t i : batch.sel) {
      for (const auto& c : batch.cols) trace.bytes += approxValueBytes(c[i]);
    }
  }

  /// The pin makes schema changes impossible while open; this guards the
  /// invariant itself rather than any expected path. Snapshot cursors skip
  /// it: their data is frozen and a concurrent DML rollback (which bumps
  /// the epoch without moving the catalog) must not kill them.
  void checkEpoch() {
    if (!snap.valid() && db->schemaEpoch() != epoch) {
      closeImpl();
      throw SqlError("cursor: schema changed while cursor was open");
    }
  }

  /// One pipeline pull (under the cursor's snapshot, if any); closes the
  /// cursor at end of stream.
  bool pull(RowBatch& batch) {
    std::optional<Pager::SnapshotScope> scope;
    if (snap.valid()) scope.emplace(snap);
    if (pipeline.root->nextBatch(batch)) return true;
    scope.reset();
    closeImpl();
    return false;
  }

  void closeImpl() {
    if (open && traced) {
      trace.exec_us = exec_timer.elapsedUs();
      sqlCounters().rows_streamed.inc(trace.rows);
      sqlCounters().query_ms.observe(static_cast<double>(trace.totalUs()) / 1000.0);
      obs::Tracer::global().record(std::move(trace));
      traced = false;
    }
    if (open && pipeline.root) {
      std::optional<Pager::SnapshotScope> scope;
      if (snap.valid()) scope.emplace(snap);
      pipeline.root->close();
    }
    open = false;
    pin.release();
    snap.release();
    if (busy_token) {
      *busy_token = 0;
      busy_token.reset();
    }
  }

 private:
  RowBatch rows_;        // the row adapter's current batch
  std::size_t pos_ = 0;  // next unread index into rows_.sel
  std::size_t ramp_ = 32;
};

Cursor::Cursor(std::shared_ptr<CursorImpl> impl) : impl_(std::move(impl)) {}
Cursor::Cursor(Cursor&& o) noexcept = default;
Cursor& Cursor::operator=(Cursor&& o) noexcept = default;
Cursor::~Cursor() = default;

const std::vector<std::string>& Cursor::columns() const { return impl_->columns; }

bool Cursor::next(Row& row) { return impl_->nextRow(row); }

bool Cursor::fetchBatch(RowBatch& batch) { return impl_->fetchBatch(batch); }

void Cursor::close() {
  if (impl_) impl_->closeImpl();
}

bool Cursor::isOpen() const { return impl_ && impl_->open; }

// ---------------------------------------------------------------------------
// PreparedStatement
// ---------------------------------------------------------------------------

PreparedStatement::PreparedStatement(Engine& engine, std::string sql)
    : engine_(&engine), sql_(std::move(sql)) {
  if (obs::enabled()) {
    const obs::StageTimer t;
    stmt_ = std::make_shared<Statement>(parseStatement(sql_));
    parse_us_ = t.elapsedUs();
  } else {
    stmt_ = std::make_shared<Statement>(parseStatement(sql_));
  }
  params_.resize(static_cast<std::size_t>(stmt_->param_count));
  bound_.assign(static_cast<std::size_t>(stmt_->param_count), 0);
}

void PreparedStatement::bind(int index, Value v) {
  if (index < 1 || index > paramCount()) {
    throw SqlError("bind: parameter index " + std::to_string(index) +
                   " out of range (statement has " + std::to_string(paramCount()) +
                   " parameters)");
  }
  params_[static_cast<std::size_t>(index - 1)] = std::move(v);
  bound_[static_cast<std::size_t>(index - 1)] = 1;
}

void PreparedStatement::bindAll(std::vector<Value> params) {
  if (static_cast<int>(params.size()) != paramCount()) {
    throw SqlError("bindAll: statement has " + std::to_string(paramCount()) +
                   " parameters, got " + std::to_string(params.size()));
  }
  params_ = std::move(params);
  bound_.assign(params_.size(), 1);
}

void PreparedStatement::clearBindings() {
  params_.assign(params_.size(), Value::null());
  bound_.assign(bound_.size(), 0);
}

bool PreparedStatement::hasOpenCursor() const {
  return busy_token_ != nullptr && *busy_token_ != 0;
}

Cursor PreparedStatement::openCursor() {
  return openCursorInternal(Pager::ReadSnapshot());
}

Cursor PreparedStatement::openCursor(Pager::ReadSnapshot snapshot) {
  return openCursorInternal(std::move(snapshot));
}

Cursor PreparedStatement::openCursorInternal(Pager::ReadSnapshot snapshot) {
  for (std::size_t i = 0; i < bound_.size(); ++i) {
    if (!bound_[i]) {
      throw SqlError("openCursor: parameter " + std::to_string(i + 1) +
                     " is unbound");
    }
  }
  if (stmt_->kind != Statement::Kind::Select) {
    throw SqlError("openCursor: statement is not a SELECT");
  }
  // One cursor per statement: the bindings live in the shared AST, so a
  // second cursor would silently corrupt the first one's parameters.
  if (hasOpenCursor()) {
    throw SqlError("a cursor is already open on this prepared statement");
  }
  // Snapshot cursors plan, open, and pin under the snapshot's scope: page
  // statistics come from the frozen version, and the pin registers as a
  // snapshot cursor (DML may run underneath it).
  std::optional<Pager::SnapshotScope> snap_scope;
  if (snapshot.valid()) snap_scope.emplace(snapshot);
  const bool traced = obs::Tracer::global().shouldSample();
  std::uint64_t bind_us = 0;
  std::uint64_t plan_us = 0;
  if (stmt_->param_count > 0) {
    if (traced) {
      const obs::StageTimer t;
      bindParamValues(*stmt_, params_);
      bind_us = t.elapsedUs();
    } else {
      bindParamValues(*stmt_, params_);
    }
  }
  Database& db = *engine_->db_;
  if (!plan_ || plan_->epoch != db.schemaEpoch() ||
      plan_->use_indexes != engine_->use_indexes_ ||
      plan_->invidx != engine_->invidx()) {
    if (plan_) sqlCounters().plan_revalidations.inc();
    if (traced) {
      const obs::StageTimer t;
      plan_ = std::make_shared<SelectPlan>(buildSelectPlan(
          db, *stmt_->select, engine_->use_indexes_, engine_->invidx()));
      plan_us = t.elapsedUs();
    } else {
      plan_ = std::make_shared<SelectPlan>(buildSelectPlan(
          db, *stmt_->select, engine_->use_indexes_, engine_->invidx()));
    }
  }
  sqlCounters().queries.inc();
  auto impl = std::make_shared<CursorImpl>();
  impl->db = &db;
  impl->stmt = stmt_;
  impl->plan = plan_;
  impl->epoch = plan_->epoch;
  impl->busy_token = std::make_shared<char>(1);
  busy_token_ = impl->busy_token;
  if (traced) {
    impl->traced = true;
    impl->trace.sql = sql_;
    impl->trace.parse_us = std::exchange(parse_us_, 0);
    impl->trace.plan_us = plan_us;
    impl->trace.bind_us = bind_us;
  }
  impl->batch_rows = engine_->execBatchRows();
  const ExecOptions exec_opts{engine_->execThreads(), engine_->parallelMinPages(),
                              engine_->execBatchRows(), engine_->invidx()};
  if (stmt_->explain) {
    impl->is_explain = true;
    impl->columns = {"plan"};
    // EXPLAIN ANALYZE runs the statement under a scoped pin; the resulting
    // cursor is text-only and pin-free, so it is safe to stream over the
    // wire like plain EXPLAIN.
    const std::vector<std::string> lines =
        stmt_->explain_analyze ? explainAnalyze(db, *plan_, exec_opts)
                               : explainPipeline(db, *plan_, exec_opts);
    for (const std::string& line : lines) impl->explain_rows.push_back({Value(line)});
  } else {
    // Subqueries run before the pin is taken (they open their own scans).
    materializePlanSubqueries(db, *plan_);
    impl->pipeline = buildPipeline(db, *plan_, exec_opts);
    impl->columns = impl->pipeline.columns;
    impl->pin = db.pinCursor();
    impl->pipeline.root->open();
  }
  impl->snap = std::move(snapshot);
  if (traced) impl->exec_timer = obs::StageTimer();
  impl->open = true;
  return Cursor(std::move(impl));
}

ResultSet PreparedStatement::execute() {
  for (std::size_t i = 0; i < bound_.size(); ++i) {
    if (!bound_[i]) {
      throw SqlError("execute: parameter " + std::to_string(i + 1) + " is unbound");
    }
  }
  if (stmt_->kind == Statement::Kind::Select) {
    // The materializing wrapper: open a cursor and drain it batch-at-a-time.
    Cursor cur = openCursor();
    ResultSet rs;
    rs.columns = cur.columns();
    RowBatch batch;
    Row row;
    while (cur.fetchBatch(batch)) {
      for (const std::uint32_t i : batch.sel) {
        batch.takeRow(i, row);
        rs.rows.push_back(std::move(row));
        row = {};
      }
    }
    return rs;
  }
  sqlCounters().queries.inc();
  if (!obs::Tracer::global().shouldSample()) {
    if (stmt_->param_count > 0) bindParamValues(*stmt_, params_);
    return engine_->exec(*stmt_);
  }
  obs::QueryTrace t;
  t.sql = sql_;
  t.parse_us = std::exchange(parse_us_, 0);
  if (stmt_->param_count > 0) {
    const obs::StageTimer bt;
    bindParamValues(*stmt_, params_);
    t.bind_us = bt.elapsedUs();
  }
  const obs::StageTimer et;
  ResultSet rs = engine_->exec(*stmt_);
  t.exec_us = et.elapsedUs();
  t.rows = static_cast<std::uint64_t>(rs.rows_affected);
  sqlCounters().query_ms.observe(static_cast<double>(t.totalUs()) / 1000.0);
  obs::Tracer::global().record(std::move(t));
  return rs;
}

ResultSet PreparedStatement::execute(std::vector<Value> params) {
  bindAll(std::move(params));
  return execute();
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

PreparedStatement Engine::prepare(std::string_view sql) {
  return PreparedStatement(*this, std::string(sql));
}

ResultSet Engine::exec(std::string_view sqltext) {
  const Statement stmt = parseStatement(sqltext);
  if (stmt.param_count > 0) {
    throw SqlError("statement has " + std::to_string(stmt.param_count) +
                   " unbound '?' parameters; use prepare()/execPrepared()");
  }
  return exec(stmt);
}

Cursor Engine::openCursor(std::string_view sql) {
  PreparedStatement stmt = prepare(sql);
  if (stmt.paramCount() > 0) {
    throw SqlError("openCursor: statement has " +
                   std::to_string(stmt.paramCount()) +
                   " unbound '?' parameters; use prepare()");
  }
  // The cursor shares the statement and plan, so it outlives `stmt`.
  return stmt.openCursor();
}

ResultSet Engine::execScript(std::string_view script) {
  // Split on top-level ';' — the lexer already understands quoting and
  // comments, so tokenize once and re-slice the source by the separators.
  ResultSet last;
  std::size_t start = 0;
  std::size_t i = 0;
  const std::size_t n = script.size();
  bool saw_statement = false;
  auto runSlice = [&](std::size_t begin, std::size_t end) {
    std::string_view piece = script.substr(begin, end - begin);
    // Skip slices that are only whitespace/comments.
    const auto tokens = tokenize(piece);
    if (tokens.size() <= 1) return;
    last = exec(piece);
    saw_statement = true;
  };
  while (i < n) {
    const char c = script[i];
    if (c == '\'') {
      ++i;
      while (i < n && !(script[i] == '\'' && (i + 1 >= n || script[i + 1] != '\''))) {
        i += script[i] == '\'' ? 2 : 1;  // skip escaped ''
      }
      ++i;
    } else if (c == '"') {
      ++i;
      while (i < n && script[i] != '"') ++i;
      ++i;
    } else if (c == '-' && i + 1 < n && script[i + 1] == '-') {
      while (i < n && script[i] != '\n') ++i;
    } else if (c == ';') {
      runSlice(start, i);
      ++i;
      start = i;
    } else {
      ++i;
    }
  }
  runSlice(start, n);
  if (!saw_statement) throw SqlError("execScript: no statements in script");
  return last;
}

ResultSet Engine::exec(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::Select:
      return execSelect(*db_, *stmt.select, use_indexes_, stmt.explain,
                        stmt.explain_analyze,
                        ExecOptions{execThreads(), parallelMinPages(),
                                    execBatchRows(), invidx()});

    case Statement::Kind::Insert: {
      const InsertStmt& ins = *stmt.insert;
      const TableDef* def = db_->catalog().findTable(ins.table);
      if (def == nullptr) throw SqlError("no such table: " + ins.table);
      std::vector<int> target_cols;
      if (ins.columns.empty()) {
        for (std::size_t c = 0; c < def->columns.size(); ++c) {
          target_cols.push_back(static_cast<int>(c));
        }
      } else {
        for (const std::string& name : ins.columns) {
          const int c = def->columnIndex(name);
          if (c < 0) throw SqlError("no column '" + name + "' in " + ins.table);
          target_cols.push_back(c);
        }
      }
      ResultSet rs;
      for (const auto& exprs : ins.rows) {
        if (exprs.size() != target_cols.size()) {
          throw SqlError("INSERT value count does not match column count");
        }
        Row row(def->columns.size());  // unspecified columns default to NULL
        for (std::size_t i = 0; i < exprs.size(); ++i) {
          row[target_cols[i]] = evalConst(*exprs[i]);
        }
        rs.last_insert_id = db_->insertRow(def->name, std::move(row));
        rs.rows_affected++;
      }
      return rs;
    }

    case Statement::Kind::Update: {
      const UpdateStmt& upd = *stmt.update;
      const TableDef* def = db_->catalog().findTable(upd.table);
      if (def == nullptr) throw SqlError("no such table: " + upd.table);
      std::vector<SelectPlan::FromEntry> from{{def, def->name}};
      Binder binder(from);
      if (upd.where) {
        binder.bind(*const_cast<Expr*>(upd.where.get()));
        materializeSubqueries(const_cast<Expr*>(upd.where.get()), *db_, use_indexes_);
      }
      std::vector<std::pair<int, const Expr*>> assigns;
      for (const auto& [name, expr] : upd.assignments) {
        const int c = def->columnIndex(name);
        if (c < 0) throw SqlError("no column '" + name + "' in " + upd.table);
        binder.bind(*const_cast<Expr*>(expr.get()));
        assigns.emplace_back(c, expr.get());
      }
      // Collect matches first, then mutate (index/heap iterators must not
      // observe our own writes).
      std::vector<std::pair<RecordId, Row>> matches;
      db_->scan(def->name, [&](RecordId rid, const Row& row) {
        Tuple tuple{&row};
        if (!upd.where || truthy(evaluate(*upd.where, tuple))) {
          matches.emplace_back(rid, row);
        }
        return true;
      });
      ResultSet rs;
      for (auto& [rid, row] : matches) {
        Row updated = row;
        Tuple tuple{&row};
        for (const auto& [c, expr] : assigns) {
          updated[c] = evaluate(*expr, tuple);
        }
        db_->updateRow(def->name, rid, updated);
        rs.rows_affected++;
      }
      return rs;
    }

    case Statement::Kind::Delete: {
      const DeleteStmt& del = *stmt.del;
      const TableDef* def = db_->catalog().findTable(del.table);
      if (def == nullptr) throw SqlError("no such table: " + del.table);
      std::vector<SelectPlan::FromEntry> from{{def, def->name}};
      Binder binder(from);
      if (del.where) {
        binder.bind(*const_cast<Expr*>(del.where.get()));
        materializeSubqueries(const_cast<Expr*>(del.where.get()), *db_, use_indexes_);
      }
      std::vector<RecordId> victims;
      db_->scan(def->name, [&](RecordId rid, const Row& row) {
        Tuple tuple{&row};
        if (!del.where || truthy(evaluate(*del.where, tuple))) victims.push_back(rid);
        return true;
      });
      ResultSet rs;
      for (RecordId rid : victims) {
        if (db_->eraseRow(def->name, rid)) rs.rows_affected++;
      }
      return rs;
    }

    case Statement::Kind::CreateTable: {
      const CreateTableStmt& ct = *stmt.create_table;
      if (ct.if_not_exists && db_->catalog().findTable(ct.table) != nullptr) {
        return {};
      }
      std::vector<ColumnDef> columns;
      columns.reserve(ct.columns.size());
      for (const auto& [name, type] : ct.columns) columns.push_back({name, type});
      db_->createTable(ct.table, std::move(columns), ct.primary_key);
      return {};
    }

    case Statement::Kind::CreateIndex: {
      const CreateIndexStmt& ci = *stmt.create_index;
      if (ci.if_not_exists && db_->catalog().findIndex(ci.index) != nullptr) {
        return {};
      }
      db_->createIndex(ci.index, ci.table, ci.columns, ci.unique);
      return {};
    }

    case Statement::Kind::Drop: {
      const DropStmt& drop = *stmt.drop;
      if (drop.what == DropStmt::What::Table) {
        if (drop.if_exists && db_->catalog().findTable(drop.name) == nullptr) return {};
        db_->dropTable(drop.name);
      } else {
        if (drop.if_exists && db_->catalog().findIndex(drop.name) == nullptr) return {};
        db_->dropIndex(drop.name);
      }
      return {};
    }

    case Statement::Kind::Txn: {
      switch (stmt.txn->kind) {
        case TxnStmt::Kind::Begin: db_->begin(); break;
        case TxnStmt::Kind::Commit: db_->commit(); break;
        case TxnStmt::Kind::Rollback: db_->rollback(); break;
      }
      return {};
    }

    case Statement::Kind::Vacuum:
      db_->vacuum();
      return {};
  }
  throw SqlError("internal: bad statement kind");
}

}  // namespace perftrack::minidb::sql
