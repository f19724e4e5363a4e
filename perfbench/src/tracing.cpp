#include "tracing.h"

#include <chrono>
#include <fstream>

#include "obs/metrics.h"
#include "server/session.h"
#include "util/error.h"

namespace perfbench {

using namespace perftrack;

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer* g_active = nullptr;
const server::ServerCounters* g_server = nullptr;

struct Frame {
  const char* name;
  std::int64_t id;
  std::int64_t start_ns;
  ScopedSpan::Dbal dbal;
};

// The client's span stack and the open operation's roll-up.
struct ClientState {
  std::vector<Frame> stack;
  int dbal_depth = 0;
  bool in_op = false;
  bool capturing = false;
  std::uint64_t request = 0;
  OpTotals op;
  CounterSnapshot at_start;
};

ClientState g_client;

}  // namespace

const char* opKindName(OpKind kind) {
  switch (kind) {
    case OpKind::Count: return "count";
    case OpKind::Table: return "table";
    case OpKind::Diff: return "diff";
    case OpKind::Load: return "load";
  }
  return "?";
}

void setServerCounters(const server::ServerCounters* counters) { g_server = counters; }

const server::ServerCounters* serverCounters() { return g_server; }

CounterSnapshot CounterSnapshot::take() {
  static obs::Registry& reg = obs::Registry::global();
  static obs::Counter& queries = reg.counter("pt_sql_queries_total");
  static obs::Counter& rows = reg.counter("pt_sql_rows_streamed_total");
  static obs::Counter& pages = reg.counter("pt_pager_page_reads_total");
  static obs::Counter& probes = reg.counter("pt_invidx_probes_total");
  CounterSnapshot s;
  if (const server::ServerCounters* server = serverCounters()) {
    s.frames = server->frames_served.load(std::memory_order_relaxed);
  }
  s.sql_queries = queries.value();
  s.rows_streamed = rows.value();
  s.page_reads = pages.value();
  s.invidx_probes = probes.value();
  return s;
}

CounterSnapshot CounterSnapshot::operator-(const CounterSnapshot& o) const {
  CounterSnapshot d;
  d.frames = frames - o.frames;
  d.sql_queries = sql_queries - o.sql_queries;
  d.rows_streamed = rows_streamed - o.rows_streamed;
  d.page_reads = page_reads - o.page_reads;
  d.invidx_probes = invidx_probes - o.invidx_probes;
  return d;
}

CounterSnapshot& CounterSnapshot::operator+=(const CounterSnapshot& o) {
  frames += o.frames;
  sql_queries += o.sql_queries;
  rows_streamed += o.rows_streamed;
  page_reads += o.page_reads;
  invidx_probes += o.invidx_probes;
  return *this;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer* Tracer::active() { return g_active; }

void Tracer::setActive(Tracer* tracer) { g_active = tracer; }

void Tracer::store(const Span& span) {
  if (span.id > static_cast<std::int64_t>(kMaxStoredSpans)) return;
  spans_.push_back(span);
}

void Tracer::closeOp(OpKind kind, const OpTotals& op, bool captured) {
  OpTotals& t = totals_[static_cast<std::size_t>(kind)];
  t.ops += op.ops;
  t.ms += op.ms;
  t.dbal_ms += op.dbal_ms;
  t.statements += op.statements;
  t.fetch_calls += op.fetch_calls;
  t.results += op.results;
  t.counters += op.counters;
  if (kind == OpKind::Table) table_statements_.emplace_back(op.results, op.statements);
  if (captured) {
    ++captured_tables_;
    captured_dbal_ms_ += op.dbal_ms;
  }
}

bool Tracer::wantCapture() {
  if (capture_claimed_ >= capture_tables_) return false;
  ++capture_claimed_;
  return true;
}

void Tracer::capture(CapturedStatement statement) {
  captured_.push_back(std::move(statement));
}

void Tracer::writeSpans(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw util::PTError("cannot write " + path);
  out << "request\tid\tparent\tname\tstart_us\tend_us\n";
  for (const Span& s : spans_) {
    out << s.request << '\t' << s.id << '\t' << s.parent << '\t'
        << s.name << '\t' << s.start_ns / 1000 << '\t' << s.end_ns / 1000 << '\n';
  }
}

// ---------------------------------------------------------------------------
// Spans and operations
// ---------------------------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name, Dbal dbal) : tracer_(Tracer::active()) {
  if (tracer_ == nullptr) return;
  ClientState& ts = g_client;
  ts.stack.push_back({name, tracer_->next_id_++, nowNs(), dbal});
  if (dbal != Dbal::No) ++ts.dbal_depth;
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  ClientState& ts = g_client;
  const Frame frame = ts.stack.back();
  ts.stack.pop_back();
  const std::int64_t end = nowNs();
  if (frame.dbal != Dbal::No) {
    --ts.dbal_depth;
    // Only the outermost dbal call is charged; a dbal call made from inside
    // another (none today) would otherwise count twice.
    if (ts.in_op && ts.dbal_depth == 0) {
      ts.op.dbal_ms += static_cast<double>(end - frame.start_ns) / 1e6;
      if (frame.dbal == Dbal::Statement) ++ts.op.statements;
      if (frame.dbal == Dbal::Fetch) ++ts.op.fetch_calls;
    }
  }
  Tracer::Span span;
  span.name = frame.name;
  span.start_ns = frame.start_ns;
  span.end_ns = end;
  span.id = frame.id;
  span.parent = ts.stack.empty() ? 0 : ts.stack.back().id;
  span.request = ts.in_op ? ts.request : 0;
  tracer_->store(span);
}

OpScope::OpScope(OpKind kind) : kind_(kind), start_ns_(nowNs()), tracer_(Tracer::active()) {
  if (tracer_ == nullptr) return;
  ClientState& ts = g_client;
  if (ts.in_op) throw util::PTError("perfbench: operations do not nest");
  ts.in_op = true;
  ts.op = OpTotals{};
  ts.request = tracer_->next_request_++;
  ts.capturing = kind == OpKind::Table && tracer_->wantCapture();
  ts.at_start = CounterSnapshot::take();
  ts.stack.push_back({opKindName(kind), tracer_->next_id_++, start_ns_,
                      ScopedSpan::Dbal::No});
}

OpScope::~OpScope() {
  if (tracer_ == nullptr) return;
  ClientState& ts = g_client;
  const Frame frame = ts.stack.back();
  ts.stack.pop_back();
  const std::int64_t end = nowNs();
  ts.op.ops = 1;
  ts.op.ms = static_cast<double>(end - start_ns_) / 1e6;
  ts.op.results = results_;
  ts.op.counters = CounterSnapshot::take() - ts.at_start;
  tracer_->closeOp(kind_, ts.op, ts.capturing);
  Tracer::Span span;
  span.name = frame.name;
  span.start_ns = start_ns_;
  span.end_ns = end;
  span.id = frame.id;
  span.parent = ts.stack.empty() ? 0 : ts.stack.back().id;
  span.request = ts.request;
  tracer_->store(span);
  ts.in_op = false;
  ts.capturing = false;
}

double OpScope::elapsedMs() const {
  return static_cast<double>(nowNs() - start_ns_) / 1e6;
}

// ---------------------------------------------------------------------------
// TracingConnection
// ---------------------------------------------------------------------------

namespace {

/// Forwards a dbal cursor, wrapping each pull in a dbal fetch span.
class TracingCursorImpl final : public dbal::Cursor::Impl {
 public:
  explicit TracingCursorImpl(dbal::Cursor inner) : inner_(std::move(inner)) {}

  const std::vector<std::string>& columns() const override { return inner_.columns(); }
  bool next(minidb::Row& row) override {
    ScopedSpan span("dbal.cursor.next", ScopedSpan::Dbal::Fetch);
    return inner_.next(row);
  }
  bool fetchBatch(minidb::sql::RowBatch& batch) override {
    ScopedSpan span("dbal.cursor.fetchBatch", ScopedSpan::Dbal::Fetch);
    return inner_.fetchBatch(batch);
  }
  void close() override {
    ScopedSpan span("dbal.cursor.close", ScopedSpan::Dbal::Call);
    inner_.close();
  }
  bool isOpen() const override { return inner_.isOpen(); }

 private:
  dbal::Cursor inner_;
};

}  // namespace

/// Records a statement for the wire-residual replay when the open
/// operation is a captured table.
void captureStatement(CapturedStatement::Kind kind, std::string_view sql,
                      const std::vector<minidb::Value>& params) {
  Tracer* tracer = Tracer::active();
  if (tracer == nullptr || !g_client.capturing) return;
  tracer->capture({kind, std::string(sql), params});
}

dbal::ResultSet TracingConnection::exec(std::string_view sql) {
  ScopedSpan span("dbal.exec", ScopedSpan::Dbal::Statement);
  captureStatement(CapturedStatement::Kind::Exec, sql, {});
  return inner_->exec(sql);
}

dbal::ResultSet TracingConnection::execPrepared(std::string_view sql,
                                                std::vector<minidb::Value> params) {
  ScopedSpan span("dbal.execPrepared", ScopedSpan::Dbal::Statement);
  captureStatement(CapturedStatement::Kind::ExecPrepared, sql, params);
  return inner_->execPrepared(sql, std::move(params));
}

dbal::Cursor TracingConnection::query(std::string_view sql) {
  ScopedSpan span("dbal.query", ScopedSpan::Dbal::Statement);
  captureStatement(CapturedStatement::Kind::Query, sql, {});
  return dbal::Cursor(std::make_unique<TracingCursorImpl>(inner_->query(sql)));
}

dbal::Cursor TracingConnection::query(std::string_view sql,
                                      std::vector<minidb::Value> params) {
  ScopedSpan span("dbal.query", ScopedSpan::Dbal::Statement);
  captureStatement(CapturedStatement::Kind::Query, sql, params);
  return dbal::Cursor(
      std::make_unique<TracingCursorImpl>(inner_->query(sql, std::move(params))));
}

void TracingConnection::begin() {
  ScopedSpan span("dbal.begin", ScopedSpan::Dbal::Call);
  inner_->begin();
}

void TracingConnection::commit() {
  ScopedSpan span("dbal.commit", ScopedSpan::Dbal::Call);
  inner_->commit();
}

void TracingConnection::rollback() {
  ScopedSpan span("dbal.rollback", ScopedSpan::Dbal::Call);
  inner_->rollback();
}

core::diag::Report TracingConnection::diff(const core::diag::Request& request) {
  ScopedSpan span("dbal.diff", ScopedSpan::Dbal::Statement);
  return inner_->diff(request);
}

std::uint64_t TracingConnection::sizeBytes() const {
  ScopedSpan span("dbal.sizeBytes", ScopedSpan::Dbal::Call);
  return inner_->sizeBytes();
}

}  // namespace perfbench
