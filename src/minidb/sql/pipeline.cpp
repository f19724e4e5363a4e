// minidb SQL execution pipeline: planning, expression evaluation, and the
// Volcano-style operator tree (see pipeline.h for the shape).
#include "minidb/sql/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>

#include "minidb/keycodec.h"
#include "minidb/sql/exec_pool.h"
#include "minidb/sql/executor.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace perftrack::minidb::sql {

using util::SqlError;

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

namespace {

bool likeMatch(std::string_view text, std::string_view pattern) {
  // Classic two-pointer wildcard matcher: '%' = any run, '_' = any one char.
  std::size_t t = 0;
  std::size_t p = 0;
  std::size_t star_p = std::string_view::npos;
  std::size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Value arith(BinaryOp op, const Value& a, const Value& b) {
  if (a.isNull() || b.isNull()) return Value::null();
  if (a.isInt() && b.isInt()) {
    const std::int64_t x = a.asInt();
    const std::int64_t y = b.asInt();
    switch (op) {
      case BinaryOp::Add: return Value(x + y);
      case BinaryOp::Sub: return Value(x - y);
      case BinaryOp::Mul: return Value(x * y);
      case BinaryOp::Div:
        if (y == 0) return Value::null();
        return Value(x / y);
      default: break;
    }
  }
  const double x = a.asReal();
  const double y = b.asReal();
  switch (op) {
    case BinaryOp::Add: return Value(x + y);
    case BinaryOp::Sub: return Value(x - y);
    case BinaryOp::Mul: return Value(x * y);
    case BinaryOp::Div:
      if (y == 0.0) return Value::null();
      return Value(x / y);
    default: break;
  }
  throw SqlError("arith: not an arithmetic operator");
}

Value compare(BinaryOp op, const Value& a, const Value& b) {
  // SQL three-valued logic collapsed: comparisons against NULL are false.
  if (a.isNull() || b.isNull()) return Value(std::int64_t{0});
  const int c = a.compare(b);
  bool result = false;
  switch (op) {
    case BinaryOp::Eq: result = c == 0; break;
    case BinaryOp::Ne: result = c != 0; break;
    case BinaryOp::Lt: result = c < 0; break;
    case BinaryOp::Le: result = c <= 0; break;
    case BinaryOp::Gt: result = c > 0; break;
    case BinaryOp::Ge: result = c >= 0; break;
    default: throw SqlError("compare: not a comparison operator");
  }
  return Value(std::int64_t{result ? 1 : 0});
}

}  // namespace
bool truthy(const Value& v) {
  if (v.isNull()) return false;
  if (v.isInt()) return v.asInt() != 0;
  if (v.isReal()) return v.asReal() != 0.0;
  return !v.asText().empty();
}

namespace {

// Column resolvers: each tells eval() where a bound Column ref reads its
// value and what an Aggregate node means in its context.

[[noreturn]] Value noAggregate() {
  throw SqlError("aggregate used outside of an aggregating SELECT");
}

/// A tuple of rows, one per FROM entry (UPDATE/DELETE rows, INSERT values).
struct TupleCols {
  const Tuple& tuple;
  const Value& column(const Expr& e) const {
    const Row* row = tuple.at(e.bound_table);
    if (row == nullptr) throw SqlError("internal: unbound tuple slot");
    return row->at(e.bound_col);
  }
  Value aggregate(const Expr&) const { noAggregate(); }
};

/// Where each FROM entry's columns sit in a joined batch: column c of entry
/// t is batch column index[base[t] + c]. A join emits only the columns read
/// above it, side by side in FROM order; a single-table batch (empty
/// `index`) keeps every column at its own ordinal.
struct Layout {
  std::vector<std::uint32_t> base;
  std::vector<std::uint32_t> index;
  std::size_t of(const Expr& e) const {
    const auto c = static_cast<std::size_t>(e.bound_col);
    if (index.empty()) return c;
    return index[base[static_cast<std::size_t>(e.bound_table)] + c];
  }
};

/// One lane of a joined batch.
struct LaneCols {
  const RowBatch& batch;
  const Layout& layout;
  std::uint32_t lane;
  const Value& column(const Expr& e) const { return batch.cols[layout.of(e)][lane]; }
  Value aggregate(const Expr&) const { noAggregate(); }
};

/// The current row of one FROM entry inside the nested loop: a lane of that
/// level's batch (or of its all-NULL row); `batch` is null while unbound.
struct Slot {
  const RowBatch* batch = nullptr;
  std::uint32_t lane = 0;
};

using Slots = std::vector<Slot>;

/// The nested loop's bound levels (inner filters and index-probe bounds).
struct SlotCols {
  const Slots& slots;
  const Value& column(const Expr& e) const {
    const Slot& s = slots.at(static_cast<std::size_t>(e.bound_table));
    if (s.batch == nullptr) throw SqlError("internal: unbound tuple slot");
    return s.batch->cols.at(static_cast<std::size_t>(e.bound_col))[s.lane];
  }
  Value aggregate(const Expr&) const { noAggregate(); }
};

/// The one expression evaluator. Columns and constants are returned by
/// reference to the stored value; computed results land in `tmp`.
template <class Cols>
const Value& eval(const Expr& e, const Cols& cols, Value& tmp) {
  Value lt;
  Value rt;
  switch (e.kind) {
    case Expr::Kind::Literal:
    case Expr::Kind::Param:  // bind() stored the parameter value in `value`
      return e.value;
    case Expr::Kind::Column:
      return cols.column(e);
    case Expr::Kind::Binary:
      switch (e.op) {
        case BinaryOp::And:
          return tmp = Value(std::int64_t{truthy(eval(*e.lhs, cols, lt)) &&
                                                  truthy(eval(*e.rhs, cols, rt))
                                              ? 1
                                              : 0});
        case BinaryOp::Or:
          return tmp = Value(std::int64_t{truthy(eval(*e.lhs, cols, lt)) ||
                                                  truthy(eval(*e.rhs, cols, rt))
                                              ? 1
                                              : 0});
        case BinaryOp::Add:
        case BinaryOp::Sub:
        case BinaryOp::Mul:
        case BinaryOp::Div:
          return tmp = arith(e.op, eval(*e.lhs, cols, lt), eval(*e.rhs, cols, rt));
        default:
          return tmp = compare(e.op, eval(*e.lhs, cols, lt), eval(*e.rhs, cols, rt));
      }
    case Expr::Kind::Not:
      return tmp = Value(std::int64_t{truthy(eval(*e.lhs, cols, lt)) ? 0 : 1});
    case Expr::Kind::IsNull: {
      const bool is_null = eval(*e.lhs, cols, lt).isNull();
      return tmp = Value(std::int64_t{(is_null != e.negated) ? 1 : 0});
    }
    case Expr::Kind::Like: {
      const Value& v = eval(*e.lhs, cols, lt);
      if (v.isNull()) return tmp = Value(std::int64_t{0});
      const bool hit = likeMatch(v.isText() ? v.asText() : v.toDisplayString(),
                                 e.value.asText());
      return tmp = Value(std::int64_t{(hit != e.negated) ? 1 : 0});
    }
    case Expr::Kind::InList: {
      const Value& v = eval(*e.lhs, cols, lt);
      if (v.isNull()) return tmp = Value(std::int64_t{0});
      bool hit = false;
      for (const ExprPtr& item : e.list) {
        if (v.compare(eval(*item, cols, rt)) == 0) {
          hit = true;
          break;
        }
      }
      return tmp = Value(std::int64_t{(hit != e.negated) ? 1 : 0});
    }
    case Expr::Kind::InSelect: {
      const Value& v = eval(*e.lhs, cols, lt);
      if (v.isNull()) return tmp = Value(std::int64_t{0});
      if (!e.subquery_values) {
        throw SqlError("internal: subquery was not materialized");
      }
      EncodedKey key;
      encodeValue(v, key);
      const bool hit = e.subquery_values->contains(key);
      return tmp = Value(std::int64_t{(hit != e.negated) ? 1 : 0});
    }
    case Expr::Kind::Aggregate:
      return tmp = cols.aggregate(e);
  }
  throw SqlError("internal: bad expression kind");
}

/// eval() into an owned value.
template <class Cols>
Value evalValue(const Expr& e, const Cols& cols) {
  Value tmp;
  const Value& v = eval(e, cols, tmp);
  if (&v == &tmp) return tmp;
  return v;
}

/// Whether every conjunct holds (stops at the first that does not).
template <class Cols>
bool allHold(const std::vector<Expr*>& conjuncts, const Cols& cols) {
  Value tmp;
  for (const Expr* e : conjuncts) {
    if (!truthy(eval(*e, cols, tmp))) return false;
  }
  return true;
}

}  // namespace

Value evaluate(const Expr& e, const Tuple& tuple) {
  return evalValue(e, TupleCols{tuple});
}

Value evalConst(const Expr& e) {
  static const Tuple kEmpty;
  return evaluate(e, kEmpty);
}

// ---------------------------------------------------------------------------
// Binding / analysis
// ---------------------------------------------------------------------------

int Binder::bind(Expr& e) const {
  int max_table = -1;
  bindInner(e, max_table);
  return max_table;
}

void Binder::bindInner(Expr& e, int& max_table) const {
  if (e.kind == Expr::Kind::Column) {
    resolve(e);
    max_table = std::max(max_table, e.bound_table);
    return;
  }
  if (e.lhs) bindInner(*e.lhs, max_table);
  if (e.rhs) bindInner(*e.rhs, max_table);
  for (const ExprPtr& item : e.list) bindInner(*item, max_table);
  // Subqueries bind against their own FROM list (uncorrelated); the
  // executor materializes them before evaluation.
}

void Binder::resolve(Expr& e) const {
  // Always (re)resolve: a cached statement may be replanned after DDL
  // changed column ordinals, so stale annotations must not survive.
  int found_table = -1;
  int found_col = -1;
  for (std::size_t i = 0; i < from_.size(); ++i) {
    if (!e.table.empty() && !util::iequals(e.table, from_[i].alias)) continue;
    const int col = from_[i].def->columnIndex(e.column);
    if (col < 0) continue;
    if (found_table >= 0) {
      throw SqlError("ambiguous column reference: " + e.column);
    }
    found_table = static_cast<int>(i);
    found_col = col;
  }
  if (found_table < 0) {
    const std::string qual = e.table.empty() ? e.column : e.table + "." + e.column;
    throw SqlError("unknown column: " + qual);
  }
  e.bound_table = found_table;
  e.bound_col = found_col;
}

namespace {

void collectConjuncts(Expr* e, std::vector<Expr*>& out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::Binary && e->op == BinaryOp::And) {
    collectConjuncts(e->lhs.get(), out);
    collectConjuncts(e->rhs.get(), out);
    return;
  }
  out.push_back(e);
}

void collectAggregates(Expr* e, std::vector<Expr*>& out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::Aggregate) {
    e->agg_slot = static_cast<int>(out.size());
    out.push_back(e);
    // Aggregate arguments are evaluated per input tuple, not per group;
    // do not descend further.
    return;
  }
  collectAggregates(e->lhs.get(), out);
  collectAggregates(e->rhs.get(), out);
  for (const ExprPtr& item : e->list) collectAggregates(item.get(), out);
}

bool containsAggregate(const Expr* e) {
  if (e == nullptr) return false;
  if (e->kind == Expr::Kind::Aggregate) return true;
  if (containsAggregate(e->lhs.get()) || containsAggregate(e->rhs.get())) return true;
  for (const ExprPtr& item : e->list) {
    if (containsAggregate(item.get())) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Expression walking (parameter binding)
// ---------------------------------------------------------------------------

void forEachExpr(SelectStmt& sel, const std::function<void(Expr&)>& fn);

void forEachExpr(Expr* e, const std::function<void(Expr&)>& fn) {
  if (e == nullptr) return;
  fn(*e);
  forEachExpr(e->lhs.get(), fn);
  forEachExpr(e->rhs.get(), fn);
  for (const ExprPtr& item : e->list) forEachExpr(item.get(), fn);
  if (e->subquery) forEachExpr(*e->subquery, fn);
}

void forEachExpr(SelectStmt& sel, const std::function<void(Expr&)>& fn) {
  for (SelectItem& item : sel.items) forEachExpr(item.expr.get(), fn);
  for (TableRef& ref : sel.from) forEachExpr(ref.join_on.get(), fn);
  forEachExpr(sel.where.get(), fn);
  for (ExprPtr& e : sel.group_by) forEachExpr(e.get(), fn);
  forEachExpr(sel.having.get(), fn);
  for (OrderItem& item : sel.order_by) forEachExpr(item.expr.get(), fn);
}

void forEachExpr(Statement& stmt, const std::function<void(Expr&)>& fn) {
  switch (stmt.kind) {
    case Statement::Kind::Select:
      forEachExpr(*stmt.select, fn);
      break;
    case Statement::Kind::Insert:
      for (auto& row : stmt.insert->rows) {
        for (ExprPtr& e : row) forEachExpr(e.get(), fn);
      }
      break;
    case Statement::Kind::Update:
      for (auto& [name, e] : stmt.update->assignments) forEachExpr(e.get(), fn);
      forEachExpr(stmt.update->where.get(), fn);
      break;
    case Statement::Kind::Delete:
      forEachExpr(stmt.del->where.get(), fn);
      break;
    default:
      break;  // DDL/Txn/Vacuum carry no expressions
  }
}

}  // namespace

void bindParamValues(Statement& stmt, const std::vector<Value>& params) {
  forEachExpr(stmt, [&](Expr& e) {
    if (e.kind == Expr::Kind::Param) {
      e.value = params.at(static_cast<std::size_t>(e.param_index));
    }
  });
}

// ---------------------------------------------------------------------------
// Aggregation state
// ---------------------------------------------------------------------------

namespace {

struct AggState {
  std::int64_t count = 0;
  std::int64_t isum = 0;
  double rsum = 0.0;
  bool saw_real = false;
  Value min;
  Value max;
  std::map<EncodedKey, Value> distinct;  // DISTINCT aggregates: values seen

  void add(const Value& v, bool distinct_only) {
    if (v.isNull()) return;
    if (distinct_only) {
      EncodedKey key;
      encodeValue(v, key);
      if (!distinct.emplace(std::move(key), v).second) return;
    }
    ++count;
    if (v.isReal()) {
      saw_real = true;
      rsum += v.asReal();
    } else if (v.isInt()) {
      isum += v.asInt();
      rsum += static_cast<double>(v.asInt());
    }
    if (min.isNull() || v.compare(min) < 0) min = v;
    if (max.isNull() || v.compare(max) > 0) max = v;
  }

  /// Folds another worker's partial state of the same aggregate into this
  /// one; a DISTINCT state re-adds the other's values so duplicates across
  /// workers count once.
  void merge(const AggState& o, bool distinct_only) {
    if (distinct_only) {
      for (const auto& [key, v] : o.distinct) add(v, true);
      return;
    }
    count += o.count;
    isum += o.isum;
    rsum += o.rsum;
    saw_real = saw_real || o.saw_real;
    if (!o.min.isNull() && (min.isNull() || o.min.compare(min) < 0)) min = o.min;
    if (!o.max.isNull() && (max.isNull() || o.max.compare(max) > 0)) max = o.max;
  }

  Value result(AggFunc fn) const {
    switch (fn) {
      case AggFunc::Count: return Value(count);
      case AggFunc::Sum:
        if (count == 0) return Value::null();
        return saw_real ? Value(rsum) : Value(isum);
      case AggFunc::Avg:
        if (count == 0) return Value::null();
        return Value(rsum / static_cast<double>(count));
      case AggFunc::Min: return min;
      case AggFunc::Max: return max;
    }
    return Value::null();
  }
};

using OutputRows = std::vector<std::pair<Row, std::vector<Value>>>;

struct Group {
  Row first_row;  // the group's first input tuple, FROM entries side by side
  std::vector<AggState> aggs;
};

/// Grouped mode: Aggregate nodes read their accumulated slot; columns read
/// the group's first input tuple (SQLite-style bare-column semantics).
struct GroupCols {
  const Group& group;
  const Layout& layout;
  const Value& column(const Expr& e) const { return group.first_row.at(layout.of(e)); }
  Value aggregate(const Expr& e) const {
    return group.aggs.at(static_cast<std::size_t>(e.agg_slot)).result(e.agg);
  }
};

/// The grouped tail shared by AggregateOp and GatherOp: applies HAVING and
/// appends the group's output row and ORDER BY keys. `layout` is the
/// layout of the joined batches first_row was taken from.
void emitGroup(const SelectPlan& plan, const Layout& layout, const Group& g,
               OutputRows& out) {
  const SelectStmt& sel = *plan.sel;
  const GroupCols cols{g, layout};
  if (sel.having && !truthy(evalValue(*sel.having, cols))) return;
  Row row;
  row.reserve(plan.outputs.size());
  for (const SelectPlan::OutputCol& o : plan.outputs) {
    row.push_back(evalValue(*o.expr, cols));
  }
  std::vector<Value> keys;
  keys.reserve(sel.order_by.size());
  for (const OrderItem& item : sel.order_by) {
    keys.push_back(evalValue(*item.expr, cols));
  }
  out.emplace_back(std::move(row), std::move(keys));
}

/// A fully-aggregated SELECT over zero input rows still yields one row; bare
/// column refs are undefined over an empty input and report NULL.
void emitEmptyInputRow(const SelectPlan& plan, OutputRows& out) {
  Group empty;
  empty.aggs.resize(plan.aggregates.size());
  const Layout none{};
  Row row;
  for (const SelectPlan::OutputCol& o : plan.outputs) {
    if (containsAggregate(o.expr) || o.expr->kind == Expr::Kind::Literal) {
      row.push_back(evalValue(*o.expr, GroupCols{empty, none}));
    } else {
      row.push_back(Value::null());
    }
  }
  out.emplace_back(std::move(row), std::vector<Value>{});
}

/// Adds lane `cols.lane` of `b` to its group in `groups` (keyed by the
/// encoded GROUP BY values; the lane that creates a group becomes its first
/// tuple) and folds in every aggregate's argument. Returns the group and
/// whether this lane created it.
template <class Map>
std::pair<typename Map::mapped_type*, bool> accumulateLane(Map& groups,
                                                           const SelectPlan& plan,
                                                           const RowBatch& b,
                                                           const LaneCols& cols) {
  EncodedKey key;
  Value tmp;
  for (const ExprPtr& e : plan.sel->group_by) encodeValue(eval(*e, cols, tmp), key);
  auto [it, inserted] = groups.try_emplace(std::move(key));
  Group& g = it->second;
  if (inserted) {
    g.aggs.resize(plan.aggregates.size());
    b.materializeRow(cols.lane, g.first_row);
  }
  for (std::size_t a = 0; a < plan.aggregates.size(); ++a) {
    const Expr* agg = plan.aggregates[a];
    if (agg->lhs) {
      g.aggs[a].add(eval(*agg->lhs, cols, tmp), agg->agg_distinct);
    } else {
      ++g.aggs[a].count;  // COUNT(*)
    }
  }
  return {&it->second, inserted};
}

}  // namespace

// ---------------------------------------------------------------------------
// Subquery materialization and plan construction
// ---------------------------------------------------------------------------

void materializeSubqueries(Expr* e, Database& db, bool use_indexes) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::InSelect) {
    if (!e->subquery) throw SqlError("internal: InSelect without a subquery");
    const ResultSet rs = execSelect(db, *e->subquery, use_indexes, /*explain=*/false);
    auto values = std::make_shared<std::set<std::string>>();
    for (const Row& row : rs.rows) {
      if (row.empty() || row[0].isNull()) continue;  // NULL never matches IN
      EncodedKey key;
      encodeValue(row[0], key);
      values->insert(std::move(key));
    }
    e->subquery_values = std::move(values);
  }
  materializeSubqueries(e->lhs.get(), db, use_indexes);
  materializeSubqueries(e->rhs.get(), db, use_indexes);
  for (const ExprPtr& item : e->list) {
    materializeSubqueries(item.get(), db, use_indexes);
  }
}

void materializePlanSubqueries(Database& db, SelectPlan& plan) {
  // A FROM-less SELECT never materializes (mirrors the historical early
  // return; an InSelect there fails at evaluation time instead).
  if (plan.from.empty()) return;
  SelectStmt& sel = *plan.sel;
  for (const SelectPlan::PlannedConjunct& pc : plan.conjuncts) {
    materializeSubqueries(pc.expr, db, plan.use_indexes);
  }
  for (const SelectPlan::OutputCol& out : plan.outputs) {
    materializeSubqueries(out.expr, db, plan.use_indexes);
  }
  if (sel.having) materializeSubqueries(sel.having.get(), db, plan.use_indexes);
  for (OrderItem& item : sel.order_by) {
    materializeSubqueries(item.expr.get(), db, plan.use_indexes);
  }
}

SelectPlan buildSelectPlan(Database& db, SelectStmt& sel, bool use_indexes,
                           bool invidx) {
  SelectPlan plan;
  plan.sel = &sel;
  plan.epoch = db.schemaEpoch();
  plan.use_indexes = use_indexes;
  plan.invidx = invidx;

  // --- resolve FROM ---
  for (const TableRef& ref : sel.from) {
    const TableDef* def = db.catalog().findTable(ref.table);
    if (def == nullptr) throw SqlError("no such table: " + ref.table);
    plan.from.push_back({def, ref.alias});
  }
  Binder binder(plan.from);

  if (plan.from.empty()) {
    // SELECT without FROM: items evaluate against an empty tuple at run time.
    for (SelectItem& item : sel.items) {
      if (!item.expr) throw SqlError("SELECT * requires a FROM clause");
      binder.bind(*item.expr);
      plan.outputs.push_back({item.expr.get(),
                              item.alias.empty() ? "expr" : item.alias});
    }
    return plan;
  }

  // --- expand '*' and bind select items ---
  for (SelectItem& item : sel.items) {
    if (!item.expr) {
      for (std::size_t t = 0; t < plan.from.size(); ++t) {
        for (std::size_t c = 0; c < plan.from[t].def->columns.size(); ++c) {
          ExprPtr e = Expr::columnRef(plan.from[t].alias,
                                      plan.from[t].def->columns[c].name);
          binder.bind(*e);
          plan.outputs.push_back({e.get(), plan.from[t].def->columns[c].name});
          plan.star_exprs.push_back(std::move(e));
        }
      }
      continue;
    }
    binder.bind(*item.expr);
    std::string name = item.alias;
    if (name.empty()) {
      name = item.expr->kind == Expr::Kind::Column ? item.expr->column : "expr";
    }
    plan.outputs.push_back({item.expr.get(), std::move(name)});
  }

  // --- gather and bind conjuncts (WHERE + every JOIN ... ON) ---
  auto addConjuncts = [&](Expr* root, int on_table) {
    std::vector<Expr*> raw;
    collectConjuncts(root, raw);
    for (Expr* e : raw) {
      SelectPlan::PlannedConjunct pc;
      pc.expr = e;
      pc.max_table = binder.bind(*e);
      pc.on_table = on_table;
      plan.conjuncts.push_back(pc);
    }
  };
  addConjuncts(sel.where.get(), -1);
  for (std::size_t t = 0; t < sel.from.size(); ++t) {
    addConjuncts(sel.from[t].join_on.get(), static_cast<int>(t));
  }

  // --- bind the remaining clauses ---
  for (ExprPtr& e : sel.group_by) binder.bind(*e);
  if (sel.having) binder.bind(*sel.having);
  for (OrderItem& item : sel.order_by) binder.bind(*item.expr);

  // --- aggregation analysis ---
  for (const SelectPlan::OutputCol& out : plan.outputs) {
    collectAggregates(out.expr, plan.aggregates);
  }
  if (sel.having) collectAggregates(sel.having.get(), plan.aggregates);
  for (OrderItem& item : sel.order_by) {
    collectAggregates(item.expr.get(), plan.aggregates);
  }
  plan.grouped = !sel.group_by.empty() || !plan.aggregates.empty();

  // --- choose an access path per table ---
  plan.paths.assign(plan.from.size(), {});
  if (!use_indexes) return plan;

  // Highest FROM index a bound expression depends on (-1 = constant).
  std::function<int(const Expr*)> maxTableOf = [&](const Expr* x) -> int {
    if (x == nullptr) return -1;
    int m = -1;
    if (x->kind == Expr::Kind::Column) m = x->bound_table;
    m = std::max(m, maxTableOf(x->lhs.get()));
    m = std::max(m, maxTableOf(x->rhs.get()));
    for (const ExprPtr& item : x->list) m = std::max(m, maxTableOf(item.get()));
    return m;
  };

  for (std::size_t t = 0; t < plan.from.size(); ++t) {
    SelectPlan::AccessPath& path = plan.paths[t];
    for (const SelectPlan::PlannedConjunct& pc : plan.conjuncts) {
      Expr* e = pc.expr;

      // col IN (list): sorted multi-point probe when every list element is
      // computable before table t is scanned. Beats a range path, loses to
      // a single-key equality.
      if (e->kind == Expr::Kind::InList && !e->negated) {
        Expr* col = e->lhs.get();
        if (!(col->kind == Expr::Kind::Column &&
              col->bound_table == static_cast<int>(t))) {
          continue;
        }
        int list_max = -1;
        for (const ExprPtr& item : e->list) {
          list_max = std::max(list_max, maxTableOf(item.get()));
        }
        if (list_max >= static_cast<int>(t)) continue;
        const IndexDef* index =
            db.catalog().indexOnColumn(plan.from[t].def->name, col->bound_col);
        if (index == nullptr) continue;
        if (path.kind == SelectPlan::AccessPath::Kind::IndexEqual ||
            path.kind == SelectPlan::AccessPath::Kind::IndexInList ||
            path.kind == SelectPlan::AccessPath::Kind::PostingInList) {
          continue;
        }
        path = {};
        path.kind = SelectPlan::AccessPath::Kind::IndexInList;
        // Integer key columns of a non-unique index upgrade to the inverted
        // index: one posting lookup per key, rids emitted in the same
        // per-key order as the B-tree probes (the iterator falls back to
        // the index at runtime when the posting path must decline). A
        // unique key's posting lists hold one rid each, so they cannot beat
        // the B-tree probe and would only pin a whole-table rid index.
        if (invidx && !index->unique &&
            plan.from[t].def->columns[col->bound_col].type == ColumnType::Integer) {
          path.kind = SelectPlan::AccessPath::Kind::PostingInList;
        }
        path.index = index;
        path.key_column = col->bound_col;
        path.in_list = e;
        continue;
      }

      if (e->kind != Expr::Kind::Binary) continue;
      if (e->op != BinaryOp::Eq && e->op != BinaryOp::Lt && e->op != BinaryOp::Le &&
          e->op != BinaryOp::Gt && e->op != BinaryOp::Ge) {
        continue;
      }
      // Normalize: want column-of-t on the left.
      Expr* col = e->lhs.get();
      Expr* other = e->rhs.get();
      BinaryOp op = e->op;
      auto flip = [](BinaryOp o) {
        switch (o) {
          case BinaryOp::Lt: return BinaryOp::Gt;
          case BinaryOp::Le: return BinaryOp::Ge;
          case BinaryOp::Gt: return BinaryOp::Lt;
          case BinaryOp::Ge: return BinaryOp::Le;
          default: return o;
        }
      };
      if (!(col->kind == Expr::Kind::Column && col->bound_table == static_cast<int>(t))) {
        std::swap(col, other);
        op = flip(op);
        if (!(col->kind == Expr::Kind::Column &&
              col->bound_table == static_cast<int>(t))) {
          continue;
        }
      }
      // The other side must be computable before table t is scanned.
      if (maxTableOf(other) >= static_cast<int>(t)) continue;
      const IndexDef* index =
          db.catalog().indexOnColumn(plan.from[t].def->name, col->bound_col);
      if (index == nullptr) continue;
      if (op == BinaryOp::Eq) {
        path = {};
        path.kind = SelectPlan::AccessPath::Kind::IndexEqual;
        path.index = index;
        path.key_column = col->bound_col;
        path.equal_rhs = other;
        break;  // equality beats any other path
      }
      // Range bound: merge into an existing range path on the same column.
      if (path.kind == SelectPlan::AccessPath::Kind::IndexEqual ||
          path.kind == SelectPlan::AccessPath::Kind::IndexInList ||
          path.kind == SelectPlan::AccessPath::Kind::PostingInList) {
        continue;
      }
      if (path.kind == SelectPlan::AccessPath::Kind::IndexRange &&
          path.key_column != col->bound_col) {
        continue;
      }
      path.kind = SelectPlan::AccessPath::Kind::IndexRange;
      path.index = index;
      path.key_column = col->bound_col;
      if (op == BinaryOp::Gt || op == BinaryOp::Ge) {
        path.lower_rhs = other;
        path.lower_inclusive = op == BinaryOp::Ge;
      } else {
        path.upper_rhs = other;
        path.upper_inclusive = op == BinaryOp::Le;
      }
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// SlotIter — per-FROM-entry row producers inside the nested loop
// ---------------------------------------------------------------------------

void appendActuals(std::string& line, const OpStats& stats) {
  char buf[128];
  if (stats.batches > 0) {
    std::snprintf(buf, sizeof(buf),
                  " (actual rows=%llu loops=%llu time=%.3fms batches=%llu"
                  " avg_fill=%.1f)",
                  static_cast<unsigned long long>(stats.rows),
                  static_cast<unsigned long long>(stats.loops),
                  static_cast<double>(stats.time_ns) / 1e6,
                  static_cast<unsigned long long>(stats.batches),
                  static_cast<double>(stats.batch_rows) /
                      static_cast<double>(stats.batches));
  } else {
    std::snprintf(buf, sizeof(buf), " (actual rows=%llu loops=%llu time=%.3fms)",
                  static_cast<unsigned long long>(stats.rows),
                  static_cast<unsigned long long>(stats.loops),
                  static_cast<double>(stats.time_ns) / 1e6);
  }
  line += buf;
}

namespace {

std::string indentOf(int depth) { return std::string(2 * depth, ' '); }

/// Exec-layer metrics, resolved once (pt_exec_pool_threads lives in
/// exec_pool.cpp).
struct ExecCounters {
  obs::Counter& morsels_dispatched;
  obs::Counter& parallel_queries;
  obs::Counter& batches;
  obs::Histogram& gather_wait_ms;
  obs::Histogram& batch_fill;
};

ExecCounters& execCounters() {
  auto& reg = obs::Registry::global();
  static ExecCounters* c = new ExecCounters{
      reg.counter("pt_exec_morsels_dispatched_total"),
      reg.counter("pt_exec_parallel_queries_total"),
      reg.counter("pt_exec_batches_total"),
      reg.histogram("pt_exec_gather_wait_ms"),
      reg.histogram("pt_exec_batch_fill_rows"),
  };
  return *c;
}

/// Produces the candidate rows of one FROM entry for the current binding of
/// the earlier levels, a batch at a time. produced() counts rows emitted
/// since open(). Like RowOp, the public surface wraps virtual do*() hooks so
/// EXPLAIN ANALYZE can account loops/rows/time per iterator stage.
class SlotIter {
 public:
  virtual ~SlotIter() = default;

  void open() {
    if (!stats_.timed) return doOpen();
    ++stats_.loops;
    const detail::OpTick tick(stats_);
    doOpen();
  }
  /// Returns false only at end of stream (a true return carries at least
  /// one live row). Batch lanes index the rows the chain's leaf emitted;
  /// filter stages only shrink `sel`.
  bool nextBatch(RowBatch& out) {
    if (!stats_.timed) return doNextBatch(out);
    const detail::OpTick tick(stats_);
    const bool ok = doNextBatch(out);
    if (ok) stats_.rows += out.active();
    return ok;
  }
  void close() {
    if (!stats_.timed) return doClose();
    const detail::OpTick tick(stats_);
    doClose();
  }
  void describe(std::vector<std::string>& lines, int depth) const {
    const std::size_t first = lines.size();
    doDescribe(lines, depth);
    if (stats_.timed && first < lines.size()) appendActuals(lines[first], stats_);
  }

  virtual void setAnalyze(bool on) { stats_.timed = on; }
  std::size_t produced() const { return produced_; }

  /// Rank base of the batch last returned: morsel-fed level-0 iterators
  /// return (morsel id << kMorselRowBits), so lane i ranks at tag + i.
  virtual std::uint64_t batchTag() const { return 0; }

  /// Appends this stage's OpStats pointer (children first is not required;
  /// the order only has to match between two chains built from the same
  /// plan, which GatherOp relies on to roll worker stats into the template
  /// tree it describes).
  virtual void collectStats(std::vector<OpStats*>& out) { out.push_back(&stats_); }

 protected:
  virtual void doOpen() = 0;
  virtual bool doNextBatch(RowBatch& b) = 0;
  virtual void doClose() = 0;
  virtual void doDescribe(std::vector<std::string>& lines, int depth) const = 0;

  std::size_t produced_ = 0;
  OpStats stats_;
};

/// An access-path leaf. Storage cursors step one record at a time; the leaf
/// fills its batch by stepping readRow() up to the batch capacity, and
/// remembers the end so a refill after it costs nothing. Index bounds
/// evaluate against the nested loop's current binding (`slots`).
class LeafIter : public SlotIter {
 public:
  LeafIter(Database& db, const SelectPlan& plan, std::size_t t, const Slots& slots)
      : db_(&db), path_(&plan.paths[t]), entry_(&plan.from[t]), slots_(&slots) {}

 protected:
  virtual void openLeaf() = 0;
  virtual bool readRow(Row& out) = 0;

  void doOpen() final {
    produced_ = 0;
    at_end_ = false;
    openLeaf();
  }
  bool doNextBatch(RowBatch& b) final {
    if (at_end_) return false;
    b.clearRows();
    const std::size_t cap = b.capacity > 0 ? b.capacity : 1;
    while (b.nrows < cap) {
      if (!readRow(row_)) {
        at_end_ = true;
        break;
      }
      b.appendMoveValues(row_);
      row_.clear();
    }
    produced_ += b.nrows;
    return b.nrows > 0;
  }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + path_->describe(*entry_));
  }

  Database* db_;
  const SelectPlan::AccessPath* path_;
  const SelectPlan::FromEntry* entry_;
  const Slots* slots_;

 private:
  Row row_;
  bool at_end_ = false;
};

/// Sequential scan, index point probe, or index range: one storage cursor.
///
/// A unique-key point probe whose key repeats on the next open (an inner
/// join level whose consecutive outer rows share the join key, like the
/// results of one execution) records that probe's row and replays it for
/// every further open with the same key. Rows cannot change while the
/// pipeline runs: the cursor pin (or snapshot) blocks mutations.
class CursorIter : public LeafIter {
 public:
  using LeafIter::LeafIter;

 protected:
  void openLeaf() override {
    scan_.reset();
    probe_.reset();
    replaying_ = false;
    recording_ = false;
    const SlotCols cols{*slots_};
    switch (path_->kind) {
      case SelectPlan::AccessPath::Kind::Scan:
        scan_.emplace(db_->openCursor(entry_->def->name));
        break;
      case SelectPlan::AccessPath::Kind::IndexEqual: {
        Value key = evalValue(*path_->equal_rhs, cols);
        if (key.isNull()) break;  // col = NULL matches nothing; may null-extend
        if (path_->index->unique) {
          if (last_key_ && last_key_->compare(key) == 0) {
            replaying_ = memo_ready_;
            recording_ = !memo_ready_;
          } else {
            last_key_ = key;
            memo_ready_ = false;
          }
          if (replaying_) {
            replay_ = 0;
            break;
          }
          memo_.clear();
        }
        probe_.emplace(db_->openIndexEqual(*path_->index, {std::move(key)}));
        break;
      }
      default: {  // IndexRange
        std::optional<Value> lower;
        std::optional<Value> upper;
        if (path_->lower_rhs) lower = evalValue(*path_->lower_rhs, cols);
        if (path_->upper_rhs) upper = evalValue(*path_->upper_rhs, cols);
        probe_.emplace(db_->openIndexRange(*path_->index, std::move(lower),
                                           path_->lower_inclusive, std::move(upper),
                                           path_->upper_inclusive));
      }
    }
  }
  bool readRow(Row& out) override {
    RecordId rid;
    if (scan_) return scan_->next(rid, out);
    if (replaying_) {
      if (replay_ >= memo_.size()) return false;
      out = memo_[replay_++];
      return true;
    }
    if (!probe_) return false;
    if (probe_->next(rid, out)) {
      if (recording_) memo_.push_back(out);
      return true;
    }
    memo_ready_ = recording_;  // only a probe read to its end is replayable
    return false;
  }
  void doClose() override {
    scan_.reset();
    probe_.reset();
  }

 private:
  std::optional<Database::TableCursor> scan_;
  std::optional<Database::IndexCursor> probe_;
  std::optional<Value> last_key_;  // key of the last point probe
  std::vector<Row> memo_;          // its row (if any), recorded on a repeat
  bool memo_ready_ = false;        // memo_ holds every row of last_key_
  bool recording_ = false;
  bool replaying_ = false;
  std::size_t replay_ = 0;
};

/// IN-list probe over the keys' sorted, deduplicated non-NULL values (col IN
/// (..., NULL) never matches NULL). IndexInList is a sorted multi-point
/// probe: one B+-tree descent per distinct key, in key order.
/// PostingInList answers from the inverted index instead: each key's rid
/// posting is decoded and rows are fetched by RecordId. Packed rids ascend
/// (page, slot), exactly the order a B+-tree point probe emits one key's
/// rows, so both forms stream identical rows. The posting form falls back
/// to the B-tree when the index declines (snapshot read, a non-integer
/// value in the column) or a key is not an integer; EXPLAIN ANALYZE names
/// the reason.
class InListIter : public LeafIter {
 public:
  using LeafIter::LeafIter;

 protected:
  void openLeaf() override {
    probes_ = 0;
    hits_ = 0;
    cur_.reset();
    pcur_.reset();
    index_.reset();
    next_key_ = 0;
    decline_.clear();
    keys_.clear();
    bool all_int = true;
    for (const ExprPtr& item : path_->in_list->list) {
      Value v = evalValue(*item, SlotCols{*slots_});
      if (v.isNull()) continue;
      all_int = all_int && v.isInt();
      keys_.push_back(std::move(v));
    }
    std::sort(keys_.begin(), keys_.end(),
              [](const Value& a, const Value& b) { return a.compare(b) < 0; });
    keys_.erase(std::unique(keys_.begin(), keys_.end(),
                            [](const Value& a, const Value& b) {
                              return a.compare(b) == 0;
                            }),
                keys_.end());
    if (path_->kind != SelectPlan::AccessPath::Kind::PostingInList) return;
    if (!all_int) {
      // Mixed-type key list: the manager never saw this probe, count the
      // fallback here (the manager counts its own declines).
      invidx::counters().fallbacks.inc();
      decline_ = "non-integer key";
      return;
    }
    index_ = db_->invidx().ridIndex(entry_->def->name, path_->key_column);
    if (!index_) {
      decline_ = db_->pager().snapshotScopeActive() ? "snapshot read"
                                                    : "non-integer column value";
    }
  }
  bool readRow(Row& out) override {
    for (;;) {
      if (index_) {
        if (pcur_ && pcur_->valid()) {
          const std::uint64_t packed = pcur_->value();
          pcur_->next();
          const RecordId rid{static_cast<PageId>(packed >> 16),
                             static_cast<std::uint16_t>(packed & 0xffff)};
          std::optional<Row> row = db_->readRow(entry_->def->name, rid);
          if (!row) continue;  // defensive: a valid index has no dangling rids
          out = std::move(*row);
          return true;
        }
        if (next_key_ >= keys_.size()) return false;
        ++probes_;
        invidx::counters().probes.inc();
        const invidx::PostingList* pl = index_->find(keys_[next_key_++].asInt());
        pcur_.reset();
        if (pl) {
          hits_ += pl->size();
          pcur_.emplace(pl->cursor());
        }
        continue;
      }
      RecordId rid;
      if (cur_ && cur_->next(rid, out)) return true;
      if (next_key_ >= keys_.size()) return false;
      cur_.emplace(db_->openIndexEqual(*path_->index, {keys_[next_key_++]}));
    }
  }
  void doClose() override {
    cur_.reset();
    pcur_.reset();
    index_.reset();
    keys_.clear();
    next_key_ = 0;
  }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    std::string line = indentOf(depth) + path_->describe(*entry_);
    if (probes_ > 0) {
      line += " [postings: " + std::to_string(probes_) + " probed, " +
              std::to_string(hits_) + " ids]";
    } else if (!decline_.empty() && (produced_ > 0 || next_key_ > 0)) {
      line += " [btree fallback: " + decline_ + "]";
    }
    lines.push_back(line);
  }

 private:
  std::shared_ptr<const invidx::RidIndex> index_;  // posting form only
  std::vector<Value> keys_;
  std::size_t next_key_ = 0;
  std::size_t probes_ = 0;
  std::size_t hits_ = 0;
  std::string decline_;  // why the posting form fell back to the B-tree
  std::optional<invidx::PostingList::Cursor> pcur_;
  std::optional<Database::IndexCursor> cur_;
};

/// The leaf for `plan.paths[t]`.
std::unique_ptr<SlotIter> makeLeaf(Database& db, const SelectPlan& plan,
                                   std::size_t t, const Slots& slots) {
  switch (plan.paths[t].kind) {
    case SelectPlan::AccessPath::Kind::IndexInList:
    case SelectPlan::AccessPath::Kind::PostingInList:
      return std::make_unique<InListIter>(db, plan, t, slots);
    default:
      return std::make_unique<CursorIter>(db, plan, t, slots);
  }
}

/// Applies a conjunct list to the child's batches, compacting the selection
/// vector. While a lane is tested, the level's slot points at it; columns
/// of earlier FROM entries read the nested loop's current binding.
class FilterIter : public SlotIter {
 public:
  FilterIter(std::unique_ptr<SlotIter> child, std::vector<Expr*> conjuncts,
             Slots& slots, std::size_t slot, bool is_on)
      : child_(std::move(child)),
        conjuncts_(std::move(conjuncts)),
        slots_(&slots),
        slot_(slot),
        is_on_(is_on) {}

  std::uint64_t batchTag() const override { return child_->batchTag(); }
  void setAnalyze(bool on) override {
    stats_.timed = on;
    child_->setAnalyze(on);
  }
  void collectStats(std::vector<OpStats*>& out) override {
    out.push_back(&stats_);
    child_->collectStats(out);
  }

 protected:
  void doOpen() override {
    produced_ = 0;
    child_->open();
  }
  bool doNextBatch(RowBatch& b) override {
    Slot& slot = (*slots_)[slot_];
    const SlotCols cols{*slots_};
    while (child_->nextBatch(b)) {
      slot.batch = &b;
      sel_scratch_.clear();
      for (const std::uint32_t i : b.sel) {
        slot.lane = i;
        if (allHold(conjuncts_, cols)) sel_scratch_.push_back(i);
      }
      slot.batch = nullptr;
      b.sel.swap(sel_scratch_);
      // A batch whose selection vector emptied stays internal: loop for the
      // next child batch rather than emitting a zero-row batch upstream.
      if (!b.sel.empty()) {
        produced_ += b.sel.size();
        return true;
      }
    }
    return false;
  }
  void doClose() override { child_->close(); }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + (is_on_ ? "FILTER ON (" : "FILTER (") +
                    std::to_string(conjuncts_.size()) + " conjunct" +
                    (conjuncts_.size() == 1 ? "" : "s") + ")");
    child_->describe(lines, depth + 1);
  }

 private:
  std::unique_ptr<SlotIter> child_;
  std::vector<Expr*> conjuncts_;
  Slots* slots_;
  std::size_t slot_;
  bool is_on_;
  std::vector<std::uint32_t> sel_scratch_;
};

// ---------------------------------------------------------------------------
// NestedLoop — batch-at-a-time join over the per-table SlotIter chains
// ---------------------------------------------------------------------------

/// Marks every column an expression reads (subqueries bind their own FROM
/// list and are skipped).
void markColumns(const Expr* e, std::vector<std::vector<bool>>& used) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::Column) {
    used[static_cast<std::size_t>(e->bound_table)][static_cast<std::size_t>(e->bound_col)] =
        true;
    return;
  }
  markColumns(e->lhs.get(), used);
  markColumns(e->rhs.get(), used);
  for (const ExprPtr& item : e->list) markColumns(item.get(), used);
}

/// Pull-based nested-loop join that fills column-major output batches. A
/// joined tuple is one output lane with the FROM entries' columns side by
/// side (see Layout); only columns read above the join (outputs, grouping,
/// HAVING, ORDER BY) are copied. A single-table loop hands the level-0
/// chain's batches up untouched.
///
/// Inner levels are opened once per outer row (EXPLAIN ANALYZE loops=) and
/// pulled at most the output's remaining room at a time, so an early stop
/// above (LIMIT) reads no further ahead than the room it asked for. LEFT
/// JOIN follows standard semantics: a row "matches" when it passes the
/// table's ON conjuncts; if nothing matches, one null-extended row is
/// produced and only non-ON (WHERE) conjuncts apply to it.
class NestedLoop {
 public:
  /// `level0` (optional) replaces the base scan/probe iterator of the first
  /// FROM entry; GatherOp feeds per-worker loops from a shared MorselSource
  /// this way while the filter chain and join levels stay identical.
  NestedLoop(Database& db, SelectPlan& plan, std::size_t batch_rows,
             std::unique_ptr<SlotIter> level0 = nullptr)
      : batch_rows_(batch_rows > 0 ? batch_rows : 1), slots_(plan.from.size()) {
    const SelectStmt& sel = *plan.sel;
    for (std::size_t t = 0; t < plan.from.size(); ++t) {
      Level lv;
      const SelectPlan::AccessPath& path = plan.paths[t];
      std::unique_ptr<SlotIter> it =
          (t == 0 && level0) ? std::move(level0) : makeLeaf(db, plan, t, slots_);
      SlotIter* matched = it.get();
      // Route the conjuncts due at this level: ON conjuncts decide LEFT JOIN
      // matching; the rest filter accepted rows. A conjunct consumed by an
      // IN-list probe already holds by construction and is skipped — except
      // on null-extended rows, which must still fail `col IN (...)`.
      std::vector<Expr*> on_list;
      std::vector<Expr*> where_list;
      for (const SelectPlan::PlannedConjunct& pc : plan.conjuncts) {
        const bool due = pc.max_table == static_cast<int>(t) ||
                         (t == 0 && pc.max_table <= 0);
        if (!due) continue;
        if (pc.on_table == static_cast<int>(t)) {
          if (pc.expr != path.in_list) on_list.push_back(pc.expr);
        } else {
          lv.null_conjuncts.push_back(pc.expr);
          if (pc.expr != path.in_list) where_list.push_back(pc.expr);
        }
      }
      if (!on_list.empty()) {
        it = std::make_unique<FilterIter>(std::move(it), std::move(on_list),
                                          slots_, t, /*is_on=*/true);
        matched = it.get();
      }
      if (!where_list.empty()) {
        it = std::make_unique<FilterIter>(std::move(it), std::move(where_list),
                                          slots_, t, /*is_on=*/false);
      }
      lv.top = std::move(it);
      lv.matched_stage = matched;
      lv.left_join = sel.from[t].left_join;
      if (lv.left_join) {
        Row nulls(plan.from[t].def->columns.size());
        lv.null_row.appendMoveValues(nulls);  // one all-NULL lane
      }
      levels_.push_back(std::move(lv));
    }
    if (levels_.size() == 1) return;  // batches pass through: identity layout
    std::vector<std::vector<bool>> used;
    for (const SelectPlan::FromEntry& entry : plan.from) {
      used.emplace_back(entry.def->columns.size(), false);
    }
    for (const SelectPlan::OutputCol& out : plan.outputs) markColumns(out.expr, used);
    for (const ExprPtr& e : sel.group_by) markColumns(e.get(), used);
    markColumns(sel.having.get(), used);
    for (const OrderItem& item : sel.order_by) markColumns(item.expr.get(), used);
    for (std::size_t t = 0; t < used.size(); ++t) {
      layout_.base.push_back(static_cast<std::uint32_t>(layout_.index.size()));
      for (std::uint32_t c = 0; c < used[t].size(); ++c) {
        layout_.index.push_back(used[t][c] ? width_++ : 0);
        if (used[t][c]) levels_[t].emit.push_back(c);
      }
    }
  }

  void open() {
    if (!stats_.timed) return openImpl();
    ++stats_.loops;
    const detail::OpTick tick(stats_);
    openImpl();
  }
  /// Fills `out` with up to out.capacity joined tuples (batch_rows when 0);
  /// returns false only at end of stream.
  bool nextBatch(RowBatch& out) {
    if (!stats_.timed) return nextBatchImpl(out);
    const detail::OpTick tick(stats_);
    const bool ok = nextBatchImpl(out);
    if (ok) stats_.rows += out.active();
    return ok;
  }
  void close() {
    if (!stats_.timed) return closeImpl();
    const detail::OpTick tick(stats_);
    closeImpl();
  }

  /// Arms EXPLAIN ANALYZE accounting on the loop and every SlotIter chain.
  void setAnalyze(bool on) {
    stats_.timed = on;
    for (Level& lv : levels_) lv.top->setAnalyze(on);
  }

  /// Records ranks(): morsel-fed worker loops need each output lane's
  /// global scan rank for deterministic merges.
  void trackRanks() { track_ranks_ = true; }
  /// Per lane of the last output batch: the level-0 iterator's batchTag()
  /// plus the outer row's lane.
  const std::vector<std::uint64_t>& ranks() const { return ranks_; }

  const Layout& layout() const { return layout_; }

  /// OpStats pointers in construction order (loop, then each level's chain).
  /// Two loops built from the same plan produce parallel lists, so worker
  /// stats can be rolled element-wise into a template tree.
  void collectStats(std::vector<OpStats*>& out) {
    out.push_back(&stats_);
    for (Level& lv : levels_) lv.top->collectStats(out);
  }

  /// Adds `other`'s per-stage counters into this loop's (EXPLAIN ANALYZE
  /// roll-up of per-worker pipelines into the described template).
  void absorbStats(NestedLoop& other) {
    std::vector<OpStats*> mine;
    std::vector<OpStats*> theirs;
    collectStats(mine);
    other.collectStats(theirs);
    const std::size_t n = std::min(mine.size(), theirs.size());
    for (std::size_t i = 0; i < n; ++i) {
      mine[i]->loops += theirs[i]->loops;
      mine[i]->rows += theirs[i]->rows;
      mine[i]->time_ns += theirs[i]->time_ns;
    }
  }

  void describe(std::vector<std::string>& lines, int depth) const {
    int child_depth = depth;
    if (levels_.size() > 1) {
      std::string line = indentOf(depth) + "NESTED LOOP JOIN (" +
                         std::to_string(levels_.size()) + " tables)";
      if (stats_.timed) appendActuals(line, stats_);
      lines.push_back(std::move(line));
      child_depth = depth + 1;
    }
    for (const Level& lv : levels_) lv.top->describe(lines, child_depth);
  }

 private:
  struct Level {
    std::unique_ptr<SlotIter> top;      // filter stages over the scan/probe
    SlotIter* matched_stage = nullptr;  // produced() > 0 <=> ON-matched
    RowBatch batch;                     // candidates under the current binding
    std::size_t pos = 0;                // next unconsumed index into batch.sel
    bool exhausted = false;
    RowBatch null_row;                  // one all-NULL lane
    std::vector<std::uint32_t> emit;    // columns copied into output lanes
    bool left_join = false;
    std::vector<Expr*> null_conjuncts;  // checked on the null-extended row
    bool null_pending = false;
    bool null_done = false;
  };

  void openImpl() {
    started_ = false;
    done_ = false;
    depth_ = 0;
    for (Slot& s : slots_) s = Slot{};
  }

  bool nextBatchImpl(RowBatch& out) {
    if (done_) return false;
    if (!started_) {
      started_ = true;
      openLevel(0);
    }
    if (out.capacity == 0) out.capacity = batch_rows_;
    ranks_.clear();
    if (levels_.size() == 1) {
      if (!levels_[0].top->nextBatch(out)) {
        ascend(0);
        done_ = true;
        return false;
      }
      if (track_ranks_) {
        const std::uint64_t tag = levels_[0].top->batchTag();
        for (std::uint32_t i = 0; i < out.nrows; ++i) ranks_.push_back(tag + i);
      }
      return true;
    }
    out.reset(width_, 0);
    const int last = static_cast<int>(levels_.size()) - 1;
    while (out.nrows < out.capacity && depth_ >= 0) {
      Level& lv = levels_[static_cast<std::size_t>(depth_)];
      Slot& slot = slots_[static_cast<std::size_t>(depth_)];
      if (lv.null_pending) {
        lv.null_pending = false;
        slot = {&lv.null_row, 0};
        if (!allHold(lv.null_conjuncts, SlotCols{slots_})) {
          depth_ = ascend(depth_);
          continue;
        }
      } else if (lv.pos < lv.batch.sel.size()) {
        slot = {&lv.batch, lv.batch.sel[lv.pos++]};
      } else if (!lv.exhausted) {
        // Refill: never pull more candidates than the output has room for.
        lv.batch.capacity = out.capacity - out.nrows;
        lv.pos = 0;
        if (lv.top->nextBatch(lv.batch)) {
          if (depth_ == 0) tag0_ = lv.top->batchTag();
        } else {
          lv.batch.sel.clear();
          lv.exhausted = true;
        }
        continue;
      } else {
        if (lv.left_join && !lv.null_done && lv.matched_stage->produced() == 0) {
          lv.null_pending = true;
          lv.null_done = true;
          continue;
        }
        depth_ = ascend(depth_);
        continue;
      }
      if (depth_ == last) {
        emit(out);
      } else {
        openLevel(static_cast<std::size_t>(++depth_));
      }
    }
    if (depth_ < 0) done_ = true;
    return out.nrows > 0;
  }

  /// Appends the current binding as one output lane. The innermost row is
  /// consumed by exactly this lane, so its values move; outer rows repeat
  /// across lanes and are copied.
  void emit(RowBatch& out) {
    const std::size_t last = levels_.size() - 1;
    std::size_t d = 0;
    for (std::size_t t = 0; t <= last; ++t) {
      const Slot& s = slots_[t];
      if (t == last && s.batch == &levels_[t].batch) {
        for (const std::uint32_t c : levels_[t].emit) {
          out.cols[d++].push_back(std::move(levels_[t].batch.cols[c][s.lane]));
        }
      } else {
        for (const std::uint32_t c : levels_[t].emit) {
          out.cols[d++].push_back(s.batch->cols[c][s.lane]);
        }
      }
    }
    if (track_ranks_) ranks_.push_back(tag0_ + slots_[0].lane);
    out.sel.push_back(static_cast<std::uint32_t>(out.nrows++));
  }

  void closeImpl() {
    for (Level& lv : levels_) lv.top->close();
    for (Slot& s : slots_) s = Slot{};
    done_ = true;
  }

  void openLevel(std::size_t t) {
    Level& lv = levels_[t];
    lv.null_pending = false;
    lv.null_done = false;
    lv.exhausted = false;
    lv.pos = 0;
    lv.batch.sel.clear();
    slots_[t] = Slot{};
    lv.top->open();
  }

  int ascend(int t) {
    levels_[static_cast<std::size_t>(t)].top->close();
    slots_[static_cast<std::size_t>(t)] = Slot{};
    return t - 1;
  }

  std::size_t batch_rows_;
  Layout layout_;
  std::uint32_t width_ = 0;  // columns of a joined output batch
  Slots slots_;
  std::vector<Level> levels_;
  std::vector<std::uint64_t> ranks_;
  std::uint64_t tag0_ = 0;  // level 0's batchTag() for its current batch
  bool track_ranks_ = false;
  int depth_ = 0;  // level being advanced (-1 once every level is done)
  bool started_ = false;
  bool done_ = false;
  OpStats stats_;
};

// ---------------------------------------------------------------------------
// Operators above the join
// ---------------------------------------------------------------------------

/// The EXPLAIN text of an aggregation stage after its name:
/// " (N aggregates, M group keys)", plus " HAVING".
std::string aggregateShape(const SelectPlan& plan) {
  const SelectStmt& sel = *plan.sel;
  std::string s = " (" + std::to_string(plan.aggregates.size()) + " aggregate" +
                  (plan.aggregates.size() == 1 ? "" : "s") + ", " +
                  std::to_string(sel.group_by.size()) + " group key" +
                  (sel.group_by.size() == 1 ? "" : "s") + ")";
  if (sel.having) s += " HAVING";
  return s;
}

/// The EXPLAIN text of a projection stage: "PROJECT a, b, ...".
std::string projectLine(const SelectPlan& plan) {
  std::string line = "PROJECT ";
  for (std::size_t i = 0; i < plan.outputs.size(); ++i) {
    if (i > 0) line += ", ";
    line += plan.outputs[i].name;
  }
  return line;
}

/// Hands buffered (row, ORDER BY keys) pairs out at most `cap` at a time;
/// false once `pos` reaches the end.
bool emitBuffered(OutputRows& rows, std::size_t& pos, RowBatch& b, std::size_t cap,
                  std::size_t nkeys) {
  if (pos >= rows.size()) return false;
  b.reset(rows[pos].first.size(), nkeys);
  while (b.nrows < cap && pos < rows.size()) {
    b.appendMoveValues(rows[pos].first, rows[pos].second);
    ++pos;
  }
  return true;
}

/// SELECT without FROM: one row of constant expressions.
class ConstRowOp : public RowOp {
 public:
  explicit ConstRowOp(SelectPlan& plan) : plan_(&plan) {}

  void doOpen() override { emitted_ = false; }
  bool doNextBatch(RowBatch& b) override {
    if (emitted_) return false;
    emitted_ = true;
    Row row;
    row.reserve(plan_->outputs.size());
    for (const SelectPlan::OutputCol& out : plan_->outputs) {
      row.push_back(evalConst(*out.expr));
    }
    b.reset(row.size(), 0);
    b.appendMoveValues(row);
    return true;
  }
  void doClose() override {}
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + "CONST ROW");
  }

 private:
  SelectPlan* plan_;
  bool emitted_ = false;
};

/// How many times `e` reads the column that `col` refers to.
int readsOf(const Expr* e, const Expr& col) {
  if (e == nullptr) return 0;
  if (e->kind == Expr::Kind::Column) {
    return e->bound_table == col.bound_table && e->bound_col == col.bound_col ? 1 : 0;
  }
  int n = readsOf(e->lhs.get(), col) + readsOf(e->rhs.get(), col);
  for (const ExprPtr& item : e->list) n += readsOf(item.get(), col);
  return n;
}

/// Evaluates the output expressions (and ORDER BY keys) column by column
/// over each joined batch.
class ProjectOp : public RowOp {
 public:
  ProjectOp(std::unique_ptr<NestedLoop> src, SelectPlan& plan, std::size_t batch_rows)
      : src_(std::move(src)), plan_(&plan), batch_rows_(batch_rows) {
    // A bare column that no other output or key reads is moved out of the
    // (consumed) input batch instead of copied.
    for (const SelectPlan::OutputCol& out : plan.outputs) {
      const Expr& e = *out.expr;
      int reads = 0;
      if (e.kind == Expr::Kind::Column) {
        for (const SelectPlan::OutputCol& o : plan.outputs) reads += readsOf(o.expr, e);
        for (const OrderItem& item : plan.sel->order_by) {
          reads += readsOf(item.expr.get(), e);
        }
      }
      steal_.push_back(reads == 1);
    }
  }

  void doOpen() override { src_->open(); }
  bool doNextBatch(RowBatch& b) override {
    in_.capacity = b.capacity ? b.capacity : batch_rows_;
    if (!src_->nextBatch(in_)) return false;
    const SelectStmt& sel = *plan_->sel;
    b.reset(plan_->outputs.size(), sel.order_by.size());
    auto project = [&](const Expr& e, std::vector<Value>& dst) {
      dst.reserve(in_.sel.size());
      for (const std::uint32_t i : in_.sel) {
        dst.push_back(evalValue(e, LaneCols{in_, src_->layout(), i}));
      }
    };
    for (std::size_t c = 0; c < plan_->outputs.size(); ++c) {
      const Expr& e = *plan_->outputs[c].expr;
      if (!steal_[c]) {
        project(e, b.cols[c]);
        continue;
      }
      std::vector<Value>& src = in_.cols[src_->layout().of(e)];
      b.cols[c].reserve(in_.sel.size());
      for (const std::uint32_t i : in_.sel) b.cols[c].push_back(std::move(src[i]));
    }
    for (std::size_t k = 0; k < sel.order_by.size(); ++k) {
      project(*sel.order_by[k].expr, b.keys[k]);
    }
    b.nrows = in_.sel.size();
    b.sel.resize(b.nrows);
    for (std::size_t i = 0; i < b.nrows; ++i) b.sel[i] = static_cast<std::uint32_t>(i);
    return true;
  }
  void doClose() override { src_->close(); }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + projectLine(*plan_));
    src_->describe(lines, depth + 1);
  }
  void setAnalyze(bool on) override {
    stats_.timed = on;
    src_->setAnalyze(on);
  }

 private:
  std::unique_ptr<NestedLoop> src_;
  SelectPlan* plan_;
  std::size_t batch_rows_;
  std::vector<bool> steal_;  // per output: move the input column, not copy
  RowBatch in_;
};

/// Blocking aggregation: drains the join on the first pull, groups by the
/// GROUP BY keys (probing the group map per live lane), then emits one row
/// per HAVING-surviving group in encoded-key order.
class AggregateOp : public RowOp {
 public:
  AggregateOp(std::unique_ptr<NestedLoop> src, SelectPlan& plan, std::size_t batch_rows)
      : src_(std::move(src)), plan_(&plan), batch_rows_(batch_rows) {}

  void doOpen() override {
    src_->open();
    built_ = false;
    out_.clear();
    pos_ = 0;
  }
  bool doNextBatch(RowBatch& b) override {
    if (!built_) build();
    return emitBuffered(out_, pos_, b, b.capacity ? b.capacity : batch_rows_,
                        plan_->sel->order_by.size());
  }
  void doClose() override {
    src_->close();
    out_.clear();
    pos_ = 0;
  }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + "AGGREGATE" + aggregateShape(*plan_));
    src_->describe(lines, depth + 1);
  }
  void setAnalyze(bool on) override {
    stats_.timed = on;
    src_->setAnalyze(on);
  }

 private:
  void build() {
    const SelectStmt& sel = *plan_->sel;
    std::map<EncodedKey, Group> groups;
    RowBatch in;
    in.capacity = batch_rows_;
    while (src_->nextBatch(in)) {
      for (const std::uint32_t i : in.sel) {
        accumulateLane(groups, *plan_, in, LaneCols{in, src_->layout(), i});
      }
    }
    src_->close();
    for (const auto& [key, group] : groups) {
      emitGroup(*plan_, src_->layout(), group, out_);
    }
    if (groups.empty() && sel.group_by.empty()) emitEmptyInputRow(*plan_, out_);
    built_ = true;
  }

  std::unique_ptr<NestedLoop> src_;
  SelectPlan* plan_;
  std::size_t batch_rows_;
  bool built_ = false;
  OutputRows out_;
  std::size_t pos_ = 0;
};

/// Streaming duplicate elimination on the projected row values.
class DistinctOp : public RowOp {
 public:
  explicit DistinctOp(std::unique_ptr<RowOp> child) : child_(std::move(child)) {}

  void doOpen() override {
    child_->open();
    seen_.clear();
  }
  bool doNextBatch(RowBatch& b) override {
    // Probe the seen-set per live lane and compact the selection vector;
    // a batch whose rows are all duplicates is skipped, not returned empty.
    while (child_->nextBatch(b)) {
      sel_scratch_.clear();
      for (std::uint32_t i : b.sel) {
        EncodedKey key;
        for (const auto& c : b.cols) encodeValue(c[i], key);
        if (seen_.insert(std::move(key)).second) sel_scratch_.push_back(i);
      }
      b.sel.swap(sel_scratch_);
      if (!b.sel.empty()) return true;
    }
    return false;
  }
  void doClose() override {
    child_->close();
    seen_.clear();
  }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + "DISTINCT");
    child_->describe(lines, depth + 1);
  }
  void setAnalyze(bool on) override {
    stats_.timed = on;
    child_->setAnalyze(on);
  }

 private:
  std::unique_ptr<RowOp> child_;
  std::set<EncodedKey> seen_;
  std::vector<std::uint32_t> sel_scratch_;
};

/// A row waiting in a sort: its ORDER BY keys, the row, and its input
/// position (`seq`, then `sub` for the join outputs of one outer row) as the
/// final tie-break, so every sort is stable.
struct SortEntry {
  std::vector<Value> keys;
  Row row;
  std::uint64_t seq = 0;
  std::uint64_t sub = 0;
};

/// The ORDER BY ordering of sort entries.
struct SortBefore {
  const std::vector<OrderItem>* order;
  bool operator()(const SortEntry& a, const SortEntry& b) const {
    const std::size_t n = std::min({order->size(), a.keys.size(), b.keys.size()});
    for (std::size_t i = 0; i < n; ++i) {
      const int c = a.keys[i].compare(b.keys[i]);
      if (c != 0) return (*order)[i].descending ? c > 0 : c < 0;
    }
    return a.seq != b.seq ? a.seq < b.seq : a.sub < b.sub;
  }
};

/// Whether `e` (its row possibly not yet built) enters `rows`: always without
/// a bound; with one, while the heap has room or when `e` sorts before the
/// last entry kept (a LIMIT 0 bound keeps nothing).
bool admits(const std::vector<SortEntry>& rows, const SortEntry& e,
            std::optional<std::size_t> top_k, const SortBefore& before) {
  return !top_k || (*top_k > 0 && (rows.size() < *top_k || before(e, rows.front())));
}

/// Adds an admitted `e` to `rows`; with a bound, `rows` is a heap keeping
/// the `*top_k` first entries.
void keepSorted(std::vector<SortEntry>& rows, SortEntry e,
                std::optional<std::size_t> top_k, const SortBefore& before) {
  rows.push_back(std::move(e));
  if (!top_k) return;
  std::push_heap(rows.begin(), rows.end(), before);
  if (rows.size() > *top_k) {
    std::pop_heap(rows.begin(), rows.end(), before);
    rows.pop_back();
  }
}

/// Blocking sort on the ORDER BY keys. With a pushed-down LIMIT the sort
/// keeps a bounded top-K heap (K = offset + limit) instead of materializing
/// and sorting every input row. An input sequence number is the final
/// comparison key, so the output order is exactly what a stable sort of the
/// full input would produce.
class SortOp : public RowOp {
 public:
  SortOp(std::unique_ptr<RowOp> child, SelectPlan& plan,
         std::optional<std::size_t> top_k, std::size_t batch_rows)
      : child_(std::move(child)),
        plan_(&plan),
        top_k_(top_k),
        batch_rows_(batch_rows > 0 ? batch_rows : 1) {}

  void doOpen() override {
    child_->open();
    sorted_ = false;
    rows_.clear();
    pos_ = 0;
  }
  bool doNextBatch(RowBatch& b) override {
    if (!sorted_) drain();
    if (pos_ >= rows_.size()) return false;
    const std::size_t cap = b.capacity ? b.capacity : batch_rows_;
    // Keys are consumed by the sort; downstream sees plain rows.
    b.reset(rows_[pos_].row.size(), 0);
    while (b.nrows < cap && pos_ < rows_.size()) {
      b.appendMoveValues(rows_[pos_].row);
      ++pos_;
    }
    return true;
  }
  void doClose() override {
    child_->close();
    rows_.clear();
    pos_ = 0;
  }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    const std::size_t n = plan_->sel->order_by.size();
    std::string line = indentOf(depth) + "SORT BY " + std::to_string(n) + " key" +
                       (n == 1 ? "" : "s");
    if (top_k_) line += " (TOP-K " + std::to_string(*top_k_) + ")";
    lines.push_back(std::move(line));
    child_->describe(lines, depth + 1);
  }
  void setAnalyze(bool on) override {
    stats_.timed = on;
    child_->setAnalyze(on);
  }

 private:
  void drain() {
    const SortBefore before{&plan_->sel->order_by};
    RowBatch in;
    in.capacity = batch_rows_;
    std::uint64_t seq = 0;
    while (child_->nextBatch(in)) {
      for (std::uint32_t i : in.sel) {
        SortEntry e;
        in.takeKeys(i, e.keys);
        e.seq = seq++;
        if (!admits(rows_, e, top_k_, before)) continue;
        in.takeRow(i, e.row);
        keepSorted(rows_, std::move(e), top_k_, before);
      }
    }
    if (top_k_) {
      std::sort_heap(rows_.begin(), rows_.end(), before);
    } else {
      std::sort(rows_.begin(), rows_.end(), before);
    }
    sorted_ = true;
  }

  std::unique_ptr<RowOp> child_;
  SelectPlan* plan_;
  std::optional<std::size_t> top_k_;
  std::size_t batch_rows_;
  std::vector<SortEntry> rows_;
  std::size_t pos_ = 0;
  bool sorted_ = false;
};

/// Streaming OFFSET/LIMIT; without an ORDER BY below it this stops pulling
/// (and therefore scanning) as soon as the limit is reached.
class LimitOp : public RowOp {
 public:
  LimitOp(std::unique_ptr<RowOp> child, std::optional<std::size_t> limit,
          std::size_t offset)
      : child_(std::move(child)), limit_(limit), offset_(offset) {}

  void doOpen() override {
    child_->open();
    skipped_ = 0;
    emitted_ = 0;
  }
  bool doNextBatch(RowBatch& b) override {
    if (limit_ && emitted_ >= *limit_) return false;
    const std::size_t caller_cap = b.capacity;
    while (true) {
      // Never ask the child for more rows than the limit still needs —
      // without an ORDER BY below, that over-pull would over-scan the table.
      if (limit_) {
        const std::size_t need = (offset_ - skipped_) + (*limit_ - emitted_);
        if (caller_cap == 0 || need < caller_cap) b.capacity = need;
      }
      const bool ok = child_->nextBatch(b);
      b.capacity = caller_cap;
      if (!ok) return false;
      if (skipped_ < offset_) {
        const std::size_t drop =
            std::min(offset_ - skipped_, b.sel.size());
        b.sel.erase(b.sel.begin(),
                    b.sel.begin() + static_cast<std::ptrdiff_t>(drop));
        skipped_ += drop;
      }
      if (limit_ && b.sel.size() > *limit_ - emitted_) {
        b.sel.resize(*limit_ - emitted_);
      }
      if (!b.sel.empty()) {
        emitted_ += b.sel.size();
        return true;
      }
      if (limit_ && emitted_ >= *limit_) return false;
    }
  }
  void doClose() override { child_->close(); }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    std::string line = indentOf(depth);
    if (limit_) {
      line += "LIMIT " + std::to_string(*limit_);
      if (offset_ > 0) line += " OFFSET " + std::to_string(offset_);
    } else {
      line += "OFFSET " + std::to_string(offset_);
    }
    lines.push_back(std::move(line));
    child_->describe(lines, depth + 1);
  }
  void setAnalyze(bool on) override {
    stats_.timed = on;
    child_->setAnalyze(on);
  }

 private:
  std::unique_ptr<RowOp> child_;
  std::optional<std::size_t> limit_;
  std::size_t offset_ = 0;
  std::size_t skipped_ = 0;
  std::size_t emitted_ = 0;
};

// ---------------------------------------------------------------------------
// Morsel-driven parallel execution
//
// A MorselSource partitions table 0 into ~kMorselTargetRows-row morsels that
// workers claim with one atomic (page partitioning) or one short lock
// (cursor chunking). Each morsel carries its decoded rows as one RowBatch
// plus a dense morsel id from which every row gets a global rank:
// concatenating morsels in id order reproduces the serial scan order
// exactly, so parallel runs stay bit-identical to serial ones (group
// representatives, DISTINCT survivors, and ORDER BY tie-breaks all resolve
// by rank).
// ---------------------------------------------------------------------------

/// Bits of the per-row rank reserved for the row's offset inside its morsel
/// (page morsels are capped well below 2^18 rows).
constexpr unsigned kMorselRowBits = 18;

/// Thread-safe supplier of decoded row batches. abort() drains the source
/// early when one worker fails, so the others reach the barrier quickly.
class MorselSource {
 public:
  struct Morsel {
    std::uint64_t id = 0;  // dense, increasing; ranks derive from it
    RowBatch rows;         // lane i is the morsel's i-th row
  };

  virtual ~MorselSource() = default;

  bool next(Morsel& m) {
    if (aborted_.load(std::memory_order_relaxed)) return false;
    if (!produce(m)) return false;
    execCounters().morsels_dispatched.inc();
    return true;
  }

  void abort() { aborted_.store(true, std::memory_order_relaxed); }

 protected:
  virtual bool produce(Morsel& m) = 0;

 private:
  std::atomic<bool> aborted_{false};
};

/// SeqScan partitioning: snapshot the heap page chain, hand out fixed runs
/// of whole pages per morsel (atomic claim, no lock), decode on the worker.
class PageMorselSource : public MorselSource {
 public:
  PageMorselSource(Database& db, const TableDef& table) : pager_(&db.pager()) {
    pages_ = HeapFile::collectPages(*pager_, table.first_page);
    // Whole pages per morsel, sized from the first page's fill so a morsel
    // lands near kMorselTargetRows rows. Capped so ranks fit kMorselRowBits.
    std::size_t rows_on_first = 0;
    if (!pages_.empty()) {
      HeapFile::visitPageRecords(*pager_, pages_[0],
                                 [&](const std::uint8_t*, std::size_t) {
                                   ++rows_on_first;
                                   return true;
                                 });
    }
    if (rows_on_first == 0) rows_on_first = 1;
    pages_per_morsel_ =
        std::clamp<std::size_t>(kMorselTargetRows / rows_on_first, 1, 64);
  }

  std::size_t morselCount() const {
    return (pages_.size() + pages_per_morsel_ - 1) / pages_per_morsel_;
  }

 protected:
  bool produce(Morsel& m) override {
    const std::size_t idx = next_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t begin = idx * pages_per_morsel_;
    if (begin >= pages_.size()) return false;
    const std::size_t end = std::min(begin + pages_per_morsel_, pages_.size());
    m.id = idx;
    m.rows.clearRows();
    for (std::size_t p = begin; p < end; ++p) {
      HeapFile::visitPageRecords(*pager_, pages_[p],
                                 [&](const std::uint8_t* data, std::size_t size) {
                                   Row row = deserializeRow(data, size);
                                   m.rows.appendMoveValues(row);
                                   return true;
                                 });
    }
    return true;
  }

 private:
  Pager* pager_;
  std::vector<PageId> pages_;
  std::size_t pages_per_morsel_ = 1;
  std::atomic<std::size_t> next_{0};
};

/// Index-path partitioning: one shared storage cursor, chunked into
/// batch_rows-row batches under a mutex. The lock covers the decode, but
/// filter/project/aggregate work — the bulk of these queries — still fans
/// out. Chunk boundaries depend only on the pull count, so morsel contents
/// are deterministic regardless of which worker claims them.
class CursorMorselSource : public MorselSource {
 public:
  CursorMorselSource(std::unique_ptr<SlotIter> iter, std::size_t batch_rows)
      : iter_(std::move(iter)), batch_rows_(batch_rows > 0 ? batch_rows : 1) {}

  /// Opens the underlying cursor (bound evaluation) on the caller's thread.
  void open() { iter_->open(); }

 protected:
  bool produce(Morsel& m) override {
    const std::lock_guard<std::mutex> lock(mu_);
    if (done_) return false;
    m.rows.capacity = batch_rows_;
    if (!iter_->nextBatch(m.rows)) {
      done_ = true;
      iter_->close();
      return false;
    }
    m.id = next_id_++;
    return true;
  }

 private:
  std::mutex mu_;
  std::unique_ptr<SlotIter> iter_;
  std::size_t batch_rows_;
  bool done_ = false;
  std::uint64_t next_id_ = 0;
};

/// The level-0 iterator of a per-worker NestedLoop: hands out one whole
/// morsel per batch, tagged with the morsel's rank base.
class MorselFedIter : public SlotIter {
 public:
  MorselFedIter(MorselSource* src, const SelectPlan::AccessPath& path,
                const SelectPlan::FromEntry& entry)
      : src_(src), path_(&path), entry_(&entry) {}

  std::uint64_t batchTag() const override { return tag_; }

 protected:
  void doOpen() override { produced_ = 0; }
  bool doNextBatch(RowBatch& out) override {
    while (src_->next(m_)) {
      if (m_.rows.empty()) continue;  // a morsel of fully deleted pages
      tag_ = m_.id << kMorselRowBits;
      const std::size_t cap = out.capacity;
      std::swap(out, m_.rows);  // recycles the caller's buffers
      out.capacity = cap;
      produced_ += out.active();
      return true;
    }
    return false;
  }
  void doClose() override { m_.rows.clearRows(); }
  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    lines.push_back(indentOf(depth) + path_->describe(*entry_) + " [morsel]");
  }

 private:
  MorselSource* src_;
  const SelectPlan::AccessPath* path_;
  const SelectPlan::FromEntry* entry_;
  MorselSource::Morsel m_;
  std::uint64_t tag_ = 0;
};

/// The parallel subtree: runs per-worker partial pipelines over a shared
/// MorselSource on the process-wide ExecPool and merges their thread-local
/// states at one barrier. Emits exactly what the serial
/// (Project|Aggregate)(NestedLoop) subtree would, in the same order, so the
/// serial operators above (Distinct, Sort, Limit) run unchanged:
///
///   grouped   partial hash aggregates merge per group key; the group
///             representative (bare-column first_row) is the minimum-rank
///             input, matching serial first-arrival; groups emit in encoded
///             key order like AggregateOp.
///   row mode  per-worker buffers (optionally deduped for DISTINCT and
///             bounded by an ORDER BY+LIMIT top-K heap, both of which only
///             shrink the candidate set the serial operators re-check)
///             merge sorted by rank, i.e. serial scan order.
///
/// Every worker drives its own batch-native NestedLoop whose level 0 is
/// morsel-fed; a lane's rank is (morsel id, row in morsel, join sub).
class GatherOp : public RowOp {
 public:
  GatherOp(Database& db, SelectPlan& plan, const ExecOptions& opts,
           std::optional<std::size_t> row_top_k)
      : db_(&db),
        plan_(&plan),
        degree_(opts.degree),
        batch_rows_(opts.batch_rows),
        top_k_(row_top_k),
        grouped_(plan.grouped),
        distinct_(plan.sel->distinct && !plan.grouped),
        src_slots_(plan.from.size()),
        template_loop_(std::make_unique<NestedLoop>(db, plan, opts.batch_rows)) {}

  void doOpen() override {
    built_ = false;
    out_.clear();
    pos_ = 0;
  }
  bool doNextBatch(RowBatch& b) override {
    if (!built_) runParallel();
    return emitBuffered(out_, pos_, b, b.capacity ? b.capacity : batch_rows_,
                        plan_->sel->order_by.size());
  }
  void doClose() override {
    out_.clear();
    pos_ = 0;
  }

  void setAnalyze(bool on) override {
    stats_.timed = on;
    analyze_ = on;
    partial_stats_.timed = on;
    template_loop_->setAnalyze(on);
  }

  void doDescribe(std::vector<std::string>& lines, int depth) const override {
    std::string line =
        indentOf(depth) + "GATHER (workers=" + std::to_string(degree_);
    if (grouped_) line += ", partial aggregate";
    if (distinct_) line += ", partial distinct";
    if (top_k_) line += ", top-k " + std::to_string(*top_k_);
    line += ")";
    lines.push_back(std::move(line));
    if (analyze_ && ran_) {
      lines.push_back(indentOf(depth + 1) + perWorkerLine());
    }
    const std::size_t partial_line = lines.size();
    lines.push_back(indentOf(depth + 1) +
                    (grouped_ ? "PARTIAL AGGREGATE" + aggregateShape(*plan_)
                              : projectLine(*plan_)));
    if (partial_stats_.timed) appendActuals(lines[partial_line], partial_stats_);
    template_loop_->describe(lines, depth + 2);
  }

 private:
  // --- per-worker state ----------------------------------------------------

  /// One worker's state of a group, plus the rank of its first tuple.
  struct PartialGroup : Group {
    std::uint64_t first_rank = 0;
    std::uint64_t first_sub = 0;
  };

  struct WorkerState {
    std::unordered_map<EncodedKey, PartialGroup> groups;  // grouped mode
    std::vector<SortEntry> rows;  // row mode: seq = global scan rank
    std::set<EncodedKey> seen;     // row-mode local DISTINCT dedup
    std::uint64_t emitted = 0;     // partial-stage outputs (per-worker line)
    std::uint64_t busy_ns = 0;
  };

  void runParallel() {
    built_ = true;
    // Mirror the serial path's invariant: storage is pinned for the whole
    // drain, so a concurrent DDL/DML attempt on this database throws
    // instead of invalidating worker iterators.
    const Database::CursorPin pin = db_->pinCursor();
    execCounters().parallel_queries.inc();

    const SelectPlan::AccessPath& path = plan_->paths[0];
    std::unique_ptr<MorselSource> src;
    std::size_t extra = static_cast<std::size_t>(degree_ > 0 ? degree_ - 1 : 0);
    if (path.kind == SelectPlan::AccessPath::Kind::Scan) {
      auto ps = std::make_unique<PageMorselSource>(*db_, *plan_->from[0].def);
      // No point spinning more workers than there are morsels.
      const std::size_t morsels = ps->morselCount();
      extra = std::min(extra, morsels > 0 ? morsels - 1 : 0);
      src = std::move(ps);
    } else {
      // Level-0 probe bounds are constants: the slots are never bound.
      auto cs = std::make_unique<CursorMorselSource>(
          makeLeaf(*db_, *plan_, 0, src_slots_), batch_rows_);
      cs->open();  // bound evaluation happens on the calling thread
      src = std::move(cs);
    }

    states_.clear();
    states_.resize(extra + 1);
    MorselSource* s = src.get();
    // Pool workers are fresh threads: when this cursor reads through a
    // pinned snapshot, re-install it on each worker so every morsel is
    // resolved against the same committed version the caller sees.
    const Pager::SnapshotToken snap_token = Pager::currentToken();
    const ExecPool::RunStats run = ExecPool::shared().run(
        extra, [&](std::size_t slot) {
          std::optional<Pager::SnapshotScope> snap_scope;
          if (snap_token.pager != nullptr) snap_scope.emplace(snap_token);
          try {
            runWorker(states_[slot], *s);
          } catch (...) {
            s->abort();  // stop the other workers' morsel supply
            throw;
          }
        });
    gather_wait_ns_ = run.wait_ns;
    execCounters().gather_wait_ms.observe(static_cast<double>(run.wait_ns) / 1e6);

    if (grouped_) {
      mergeGrouped();
    } else {
      mergeRows();
    }
    if (analyze_) {
      partial_stats_.loops = states_.size();
      partial_stats_.time_ns = 0;
      for (const WorkerState& ws : states_) partial_stats_.time_ns += ws.busy_ns;
    }
    ran_ = true;
  }

  void runWorker(WorkerState& ws, MorselSource& src) {
    const auto start = std::chrono::steady_clock::now();
    NestedLoop loop(*db_, *plan_, batch_rows_,
                    std::make_unique<MorselFedIter>(&src, plan_->paths[0],
                                                    plan_->from[0]));
    loop.trackRanks();
    if (analyze_) loop.setAnalyze(true);
    loop.open();
    RowBatch b;
    b.capacity = batch_rows_;
    std::uint64_t last_rank = ~std::uint64_t{0};
    std::uint64_t sub = 0;
    while (loop.nextBatch(b)) {
      for (const std::uint32_t i : b.sel) {
        const std::uint64_t rank = loop.ranks()[i];
        if (rank == last_rank) {
          ++sub;
        } else {
          sub = 0;
          last_rank = rank;
        }
        const LaneCols cols{b, template_loop_->layout(), i};
        if (grouped_) {
          accumulate(ws, b, cols, rank, sub);
        } else {
          emitRow(ws, cols, rank, sub);
        }
      }
    }
    loop.close();
    if (analyze_) {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      template_loop_->absorbStats(loop);
    }
    ws.busy_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  void accumulate(WorkerState& ws, const RowBatch& b, const LaneCols& cols,
                  std::uint64_t rank, std::uint64_t sub) {
    const auto [pg, inserted] = accumulateLane(ws.groups, *plan_, b, cols);
    if (!inserted) return;
    // A worker consumes rows in increasing rank order, so the first arrival
    // is the worker-local minimum; cross-worker minima resolve at the merge.
    ++ws.emitted;
    pg->first_rank = rank;
    pg->first_sub = sub;
  }

  void emitRow(WorkerState& ws, const LaneCols& cols, std::uint64_t rank,
               std::uint64_t sub) {
    auto project = [&](Row& row) {
      row.reserve(plan_->outputs.size());
      for (const SelectPlan::OutputCol& out : plan_->outputs) {
        row.push_back(evalValue(*out.expr, cols));
      }
    };
    SortEntry e;
    if (distinct_) {
      project(e.row);
      // Local dedup: keeps the worker's first (minimum-rank) copy. The
      // DistinctOp above resolves cross-worker duplicates; dedup must
      // happen before the top-K heap so duplicates never evict candidates.
      EncodedKey key;
      for (const Value& v : e.row) encodeValue(v, key);
      if (!ws.seen.insert(std::move(key)).second) return;
    }
    ++ws.emitted;
    e.seq = rank;
    e.sub = sub;
    e.keys.reserve(plan_->sel->order_by.size());
    for (const OrderItem& item : plan_->sel->order_by) {
      e.keys.push_back(evalValue(*item.expr, cols));
    }
    // With a bound, a worker's heap keeps its K best by exactly the serial
    // sort's ordering, so the union of worker heaps holds the true top K. A
    // row that cannot enter the full heap is dropped before it is built.
    const SortBefore before{&plan_->sel->order_by};
    if (!admits(ws.rows, e, top_k_, before)) return;
    if (!distinct_) project(e.row);
    keepSorted(ws.rows, std::move(e), top_k_, before);
  }

  void mergeGrouped() {
    const SelectStmt& sel = *plan_->sel;
    std::map<EncodedKey, PartialGroup> merged;
    for (WorkerState& ws : states_) {
      for (auto& [key, pg] : ws.groups) {
        auto [it, inserted] = merged.try_emplace(key);
        if (inserted) {
          it->second = std::move(pg);
          continue;
        }
        PartialGroup& dst = it->second;
        if (pg.first_rank < dst.first_rank ||
            (pg.first_rank == dst.first_rank && pg.first_sub < dst.first_sub)) {
          // This worker saw the group earlier in scan order; its first
          // tuple is the serial path's group representative.
          dst.first_rank = pg.first_rank;
          dst.first_sub = pg.first_sub;
          dst.first_row = std::move(pg.first_row);
        }
        for (std::size_t a = 0; a < dst.aggs.size(); ++a) {
          const Expr* agg = plan_->aggregates[a];
          dst.aggs[a].merge(pg.aggs[a], agg->lhs && agg->agg_distinct);
        }
      }
      ws.groups.clear();
    }
    if (analyze_) partial_stats_.rows = merged.size();
    // Finalize: the same tail as the serial AggregateOp, over groups in
    // encoded-key order.
    for (auto& [key, pg] : merged) emitGroup(*plan_, template_loop_->layout(), pg, out_);
    if (merged.empty() && sel.group_by.empty()) emitEmptyInputRow(*plan_, out_);
  }

  void mergeRows() {
    std::size_t total = 0;
    for (const WorkerState& ws : states_) total += ws.rows.size();
    std::vector<SortEntry> all;
    all.reserve(total);
    for (WorkerState& ws : states_) {
      for (SortEntry& e : ws.rows) all.push_back(std::move(e));
      ws.rows.clear();
      ws.rows.shrink_to_fit();
      ws.seen.clear();
    }
    // Emit in global scan order so the serial operators above see exactly
    // the serial stream (stable ORDER BY ties, DISTINCT first-occurrence).
    std::sort(all.begin(), all.end(), [](const SortEntry& a, const SortEntry& b) {
      return a.seq != b.seq ? a.seq < b.seq : a.sub < b.sub;
    });
    if (analyze_) {
      partial_stats_.rows = 0;
      for (const WorkerState& ws : states_) partial_stats_.rows += ws.emitted;
    }
    out_.reserve(all.size());
    for (SortEntry& e : all) out_.emplace_back(std::move(e.row), std::move(e.keys));
  }

  std::string perWorkerLine() const {
    std::string line = "PER-WORKER rows=[";
    for (std::size_t w = 0; w < states_.size(); ++w) {
      if (w > 0) line += " ";
      line += std::to_string(states_[w].emitted);
    }
    line += "] time=[";
    char buf[32];
    for (std::size_t w = 0; w < states_.size(); ++w) {
      if (w > 0) line += " ";
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(states_[w].busy_ns) / 1e6);
      line += buf;
    }
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(gather_wait_ns_) / 1e6);
    line += std::string("]ms wait=") + buf + "ms";
    return line;
  }

  Database* db_;
  SelectPlan* plan_;
  int degree_;
  std::size_t batch_rows_;
  std::optional<std::size_t> top_k_;  // row mode only
  bool grouped_;
  bool distinct_;
  Slots src_slots_;  // never bound; level-0 probe bounds are constants
  std::unique_ptr<NestedLoop> template_loop_;  // described, never opened
  std::vector<WorkerState> states_;
  std::mutex stats_mu_;
  OpStats partial_stats_;  // the PARTIAL AGGREGATE / PROJECT stage line
  std::uint64_t gather_wait_ns_ = 0;
  bool analyze_ = false;
  bool ran_ = false;
  bool built_ = false;
  OutputRows out_;
  std::size_t pos_ = 0;
};

/// Whether `plan` runs its table-0 subtree morsel-parallel at `opts`.
/// Streaming-friendly shapes stay serial: a plain projection (no blocking
/// operator above) streams rows with zero materialization, and
/// LIMIT-without-ORDER-BY stops the scan early — parallelism would only add
/// wasted work. Tiny tables (under min_pages heap pages) stay serial too.
bool parallelEligible(Database& db, const SelectPlan& plan,
                      const ExecOptions& opts) {
  if (opts.degree < 2 || plan.from.empty()) return false;
  const SelectStmt& sel = *plan.sel;
  if (sel.from[0].left_join) return false;  // defensive; parser never does this
  const bool ordered = !sel.order_by.empty();
  if (!plan.grouped && !ordered && !sel.distinct) return false;
  if (!plan.grouped && !ordered && (sel.limit || sel.offset)) return false;
  return HeapFile::chainHasAtLeast(db.pager(), plan.from[0].def->first_page,
                                   opts.min_pages);
}

}  // namespace

// ---------------------------------------------------------------------------
// Batch pull plumbing
// ---------------------------------------------------------------------------

bool RowOp::nextBatch(RowBatch& batch) {
  std::optional<detail::OpTick> tick;
  if (stats_.timed) tick.emplace(stats_);
  if (!doNextBatch(batch)) return false;
  execCounters().batches.inc();
  execCounters().batch_fill.observe(static_cast<double>(batch.active()));
  if (stats_.timed) {
    stats_.rows += batch.active();
    ++stats_.batches;
    stats_.batch_rows += batch.active();
  }
  return true;
}

// ---------------------------------------------------------------------------
// Pipeline assembly and the materializing wrappers
// ---------------------------------------------------------------------------

Pipeline buildPipeline(Database& db, SelectPlan& plan, const ExecOptions& opts) {
  Pipeline p;
  for (const SelectPlan::OutputCol& out : plan.outputs) p.columns.push_back(out.name);
  if (plan.from.empty()) {
    // SELECT without FROM: exactly one row; DISTINCT/ORDER BY/LIMIT do not
    // apply (mirrors the historical early return).
    p.root = std::make_unique<ConstRowOp>(plan);
    return p;
  }
  SelectStmt& sel = *plan.sel;
  const std::size_t offset =
      sel.offset ? static_cast<std::size_t>(*sel.offset) : 0;
  std::optional<std::size_t> top_k;
  if (!sel.order_by.empty() && sel.limit) {
    top_k = offset + static_cast<std::size_t>(*sel.limit);
  }
  std::unique_ptr<RowOp> op;
  if (parallelEligible(db, plan, opts)) {
    // Workers pre-apply top-K only in row mode; a grouped plan's bound
    // applies to groups, not inputs, so the serial Sort above handles it.
    op = std::make_unique<GatherOp>(db, plan, opts,
                                    plan.grouped ? std::nullopt : top_k);
  } else {
    auto loop = std::make_unique<NestedLoop>(db, plan, opts.batch_rows);
    if (plan.grouped) {
      op = std::make_unique<AggregateOp>(std::move(loop), plan, opts.batch_rows);
    } else {
      op = std::make_unique<ProjectOp>(std::move(loop), plan, opts.batch_rows);
    }
  }
  if (sel.distinct) op = std::make_unique<DistinctOp>(std::move(op));
  if (!sel.order_by.empty()) {
    op = std::make_unique<SortOp>(std::move(op), plan, top_k, opts.batch_rows);
  }
  if (sel.limit || sel.offset) {
    std::optional<std::size_t> limit;
    if (sel.limit) limit = static_cast<std::size_t>(*sel.limit);
    op = std::make_unique<LimitOp>(std::move(op), limit, offset);
  }
  p.root = std::move(op);
  return p;
}

std::vector<std::string> explainPipeline(Database& db, SelectPlan& plan,
                                         const ExecOptions& opts) {
  const Pipeline p = buildPipeline(db, plan, opts);
  std::vector<std::string> lines;
  p.root->describe(lines, 0);
  return lines;
}

std::vector<std::string> explainAnalyze(Database& db, SelectPlan& plan,
                                        const ExecOptions& opts) {
  materializePlanSubqueries(db, plan);
  Pipeline p = buildPipeline(db, plan, opts);
  p.root->setAnalyze(true);
  {
    const Database::CursorPin pin = db.pinCursor();
    p.root->open();
    RowBatch batch;
    batch.capacity = opts.batch_rows;
    while (p.root->nextBatch(batch)) {
    }
    p.root->close();
  }
  std::vector<std::string> lines;
  p.root->describe(lines, 0);
  return lines;
}

ResultSet execSelectPlan(Database& db, SelectPlan& plan, bool explain,
                         bool analyze, const ExecOptions& opts) {
  ResultSet rs;
  if (explain && !analyze) {
    rs.columns = {"plan"};
    for (std::string& line : explainPipeline(db, plan, opts)) {
      rs.rows.push_back({Value(std::move(line))});
    }
    return rs;
  }
  if (analyze) {
    rs.columns = {"plan"};
    for (std::string& line : explainAnalyze(db, plan, opts)) {
      rs.rows.push_back({Value(std::move(line))});
    }
    return rs;
  }
  materializePlanSubqueries(db, plan);
  Pipeline p = buildPipeline(db, plan, opts);
  rs.columns = std::move(p.columns);
  p.root->open();
  RowBatch batch;
  batch.capacity = opts.batch_rows;
  Row row;
  while (p.root->nextBatch(batch)) {
    for (std::uint32_t i : batch.sel) {
      batch.takeRow(i, row);
      rs.rows.push_back(std::move(row));
      row = {};
    }
  }
  p.root->close();
  return rs;
}

ResultSet execSelect(Database& db, const SelectStmt& sel_const, bool use_indexes,
                     bool explain, bool analyze, const ExecOptions& opts) {
  // The binding pass annotates expressions in place; the annotations are
  // rewritten by every plan build, so sharing the AST across plans is safe.
  auto& sel = const_cast<SelectStmt&>(sel_const);
  SelectPlan plan = buildSelectPlan(db, sel, use_indexes, opts.invidx);
  return execSelectPlan(db, plan, explain, analyze, opts);
}

}  // namespace perftrack::minidb::sql