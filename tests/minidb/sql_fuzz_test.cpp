// Differential SQL fuzzing: the literal path vs the prepared path vs the
// streaming cursor path vs the batch cursor path, a join differential over
// three tables checked against a reference join (JoinFuzz below), plus a
// WAL file store vs in-memory store differential over the same statement
// stream (DurabilityFuzz below).
//
// Four twin in-memory databases receive the same seeded random statement
// stream. One executes every statement with inlined literals through
// Engine::exec; the second executes the parameterized form ('?'
// placeholders) through prepare()/bind/execute; the third also prepares, but
// drains every SELECT one row at a time through openCursor()/next(); the
// fourth drains through fetchBatch() with a deliberately odd batch size (7)
// so every query ends on a partial batch. The paths share the parser and
// the one batch pipeline but diverge at parameter substitution, plan
// caching, epoch revalidation, and the drain: the materializing wrapper,
// the cursor's row adapter (ramped refills handed out a row at a time), or
// batch fetch. Any divergence (different rows, different rows_affected, an
// error on one side only) is a bug in one of the paths.
//
// Statement mix: INSERT (with NULLs, negative ints, reals, text), UPDATE,
// DELETE, point/range/IN SELECTs with ORDER BY, occasional CREATE/DROP
// INDEX, transaction brackets with rollbacks, and deliberately invalid
// statements (unknown table/column) that must fail identically on both
// sides. Every 40 statements the full table contents and storage integrity
// of both twins are compared.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "minidb/database.h"
#include "minidb/sql/executor.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace perftrack::minidb::sql {
namespace {

/// One generated statement: literal SQL for the exec twin, parameterized SQL
/// plus bindings for the prepared twin.
struct GenStmt {
  std::string literal;
  std::string parameterized;
  std::vector<Value> params;
};

std::string renderLiteral(const Value& v) {
  if (v.isNull()) return "NULL";
  if (v.isText()) return "'" + v.asText() + "'";  // generator emits quote-free text
  return v.toDisplayString();
}

/// Substitutes each '?' in `sql` with the rendered literal of the matching
/// parameter, producing the literal twin of a parameterized statement.
std::string inlineParams(const std::string& sql, const std::vector<Value>& params) {
  std::string out;
  std::size_t next = 0;
  for (char c : sql) {
    if (c == '?') {
      out += renderLiteral(params.at(next++));
    } else {
      out += c;
    }
  }
  return out;
}

class FuzzGen {
 public:
  explicit FuzzGen(std::uint64_t seed) : rng_(seed) {}

  Value randomValue() {
    switch (rng_.uniformInt(0, 3)) {
      case 0: return Value(rng_.uniformInt(-50, 50));
      case 1: // reals with exact binary representations round-trip as text
        return Value(static_cast<double>(rng_.uniformInt(-40, 40)) + 0.5);
      case 2: return Value("s" + std::to_string(rng_.uniformInt(0, 30)));
      default: return Value::null();
    }
  }

  GenStmt next() {
    GenStmt g;
    const int kind = static_cast<int>(rng_.uniformInt(0, 99));
    if (kind < 40) {  // INSERT
      g.parameterized = "INSERT INTO t (k, v, r) VALUES (?, ?, ?)";
      g.params = {Value(rng_.uniformInt(0, 9)), randomValue(), randomValue()};
    } else if (kind < 55) {  // UPDATE
      g.parameterized = "UPDATE t SET v = ? WHERE k " + comparator() + " ?";
      g.params = {randomValue(), Value(rng_.uniformInt(0, 9))};
    } else if (kind < 65) {  // DELETE (bounded so the table keeps growing)
      g.parameterized = "DELETE FROM t WHERE k = ? AND id > ?";
      g.params = {Value(rng_.uniformInt(0, 9)), Value(rng_.uniformInt(5, 200))};
    } else if (kind < 90) {  // SELECT
      switch (rng_.uniformInt(0, 3)) {
        case 0:
          g.parameterized = "SELECT id, k, v FROM t WHERE k = ? ORDER BY id";
          g.params = {Value(rng_.uniformInt(0, 9))};
          break;
        case 1:
          g.parameterized =
              "SELECT id, v FROM t WHERE k >= ? AND k <= ? ORDER BY id";
          g.params = {Value(rng_.uniformInt(0, 5)), Value(rng_.uniformInt(5, 9))};
          break;
        case 2:
          g.parameterized = "SELECT COUNT(*) FROM t WHERE k IN (?, ?, ?)";
          g.params = {Value(rng_.uniformInt(0, 9)), Value(rng_.uniformInt(0, 9)),
                      Value(rng_.uniformInt(0, 9))};
          break;
        default:
          g.parameterized = "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k";
          break;
      }
    } else if (kind < 94) {  // index DDL: flips the schema epoch mid-stream
      if (index_exists_) {
        g.parameterized = "DROP INDEX t_by_k";
      } else {
        g.parameterized = "CREATE INDEX t_by_k ON t (k)";
      }
      index_exists_ = !index_exists_;
    } else {  // invalid: must fail identically on both paths
      if (rng_.chance(0.5)) {
        g.parameterized = "SELECT nosuch FROM t WHERE k = ?";
        g.params = {Value(rng_.uniformInt(0, 9))};
      } else {
        g.parameterized = "INSERT INTO missing (k) VALUES (?)";
        g.params = {Value(1)};
      }
    }
    g.literal = inlineParams(g.parameterized, g.params);
    return g;
  }

  util::Rng& rng() { return rng_; }

 private:
  std::string comparator() {
    switch (rng_.uniformInt(0, 2)) {
      case 0: return "=";
      case 1: return "<";
      default: return ">=";
    }
  }

  util::Rng rng_;
  bool index_exists_ = false;
};

void expectSameResult(const ResultSet& a, const ResultSet& b, const std::string& sql) {
  SCOPED_TRACE("statement: " + sql);
  EXPECT_EQ(a.columns, b.columns);
  EXPECT_EQ(a.rows_affected, b.rows_affected);
  EXPECT_EQ(a.last_insert_id, b.last_insert_id);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    ASSERT_EQ(a.rows[i].size(), b.rows[i].size());
    for (std::size_t j = 0; j < a.rows[i].size(); ++j) {
      EXPECT_EQ(a.rows[i][j], b.rows[i][j])
          << "row " << i << " col " << j << " diverged";
    }
  }
}

/// The cursor twin's executor: prepares `sql`, then drains SELECTs row by
/// row through the streaming cursor instead of the materializing execute().
/// Non-SELECT statements run through the prepared path so all twins apply
/// identical mutations.
ResultSet runViaCursor(Engine& eng, const std::string& sql,
                       const std::vector<Value>& params) {
  PreparedStatement stmt = eng.prepare(sql);
  if (stmt.kind() != Statement::Kind::Select) return stmt.execute(params);
  stmt.bindAll(params);
  Cursor cur = stmt.openCursor();
  ResultSet rs;
  rs.columns = cur.columns();
  Row row;
  while (cur.next(row)) rs.rows.push_back(row);
  return rs;
}

/// The batch-cursor twin's executor: like runViaCursor, but drains SELECTs
/// through the vectorized fetchBatch() surface, materializing rows from the
/// columnar batches.
ResultSet runViaBatchCursor(Engine& eng, const std::string& sql,
                            const std::vector<Value>& params) {
  PreparedStatement stmt = eng.prepare(sql);
  if (stmt.kind() != Statement::Kind::Select) return stmt.execute(params);
  stmt.bindAll(params);
  Cursor cur = stmt.openCursor();
  ResultSet rs;
  rs.columns = cur.columns();
  RowBatch batch;
  Row row;
  while (cur.fetchBatch(batch)) {
    for (const std::uint32_t i : batch.sel) {
      batch.materializeRow(i, row);
      rs.rows.push_back(row);
    }
  }
  return rs;
}

class SqlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SqlFuzz, LiteralPreparedAndCursorPathsAgree) {
  auto db_lit = Database::openMemory();
  auto db_par = Database::openMemory();
  auto db_cur = Database::openMemory();
  auto db_bat = Database::openMemory();
  Engine lit(*db_lit);
  Engine par(*db_par);
  Engine cur(*db_cur);
  Engine bat(*db_bat);
  // Odd batch size so nearly every SELECT ends on a partial final batch.
  bat.setExecBatchRows(7);
  const char* ddl =
      "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT, r REAL)";
  lit.exec(ddl);
  par.exec(ddl);
  cur.exec(ddl);
  bat.exec(ddl);

  FuzzGen gen(GetParam());
  int in_txn = 0;
  for (int step = 0; step < 400; ++step) {
    // Transaction brackets: both twins enter/leave together; one in three
    // brackets ends in ROLLBACK, exercising the undo journal + epoch paths.
    if (in_txn == 0 && gen.rng().chance(0.15)) {
      db_lit->begin();
      db_par->begin();
      db_cur->begin();
      db_bat->begin();
      in_txn = static_cast<int>(gen.rng().uniformInt(3, 10));
    } else if (in_txn > 0 && --in_txn == 0) {
      if (gen.rng().chance(0.33)) {
        db_lit->rollback();
        db_par->rollback();
        db_cur->rollback();
        db_bat->rollback();
      } else {
        db_lit->commit();
        db_par->commit();
        db_cur->commit();
        db_bat->commit();
      }
    }

    const GenStmt g = gen.next();
    std::optional<ResultSet> ra, rb, rc, rd;
    std::string err_a, err_b, err_c, err_d;
    try {
      ra = lit.exec(g.literal);
    } catch (const util::PTError& e) {
      err_a = e.what();
    }
    try {
      PreparedStatement stmt = par.prepare(g.parameterized);
      ASSERT_EQ(stmt.paramCount(), static_cast<int>(g.params.size()));
      rb = stmt.execute(g.params);
    } catch (const util::PTError& e) {
      err_b = e.what();
    }
    try {
      rc = runViaCursor(cur, g.parameterized, g.params);
    } catch (const util::PTError& e) {
      err_c = e.what();
    }
    try {
      rd = runViaBatchCursor(bat, g.parameterized, g.params);
    } catch (const util::PTError& e) {
      err_d = e.what();
    }
    ASSERT_EQ(ra.has_value(), rb.has_value())
        << "one path errored: literal=[" << err_a << "] prepared=[" << err_b
        << "] for: " << g.literal;
    ASSERT_EQ(ra.has_value(), rc.has_value())
        << "one path errored: literal=[" << err_a << "] cursor=[" << err_c
        << "] for: " << g.literal;
    ASSERT_EQ(ra.has_value(), rd.has_value())
        << "one path errored: literal=[" << err_a << "] batch=[" << err_d
        << "] for: " << g.literal;
    if (ra) {
      expectSameResult(*ra, *rb, g.literal);
      {
        SCOPED_TRACE("cursor path");
        ASSERT_EQ(ra->columns, rc->columns);
        ASSERT_EQ(ra->rows.size(), rc->rows.size()) << "for: " << g.literal;
        for (std::size_t i = 0; i < ra->rows.size(); ++i) {
          for (std::size_t j = 0; j < ra->rows[i].size(); ++j) {
            EXPECT_EQ(ra->rows[i][j], rc->rows[i][j])
                << "cursor row " << i << " col " << j << " diverged for: "
                << g.literal;
          }
        }
      }
      {
        SCOPED_TRACE("batch cursor path");
        ASSERT_EQ(ra->columns, rd->columns);
        ASSERT_EQ(ra->rows.size(), rd->rows.size()) << "for: " << g.literal;
        for (std::size_t i = 0; i < ra->rows.size(); ++i) {
          for (std::size_t j = 0; j < ra->rows[i].size(); ++j) {
            EXPECT_EQ(ra->rows[i][j], rd->rows[i][j])
                << "batch row " << i << " col " << j << " diverged for: "
                << g.literal;
          }
        }
      }
    } else {
      EXPECT_EQ(err_a, err_b) << "error text diverged for: " << g.literal;
      EXPECT_EQ(err_a, err_c) << "cursor error text diverged for: " << g.literal;
      EXPECT_EQ(err_a, err_d) << "batch error text diverged for: " << g.literal;
    }

    if (step % 40 == 39) {
      const char* all = "SELECT id, k, v, r FROM t ORDER BY id";
      expectSameResult(lit.exec(all), par.exec(all), all);
      expectSameResult(lit.exec(all), runViaCursor(cur, all, {}), all);
      expectSameResult(lit.exec(all), runViaBatchCursor(bat, all, {}), all);
      EXPECT_TRUE(db_lit->verifyIntegrity().empty());
      EXPECT_TRUE(db_par->verifyIntegrity().empty());
      EXPECT_TRUE(db_cur->verifyIntegrity().empty());
      EXPECT_TRUE(db_bat->verifyIntegrity().empty());
    }
  }
  if (in_txn > 0) {
    db_lit->commit();
    db_par->commit();
    db_cur->commit();
    db_bat->commit();
  }
  const char* all = "SELECT id, k, v, r FROM t ORDER BY id";
  const ResultSet fin = lit.exec(all);
  expectSameResult(fin, par.exec(all), all);
  expectSameResult(fin, runViaCursor(cur, all, {}), all);
  expectSameResult(fin, runViaBatchCursor(bat, all, {}), all);
  EXPECT_GT(fin.rows.size(), 50u) << "workload degenerated; generator is off";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzz,
                         ::testing::Values(1u, 2u, 3u, 17u, 20260805u));

// ---------------------------------------------------------------------------
// Join differential (JoinFuzz below). Three tables — t from the statement
// fuzzer above plus u and w — feed generated 2- and 3-table joins: inner and
// LEFT JOIN chains or comma joins, extra conjuncts in ON or WHERE (IS NULL on
// the null-extended side included), IN-list probes that take the B-tree
// multi-point and posting-list access paths, GROUP BY/HAVING, DISTINCT, and
// ORDER BY with LIMIT/OFFSET. Every query runs through the literal path,
// the prepared path, the row cursor, the batch cursor at batch sizes 7 and
// 1, and the morsel-parallel path at degree 4 (min pages 1); all of them
// must return the same rows in the same order. The join operator is not its
// own oracle: the test keeps its own copy of the table contents and computes
// every answer with a naive nested-loop reference join.
// ---------------------------------------------------------------------------

struct JoinTable {
  const char* name;
  std::vector<const char*> cols;  // column 0 is the INTEGER PRIMARY KEY id
  std::vector<bool> is_int;
};

const JoinTable kJoinTables[] = {
    {"t", {"id", "k", "v", "r"}, {true, true, false, false}},
    {"u", {"id", "tk", "g", "name"}, {true, true, true, false}},
    {"w", {"id", "uid", "tag", "x"}, {true, true, false, true}},
};

/// A column of the FROM list: `pos` is the FROM position, `col` the ordinal.
struct JCol {
  int pos = 0;
  int col = 0;
};

/// One generated conjunct over joined tuples.
struct JPred {
  enum class Kind { IsNull, NotNull, CmpConst, InConst, ColEq } kind = Kind::IsNull;
  JCol a;
  JCol b;                     // ColEq only
  std::string op;             // CmpConst: = < >= <>
  std::vector<Value> consts;  // CmpConst (1) / InConst (1..4)
  int max_pos() const { return kind == Kind::ColEq ? std::max(a.pos, b.pos) : a.pos; }
};

struct JOutput {
  enum class Kind { Col, CountStar, Count, Sum, Max } kind = Kind::Col;
  JCol c;
};

struct JoinQuery {
  std::vector<int> tables;               // kJoinTables index per FROM position
  std::vector<bool> left;                // per FROM position (0 unused)
  bool comma = false;                    // FROM a, b WHERE ... (inner only)
  std::vector<std::vector<JPred>> on;    // per FROM position (0 unused)
  std::vector<JPred> where;
  bool grouped = false;
  JCol group_col;
  std::optional<std::int64_t> having_gt;  // HAVING COUNT(*) > n
  std::vector<JOutput> outputs;
  bool distinct = false;
  enum class Order { None, Total, FirstCol } order = Order::None;
  std::vector<bool> desc;                // per output column
  std::optional<std::int64_t> limit;
  std::int64_t offset = 0;
};

/// Reference semantics of one conjunct (NULL compares false, like minidb).
bool refPred(const JPred& p, const std::vector<const Row*>& tup) {
  const Value& a = (*tup[p.a.pos])[p.a.col];
  switch (p.kind) {
    case JPred::Kind::IsNull: return a.isNull();
    case JPred::Kind::NotNull: return !a.isNull();
    case JPred::Kind::ColEq: {
      const Value& b = (*tup[p.b.pos])[p.b.col];
      return !a.isNull() && !b.isNull() && a.compare(b) == 0;
    }
    case JPred::Kind::CmpConst: {
      if (a.isNull()) return false;
      const int c = a.compare(p.consts[0]);
      if (p.op == "=") return c == 0;
      if (p.op == "<") return c < 0;
      if (p.op == ">=") return c >= 0;
      return c != 0;
    }
    case JPred::Kind::InConst:
      if (a.isNull()) return false;
      for (const Value& v : p.consts) {
        if (a.compare(v) == 0) return true;
      }
      return false;
  }
  return false;
}

bool rowLess(const Row& a, const Row& b) {
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const int c = a[i].compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

class JoinGen {
 public:
  explicit JoinGen(std::uint64_t seed) : rng_(seed) {}

  util::Rng& rng() { return rng_; }

  /// A fresh row for table `tab` with primary key `id`.
  Row makeRow(int tab, std::int64_t id) {
    auto maybe = [&](Value v) { return rng_.chance(0.12) ? Value::null() : v; };
    switch (tab) {
      case 0:
        return {Value(id), maybe(Value(rng_.uniformInt(0, 9))),
                maybe(Value("s" + std::to_string(rng_.uniformInt(0, 6)))),
                maybe(Value(static_cast<double>(rng_.uniformInt(-4, 4)) + 0.5))};
      case 1:
        return {Value(id), maybe(Value(rng_.uniformInt(0, 11))),
                maybe(Value(rng_.uniformInt(0, 3))),
                maybe(Value("n" + std::to_string(rng_.uniformInt(0, 5))))};
      default:
        return {Value(id), maybe(Value(rng_.uniformInt(1, 45))),
                maybe(Value(std::string(1, static_cast<char>('a' + rng_.uniformInt(0, 3))))),
                maybe(Value(rng_.uniformInt(0, 5)))};
    }
  }

  JoinQuery query() {
    static const std::vector<std::vector<int>> kLayouts = {
        {0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 1, 2}, {2, 1, 0}};
    JoinQuery q;
    q.tables = kLayouts[static_cast<std::size_t>(rng_.uniformInt(0, 5))];
    const int n = static_cast<int>(q.tables.size());
    q.left.assign(static_cast<std::size_t>(n), false);
    q.on.resize(static_cast<std::size_t>(n));
    for (int p = 1; p < n; ++p) q.left[p] = rng_.chance(0.4);
    q.comma = !q.left[1] && (n < 3 || !q.left[2]) && rng_.chance(0.25);
    // The join edge linking each later table to the one before it.
    for (int p = 1; p < n; ++p) {
      JPred edge;
      edge.kind = JPred::Kind::ColEq;
      edge.a = edgeCol(q.tables[p], q.tables[p - 1], p);
      edge.b = edgeCol(q.tables[p - 1], q.tables[p], p - 1);
      (q.comma ? q.where : q.on[p]).push_back(edge);
    }
    const int extra = static_cast<int>(rng_.uniformInt(0, 3));
    for (int i = 0; i < extra; ++i) {
      const JPred pred = randomPred(q);
      // ON conjuncts always reference their own table, so LEFT JOIN matching
      // follows standard SQL.
      if (!q.comma && pred.a.pos >= 1 && pred.max_pos() == pred.a.pos &&
          rng_.chance(0.5)) {
        q.on[pred.a.pos].push_back(pred);
      } else {
        q.where.push_back(pred);
      }
    }
    q.grouped = rng_.chance(0.35);
    if (q.grouped) {
      q.group_col = randomCol(q);
      q.outputs.push_back({JOutput::Kind::Col, q.group_col});
      q.outputs.push_back({JOutput::Kind::CountStar, {}});
      if (rng_.chance(0.5)) q.outputs.push_back({JOutput::Kind::Sum, randomIntCol(q)});
      if (rng_.chance(0.4)) q.outputs.push_back({JOutput::Kind::Count, randomCol(q)});
      if (rng_.chance(0.4)) q.outputs.push_back({JOutput::Kind::Max, randomCol(q)});
      if (rng_.chance(0.3)) q.having_gt = rng_.uniformInt(0, 3);
    } else {
      const int ncols = static_cast<int>(rng_.uniformInt(1, 4));
      for (int i = 0; i < ncols; ++i) q.outputs.push_back({JOutput::Kind::Col, randomCol(q)});
      q.distinct = rng_.chance(0.25);
    }
    switch (rng_.uniformInt(0, 2)) {
      case 0: q.order = JoinQuery::Order::None; break;
      case 1: q.order = JoinQuery::Order::Total; break;
      default: q.order = JoinQuery::Order::FirstCol; break;
    }
    for (std::size_t i = 0; i < q.outputs.size(); ++i) q.desc.push_back(rng_.chance(0.4));
    if (rng_.chance(0.35)) {
      q.limit = rng_.uniformInt(0, 12);
      if (rng_.chance(0.5)) q.offset = rng_.uniformInt(1, 6);
    }
    return q;
  }

 private:
  /// The column of table `tab` that joins it to table `other`
  /// (t.k = u.tk, u.id = w.uid).
  static JCol edgeCol(int tab, int other, int pos) {
    if (tab == 0) return {pos, 1};              // t.k
    if (tab == 2) return {pos, 1};              // w.uid
    return {pos, other == 0 ? 1 : 0};           // u.tk or u.id
  }

  JCol randomCol(const JoinQuery& q) {
    const int pos = static_cast<int>(rng_.uniformInt(0, static_cast<std::int64_t>(q.tables.size()) - 1));
    return {pos, static_cast<int>(rng_.uniformInt(0, 3))};
  }

  JCol randomIntCol(const JoinQuery& q) {
    for (;;) {
      const JCol c = randomCol(q);
      if (kJoinTables[q.tables[c.pos]].is_int[c.col]) return c;
    }
  }

  Value intConst(int tab, int col) {
    if (col == 0 || (tab == 2 && col == 1)) return Value(rng_.uniformInt(1, 45));
    if (tab == 1 && col == 2) return Value(rng_.uniformInt(0, 3));
    if (tab == 2 && col == 3) return Value(rng_.uniformInt(0, 5));
    return Value(rng_.uniformInt(0, 11));
  }

  Value textConst(int tab, int col) {
    if (tab == 0) return Value("s" + std::to_string(rng_.uniformInt(0, 6)));
    if (tab == 1) return Value("n" + std::to_string(rng_.uniformInt(0, 5)));
    (void)col;
    return Value(std::string(1, static_cast<char>('a' + rng_.uniformInt(0, 3))));
  }

  JPred randomPred(const JoinQuery& q) {
    JPred p;
    switch (rng_.uniformInt(0, 5)) {
      case 0:
      case 1:
        p.kind = rng_.chance(0.6) ? JPred::Kind::IsNull : JPred::Kind::NotNull;
        p.a = randomCol(q);
        return p;
      case 2: {
        p.kind = JPred::Kind::CmpConst;
        p.a = randomCol(q);
        const int tab = q.tables[p.a.pos];
        if (kJoinTables[tab].is_int[p.a.col]) {
          static const char* kOps[] = {"=", "<", ">=", "<>"};
          p.op = kOps[rng_.uniformInt(0, 3)];
          p.consts = {intConst(tab, p.a.col)};
        } else if (tab == 0 && p.a.col == 3) {  // t.r REAL
          p.op = rng_.chance(0.5) ? "<" : ">=";
          p.consts = {Value(static_cast<double>(rng_.uniformInt(-4, 4)))};
        } else {
          p.op = rng_.chance(0.7) ? "=" : "<>";
          p.consts = {textConst(tab, p.a.col)};
        }
        return p;
      }
      case 3:
      case 4: {
        // IN-lists on ids (B-tree multi-point probe) and on the indexed
        // u.tk / w.uid (posting-list probe) take index access paths.
        p.kind = JPred::Kind::InConst;
        p.a = randomIntCol(q);
        const int tab = q.tables[p.a.pos];
        const int nkeys = static_cast<int>(rng_.uniformInt(1, 4));
        for (int i = 0; i < nkeys; ++i) p.consts.push_back(intConst(tab, p.a.col));
        return p;
      }
      default: {
        p.kind = JPred::Kind::ColEq;
        p.a = randomIntCol(q);
        p.b = randomIntCol(q);
        if (p.b.pos > p.a.pos) std::swap(p.a, p.b);
        return p;
      }
    }
  }

  util::Rng rng_;
};

std::string colSql(const JoinQuery& q, const JCol& c) {
  const JoinTable& t = kJoinTables[q.tables[c.pos]];
  return std::string(t.name) + "." + t.cols[c.col];
}

std::string predSql(const JoinQuery& q, const JPred& p, std::vector<Value>& params) {
  const std::string a = colSql(q, p.a);
  switch (p.kind) {
    case JPred::Kind::IsNull: return a + " IS NULL";
    case JPred::Kind::NotNull: return a + " IS NOT NULL";
    case JPred::Kind::ColEq: return a + " = " + colSql(q, p.b);
    case JPred::Kind::CmpConst:
      params.push_back(p.consts[0]);
      return a + " " + p.op + " ?";
    case JPred::Kind::InConst: {
      std::string s = a + " IN (";
      for (std::size_t i = 0; i < p.consts.size(); ++i) {
        s += i ? ", ?" : "?";
        params.push_back(p.consts[i]);
      }
      return s + ")";
    }
  }
  return "";
}

std::string outputSql(const JoinQuery& q, const JOutput& o) {
  switch (o.kind) {
    case JOutput::Kind::Col: return colSql(q, o.c);
    case JOutput::Kind::CountStar: return "COUNT(*)";
    case JOutput::Kind::Count: return "COUNT(" + colSql(q, o.c) + ")";
    case JOutput::Kind::Sum: return "SUM(" + colSql(q, o.c) + ")";
    case JOutput::Kind::Max: return "MAX(" + colSql(q, o.c) + ")";
  }
  return "";
}

/// Parameterized SQL for `q`; constants become '?' appended to `params`.
std::string joinSql(const JoinQuery& q, std::vector<Value>& params) {
  auto conj = [&](const std::vector<JPred>& preds) {
    std::string s;
    for (const JPred& p : preds) {
      if (!s.empty()) s += " AND ";
      s += predSql(q, p, params);
    }
    return s;
  };
  std::string sql = q.distinct ? "SELECT DISTINCT " : "SELECT ";
  for (std::size_t i = 0; i < q.outputs.size(); ++i) {
    if (i) sql += ", ";
    sql += outputSql(q, q.outputs[i]);
  }
  sql += " FROM ";
  sql += kJoinTables[q.tables[0]].name;
  for (std::size_t p = 1; p < q.tables.size(); ++p) {
    if (q.comma) {
      sql += std::string(", ") + kJoinTables[q.tables[p]].name;
      continue;
    }
    sql += q.left[p] ? " LEFT JOIN " : " JOIN ";
    sql += kJoinTables[q.tables[p]].name;
    sql += " ON " + conj(q.on[p]);
  }
  if (!q.where.empty()) sql += " WHERE " + conj(q.where);
  if (q.grouped) sql += " GROUP BY " + colSql(q, q.group_col);
  if (q.having_gt) {
    sql += " HAVING COUNT(*) > ?";
    params.push_back(Value(*q.having_gt));
  }
  if (q.order != JoinQuery::Order::None) {
    const std::size_t n = q.order == JoinQuery::Order::Total ? q.outputs.size() : 1;
    sql += " ORDER BY ";
    for (std::size_t i = 0; i < n; ++i) {
      if (i) sql += ", ";
      sql += outputSql(q, q.outputs[i]) + (q.desc[i] ? " DESC" : "");
    }
  }
  if (q.limit) {
    sql += " LIMIT " + std::to_string(*q.limit);
    if (q.offset > 0) sql += " OFFSET " + std::to_string(q.offset);
  }
  return sql;
}

/// The reference answer, before ORDER BY / LIMIT: a naive nested loop over
/// the test's own copy of the tables with standard LEFT JOIN semantics (a
/// row matches when it passes its ON conjuncts; an unmatched outer tuple is
/// extended with NULLs; WHERE filters the complete tuples).
std::vector<Row> referenceJoin(const JoinQuery& q, const std::vector<std::vector<Row>>& data) {
  const std::size_t n = q.tables.size();
  std::vector<const Row*> tup(n, nullptr);
  std::vector<Row> nulls;
  for (std::size_t p = 0; p < n; ++p) nulls.emplace_back(4);  // all NULL
  std::vector<std::vector<const Row*>> joined;
  std::function<void(std::size_t)> walk = [&](std::size_t p) {
    if (p == n) {
      for (const JPred& pred : q.where) {
        if (!refPred(pred, tup)) return;
      }
      joined.push_back(tup);
      return;
    }
    bool matched = false;
    for (const Row& row : data[q.tables[p]]) {
      tup[p] = &row;
      bool on_ok = true;
      for (const JPred& pred : q.on[p]) on_ok = on_ok && refPred(pred, tup);
      if (!on_ok) continue;
      matched = true;
      walk(p + 1);
    }
    if (q.left[p] && !matched) {
      tup[p] = &nulls[p];
      walk(p + 1);
    }
    tup[p] = nullptr;
  };
  walk(0);

  auto at = [](const std::vector<const Row*>& t, const JCol& c) -> const Value& {
    return (*t[c.pos])[c.col];
  };
  std::vector<Row> out;
  if (!q.grouped) {
    for (const auto& t : joined) {
      Row row;
      for (const JOutput& o : q.outputs) row.push_back(at(t, o.c));
      out.push_back(std::move(row));
    }
    if (q.distinct) {
      std::vector<Row> uniq;
      for (Row& row : out) {
        const bool seen = std::any_of(uniq.begin(), uniq.end(), [&](const Row& r) {
          return !rowLess(r, row) && !rowLess(row, r);
        });
        if (!seen) uniq.push_back(std::move(row));
      }
      out = std::move(uniq);
    }
    return out;
  }
  // GROUP BY: one bucket per distinct group value (NULL is its own group).
  std::vector<std::pair<Value, std::vector<const std::vector<const Row*>*>>> groups;
  for (const auto& t : joined) {
    const Value& key = at(t, q.group_col);
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first.compare(key) == 0; });
    if (it == groups.end()) {
      groups.push_back({key, {}});
      it = groups.end() - 1;
    }
    it->second.push_back(&t);
  }
  for (const auto& [key, members] : groups) {
    if (q.having_gt && static_cast<std::int64_t>(members.size()) <= *q.having_gt) continue;
    Row row;
    for (const JOutput& o : q.outputs) {
      switch (o.kind) {
        case JOutput::Kind::Col: row.push_back(key); break;
        case JOutput::Kind::CountStar:
          row.push_back(Value(static_cast<std::int64_t>(members.size())));
          break;
        case JOutput::Kind::Count: {
          std::int64_t c = 0;
          for (const auto* t : members) c += at(*t, o.c).isNull() ? 0 : 1;
          row.push_back(Value(c));
          break;
        }
        case JOutput::Kind::Sum: {
          std::optional<std::int64_t> s;
          for (const auto* t : members) {
            const Value& v = at(*t, o.c);
            if (!v.isNull()) s = s.value_or(0) + v.asInt();
          }
          row.push_back(s ? Value(*s) : Value::null());
          break;
        }
        case JOutput::Kind::Max: {
          Value m = Value::null();
          for (const auto* t : members) {
            const Value& v = at(*t, o.c);
            if (!v.isNull() && (m.isNull() || v.compare(m) > 0)) m = v;
          }
          row.push_back(m);
          break;
        }
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::string renderRows(const std::vector<Row>& rows) {
  std::string s;
  for (const Row& row : rows) {
    s += "\n  (";
    for (std::size_t i = 0; i < row.size(); ++i) {
      s += (i ? ", " : "") + (row[i].isNull() ? std::string("NULL") : row[i].toDisplayString());
    }
    s += ")";
  }
  return s;
}

/// Checks the engine's answer against the reference: exactly when ORDER BY
/// covers every output column, by multiset (plus sortedness) otherwise;
/// LIMIT/OFFSET slices are checked by key order and containment.
void expectMatchesReference(const JoinQuery& q, const std::vector<Row>& got,
                            std::vector<Row> ref, const std::string& sql) {
  SCOPED_TRACE("reference check: " + sql);
  const std::size_t nkeys = q.order == JoinQuery::Order::Total ? q.outputs.size() : 1;
  auto keyLess = [&](const Row& a, const Row& b) {
    for (std::size_t i = 0; i < nkeys; ++i) {
      const int c = a[i].compare(b[i]);
      if (c != 0) return q.desc[i] ? c > 0 : c < 0;
    }
    return false;
  };
  if (q.order != JoinQuery::Order::None) {
    std::stable_sort(ref.begin(), ref.end(), keyLess);
    for (std::size_t i = 1; i < got.size(); ++i) {
      ASSERT_FALSE(keyLess(got[i], got[i - 1])) << "output not in ORDER BY order at row " << i;
    }
  }
  const std::size_t begin = std::min<std::size_t>(static_cast<std::size_t>(q.offset), ref.size());
  std::size_t end = ref.size();
  if (q.limit) end = std::min(end, begin + static_cast<std::size_t>(*q.limit));
  ASSERT_EQ(got.size(), end - begin) << "engine:" << renderRows(got)
                                     << "\nreference:" << renderRows(ref);
  if (q.order == JoinQuery::Order::Total) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_FALSE(rowLess(got[i], ref[begin + i]) || rowLess(ref[begin + i], got[i]))
          << "row " << i << " differs; engine:" << renderRows(got)
          << "\nreference:" << renderRows(ref);
    }
    return;
  }
  if (q.order == JoinQuery::Order::FirstCol) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i][0].compare(ref[begin + i][0]), 0) << "sort key of row " << i;
    }
  }
  // Every returned row is a reference row (as a multiset); without a slice
  // the two multisets are equal.
  std::multiset<Row, decltype(&rowLess)> pool(ref.begin(), ref.end(), &rowLess);
  for (const Row& row : got) {
    auto it = pool.find(row);
    ASSERT_TRUE(it != pool.end()) << "row not in the reference:" << renderRows({row})
                                  << "\nreference:" << renderRows(ref);
    pool.erase(it);
  }
}

/// Drains one SELECT through a prepared statement's cursor, row by row
/// (`batch` = false) or batch by batch.
std::vector<Row> drainCursor(Engine& eng, const std::string& sql,
                             const std::vector<Value>& params, bool batch) {
  PreparedStatement stmt = eng.prepare(sql);
  stmt.bindAll(params);
  Cursor cur = stmt.openCursor();
  std::vector<Row> rows;
  Row row;
  if (!batch) {
    while (cur.next(row)) rows.push_back(row);
    return rows;
  }
  RowBatch b;
  while (cur.fetchBatch(b)) {
    for (const std::uint32_t i : b.sel) {
      b.materializeRow(i, row);
      rows.push_back(row);
    }
  }
  return rows;
}

class JoinFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JoinFuzz, DrainsDegreesAndReferenceJoinAgree) {
  auto db = Database::openMemory();
  Engine lit(*db);
  lit.setExecThreads(1);
  Engine b7(*db);
  b7.setExecThreads(1);
  b7.setExecBatchRows(7);
  Engine b1(*db);
  b1.setExecThreads(1);
  b1.setExecBatchRows(1);
  Engine par(*db);
  par.setExecThreads(4);
  par.setParallelMinPages(1);
  lit.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT, r REAL)");
  lit.exec("CREATE TABLE u (id INTEGER PRIMARY KEY, tk INTEGER, g INTEGER, name TEXT)");
  lit.exec("CREATE TABLE w (id INTEGER PRIMARY KEY, uid INTEGER, tag TEXT, x INTEGER)");
  lit.exec("CREATE INDEX t_by_k ON t (k)");
  lit.exec("CREATE INDEX u_by_tk ON u (tk)");
  lit.exec("CREATE INDEX w_by_uid ON w (uid)");

  JoinGen gen(GetParam());
  std::vector<std::vector<Row>> data(3);
  std::vector<std::int64_t> next_id(3, 1);
  auto insert = [&](int tab) {
    Row row = gen.makeRow(tab, next_id[tab]++);
    std::string values;
    for (const Value& v : row) values += (values.empty() ? "" : ", ") + renderLiteral(v);
    lit.exec(std::string("INSERT INTO ") + kJoinTables[tab].name + " VALUES (" + values + ")");
    data[tab].push_back(std::move(row));
  };
  const int kRows[] = {45, 30, 25};
  for (int tab = 0; tab < 3; ++tab) {
    for (int i = 0; i < kRows[tab]; ++i) insert(tab);
  }

  obs::Counter& parallel_runs =
      obs::Registry::global().counter("pt_exec_parallel_queries_total");
  const std::uint64_t parallel_before = parallel_runs.value();
  int nonempty = 0;
  const int kQueries = 250;
  for (int step = 0; step < kQueries; ++step) {
    if (step % 40 == 39) {  // churn: a few inserts and deletes by id
      for (int i = 0; i < 4; ++i) {
        const int tab = static_cast<int>(gen.rng().uniformInt(0, 2));
        if (gen.rng().chance(0.5) || data[tab].size() < 10) {
          insert(tab);
          continue;
        }
        const std::size_t victim = static_cast<std::size_t>(
            gen.rng().uniformInt(0, static_cast<std::int64_t>(data[tab].size()) - 1));
        lit.exec(std::string("DELETE FROM ") + kJoinTables[tab].name +
                 " WHERE id = " + data[tab][victim][0].toDisplayString());
        data[tab].erase(data[tab].begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
    const JoinQuery q = gen.query();
    std::vector<Value> params;
    const std::string sql = joinSql(q, params);
    const std::string literal = inlineParams(sql, params);
    SCOPED_TRACE("statement: " + literal);

    const ResultSet base = lit.exec(literal);
    ASSERT_EQ(base.columns.size(), q.outputs.size());
    const std::vector<std::pair<const char*, std::vector<Row>>> drains = {
        {"prepared", lit.prepare(sql).execute(params).rows},
        {"row cursor", drainCursor(lit, sql, params, /*batch=*/false)},
        {"batch cursor (7)", drainCursor(b7, sql, params, /*batch=*/true)},
        {"batch cursor (1)", drainCursor(b1, sql, params, /*batch=*/true)},
        {"degree 4", par.exec(literal).rows},
        {"degree 4 row cursor", drainCursor(par, sql, params, /*batch=*/false)},
    };
    for (const auto& [name, rows] : drains) {
      SCOPED_TRACE(name);
      ASSERT_EQ(rows.size(), base.rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_FALSE(rowLess(rows[i], base.rows[i]) || rowLess(base.rows[i], rows[i]))
            << "row " << i << " diverged:" << renderRows({rows[i], base.rows[i]});
      }
    }
    expectMatchesReference(q, base.rows, referenceJoin(q, data), literal);
    if (HasFatalFailure()) return;
    if (!base.rows.empty()) ++nonempty;
  }
  EXPECT_TRUE(db->verifyIntegrity().empty());
  // Guards against a degenerate generator: most joins return rows, and the
  // degree-4 engine really took the morsel-parallel path.
  EXPECT_GT(nonempty, kQueries / 2);
  EXPECT_GT(parallel_runs.value(), parallel_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinFuzz,
                         ::testing::Values(1u, 2u, 3u, 11u, 20261019u));

TEST(JoinRepeatedKeys, PrimaryKeyLookupsInRunsMatchAReferenceJoin) {
  // Outer rows come in runs that share their inner primary keys (the shape
  // of the result join: consecutive results of one execution), including a
  // key with no inner row, NULL keys, and an integer key spelled as a real.
  // Every drain must equal the answer computed here, and EXPLAIN ANALYZE
  // must count one probe per outer row.
  auto db = Database::openMemory();
  Engine eng(*db);
  eng.setExecThreads(1);
  eng.exec("CREATE TABLE e (id INTEGER PRIMARY KEY, name TEXT, app INTEGER)");
  eng.exec("CREATE TABLE a (id INTEGER PRIMARY KEY, name TEXT)");
  eng.exec("CREATE TABLE r (id INTEGER PRIMARY KEY, eid REAL, v INTEGER)");
  eng.exec("INSERT INTO a VALUES (1, 'app-one'), (2, 'app-two')");
  eng.exec("INSERT INTO e VALUES (1, 'exec-one', 1), (2, 'exec-two', 2), (3, 'exec-three', 1)");
  // eid runs: 1 1 1 9 9 NULL NULL 2 2 2.0 3 1 1 (9 has no execution row).
  const std::vector<Value> eids = {Value(1.0), Value(1.0), Value(1.0), Value(9.0),
                                   Value(9.0), Value::null(), Value::null(),
                                   Value(2.0), Value(2.0), Value(2.0), Value(3.0),
                                   Value(1.0), Value(1.0)};
  for (std::size_t i = 0; i < eids.size(); ++i) {
    eng.prepare("INSERT INTO r VALUES (?, ?, ?)")
        .execute({Value(static_cast<std::int64_t>(i + 1)), eids[i],
                  Value(static_cast<std::int64_t>(10 * i))});
  }
  const std::string sql =
      "SELECT r.id, e.name, a.name, r.v FROM r LEFT JOIN e ON e.id = r.eid "
      "LEFT JOIN a ON a.id = e.app ORDER BY r.id";
  std::vector<Row> expected;
  const char* exec_names[] = {"", "exec-one", "exec-two", "exec-three"};
  const char* app_names[] = {"", "app-one", "app-two", "app-one"};
  for (std::size_t i = 0; i < eids.size(); ++i) {
    const bool hit = !eids[i].isNull() && eids[i].asReal() < 4;
    const auto e = hit ? static_cast<std::size_t>(eids[i].asReal()) : 0;
    expected.push_back({Value(static_cast<std::int64_t>(i + 1)),
                        hit ? Value(exec_names[e]) : Value::null(),
                        hit ? Value(app_names[e]) : Value::null(),
                        Value(static_cast<std::int64_t>(10 * i))});
  }
  Engine b1(*db);
  b1.setExecThreads(1);
  b1.setExecBatchRows(1);
  for (const auto& [name, rows] :
       std::vector<std::pair<const char*, std::vector<Row>>>{
           {"literal", eng.exec(sql).rows},
           {"row cursor", drainCursor(eng, sql, {}, /*batch=*/false)},
           {"batch cursor (1)", drainCursor(b1, sql, {}, /*batch=*/true)}}) {
    SCOPED_TRACE(name);
    ASSERT_EQ(rows.size(), expected.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_FALSE(rowLess(rows[i], expected[i]) || rowLess(expected[i], rows[i]))
          << "row " << i << ":" << renderRows({rows[i], expected[i]});
    }
  }
  std::string plan;
  for (const Row& row : eng.exec("EXPLAIN ANALYZE " + sql).rows) plan += row[0].asText() + "\n";
  // Each level opens once per outer row (an unmatched or NULL-keyed row is
  // null-extended, then opens the next level with a NULL key); 9 of the 13
  // rows find an execution, and with it an application.
  EXPECT_NE(plan.find("USING INDEX e__pk (id=?) (actual rows=9 loops=13 "),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("USING INDEX a__pk (id=?) (actual rows=9 loops=13 "),
            std::string::npos)
      << plan;
}

// Durability differential: the same seeded statement stream against a
// file-backed WAL store (tiny autocheckpoint, so the log folds mid-stream)
// and an in-memory store. The two share everything above the pager; below
// it, redo frames + checkpoint + close-time fold vs resident pages only —
// so any divergence in results, table contents, or post-reopen state is a
// bug in the WAL commit path.
class DurabilityFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DurabilityFuzz, WalAndMemoryStoresAgree) {
  util::TempDir tmp;
  const std::string wal_path = tmp.file("wal.db").string();
  OpenOptions wal_options;
  wal_options.wal_autocheckpoint = 16;

  auto db_m = Database::openMemory();
  auto db_w = Database::open(wal_path, wal_options);
  Engine mem(*db_m);
  Engine wal(*db_w);
  const char* ddl =
      "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT, r REAL)";
  mem.exec(ddl);
  wal.exec(ddl);

  FuzzGen gen(GetParam());
  int in_txn = 0;
  for (int step = 0; step < 300; ++step) {
    if (in_txn == 0 && gen.rng().chance(0.2)) {
      db_m->begin();
      db_w->begin();
      in_txn = static_cast<int>(gen.rng().uniformInt(3, 10));
    } else if (in_txn > 0 && --in_txn == 0) {
      if (gen.rng().chance(0.33)) {
        db_m->rollback();
        db_w->rollback();
      } else {
        db_m->commit();
        db_w->commit();
      }
    }

    const GenStmt g = gen.next();
    std::optional<ResultSet> rm, rw;
    std::string err_m, err_w;
    try {
      rm = mem.exec(g.literal);
    } catch (const util::PTError& e) {
      err_m = e.what();
    }
    try {
      rw = wal.exec(g.literal);
    } catch (const util::PTError& e) {
      err_w = e.what();
    }
    ASSERT_EQ(rm.has_value(), rw.has_value())
        << "one store errored: memory=[" << err_m << "] wal=[" << err_w
        << "] for: " << g.literal;
    if (rm) {
      expectSameResult(*rm, *rw, g.literal);
    } else {
      EXPECT_EQ(err_m, err_w) << "error text diverged for: " << g.literal;
    }

    if (step % 40 == 39) {
      const char* all = "SELECT id, k, v, r FROM t ORDER BY id";
      expectSameResult(mem.exec(all), wal.exec(all), all);
      EXPECT_TRUE(db_m->verifyIntegrity().empty());
      EXPECT_TRUE(db_w->verifyIntegrity().empty());
    }
  }
  if (in_txn > 0) {
    db_m->commit();
    db_w->commit();
  }

  // Close the WAL store and reopen it: the close-time checkpoint fold must
  // read back exactly what the in-memory store holds, and the clean close
  // must leave no log behind.
  db_w.reset();
  EXPECT_FALSE(std::filesystem::exists(wal_path + ".wal"));
  db_w = Database::open(wal_path, wal_options);
  EXPECT_FALSE(db_w->recoveryStats().wal_replayed);
  Engine wal2(*db_w);
  const char* all = "SELECT id, k, v, r FROM t ORDER BY id";
  const ResultSet fin = mem.exec(all);
  expectSameResult(fin, wal2.exec(all), all);
  EXPECT_GT(fin.rows.size(), 40u) << "workload degenerated; generator is off";
  EXPECT_TRUE(db_w->verifyIntegrity().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DurabilityFuzz,
                         ::testing::Values(5u, 23u, 4242u));

}  // namespace
}  // namespace perftrack::minidb::sql
