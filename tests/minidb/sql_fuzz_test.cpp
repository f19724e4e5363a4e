// Differential SQL fuzzing: the literal path vs the prepared path vs the
// streaming cursor path vs the batch cursor path, plus a WAL file store vs
// in-memory store differential over the same statement stream
// (DurabilityFuzz below).
//
// Four twin in-memory databases receive the same seeded random statement
// stream. One executes every statement with inlined literals through
// Engine::exec; the second executes the parameterized form ('?'
// placeholders) through prepare()/bind/execute; the third also prepares, but
// drains every SELECT one row at a time through openCursor()/next(); the
// fourth drains through fetchBatch() with a deliberately odd batch size (7)
// so every query ends on a partial batch. The paths share the parser but
// diverge at parameter substitution, plan caching, epoch revalidation, and
// (for the cursor twins) the materializing wrapper vs the row-at-a-time vs
// the vectorized operator pipeline. Any divergence (different rows,
// different rows_affected, an error on one side only) is a bug in one of
// the paths.
//
// Statement mix: INSERT (with NULLs, negative ints, reals, text), UPDATE,
// DELETE, point/range/IN SELECTs with ORDER BY, occasional CREATE/DROP
// INDEX, transaction brackets with rollbacks, and deliberately invalid
// statements (unknown table/column) that must fail identically on both
// sides. Every 40 statements the full table contents and storage integrity
// of both twins are compared.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "minidb/database.h"
#include "minidb/sql/executor.h"
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
