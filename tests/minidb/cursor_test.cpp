// Cursor lifetime semantics: streaming SELECT cursors from Engine /
// PreparedStatement, the storage-level pull cursors they are built on, and
// the open-cursor guards that keep DDL/VACUUM/DML from invalidating a scan
// in progress.
#include <gtest/gtest.h>

#include "minidb/database.h"
#include "minidb/sql/executor.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace perftrack::minidb::sql {
namespace {

using util::SqlError;
using util::StorageError;

class CursorTest : public ::testing::Test {
 protected:
  CursorTest() : db_(Database::openMemory()), sql_(*db_) {
    sql_.exec("CREATE TABLE runs (id INTEGER PRIMARY KEY, machine TEXT, secs REAL)");
    sql_.exec("INSERT INTO runs (machine, secs) VALUES "
              "('frost', 10.0), ('mcr', 5.0), ('frost', 12.0), ('bgl', 7.0)");
    sql_.exec("CREATE INDEX runs_by_machine ON runs (machine)");
  }

  std::unique_ptr<Database> db_;
  Engine sql_;
};

// --- basic streaming ---------------------------------------------------------

TEST_F(CursorTest, StreamsRowsInOrderAndAutoCloses) {
  Cursor cur = sql_.openCursor("SELECT id, machine FROM runs ORDER BY id");
  ASSERT_EQ(cur.columns().size(), 2u);
  EXPECT_EQ(cur.columns()[0], "id");
  EXPECT_TRUE(cur.isOpen());
  Row row;
  std::vector<std::int64_t> ids;
  while (cur.next(row)) {
    ASSERT_EQ(row.size(), 2u);
    ids.push_back(row[0].asInt());
  }
  EXPECT_EQ(ids, (std::vector<std::int64_t>{1, 2, 3, 4}));
  // Exhaustion auto-closes: the pin is gone and next() keeps returning false.
  EXPECT_FALSE(cur.isOpen());
  EXPECT_EQ(db_->openCursorCount(), 0u);
  EXPECT_FALSE(cur.next(row));
}

TEST_F(CursorTest, CursorAgreesWithExec) {
  const char* kSql =
      "SELECT machine, COUNT(*), SUM(secs) FROM runs "
      "GROUP BY machine HAVING COUNT(*) >= 1 ORDER BY machine";
  const ResultSet rs = sql_.exec(kSql);
  Cursor cur = sql_.openCursor(kSql);
  EXPECT_EQ(cur.columns(), rs.columns);
  Row row;
  std::size_t i = 0;
  while (cur.next(row)) {
    ASSERT_LT(i, rs.rows.size());
    ASSERT_EQ(row.size(), rs.rows[i].size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(row[c], rs.rows[i][c]) << "row " << i << " col " << c;
    }
    ++i;
  }
  EXPECT_EQ(i, rs.rows.size());
}

TEST_F(CursorTest, OpenCursorRejectsNonSelectAndUnboundParams) {
  EXPECT_THROW(sql_.openCursor("INSERT INTO runs (machine, secs) VALUES ('x', 1)"),
               SqlError);
  EXPECT_THROW(sql_.openCursor("SELECT * FROM runs WHERE machine = ?"), SqlError);
  PreparedStatement stmt = sql_.prepare("SELECT * FROM runs WHERE machine = ?");
  EXPECT_THROW(stmt.openCursor(), SqlError);  // param never bound
  stmt.bind(1, Value("frost"));
  Cursor cur = stmt.openCursor();
  Row row;
  std::size_t n = 0;
  while (cur.next(row)) ++n;
  EXPECT_EQ(n, 2u);
}

// --- DDL/VACUUM/DML guards ---------------------------------------------------

TEST_F(CursorTest, DdlWhileCursorOpenThrowsCleanly) {
  Cursor cur = sql_.openCursor("SELECT id FROM runs");
  Row row;
  ASSERT_TRUE(cur.next(row));
  EXPECT_THROW(sql_.exec("CREATE INDEX runs_by_secs ON runs (secs)"), StorageError);
  EXPECT_THROW(sql_.exec("DROP INDEX runs_by_machine"), StorageError);
  EXPECT_THROW(sql_.exec("CREATE TABLE t2 (id INTEGER PRIMARY KEY)"), StorageError);
  EXPECT_THROW(sql_.exec("DROP TABLE runs"), StorageError);
  // The scan is undisturbed by the failed DDL and finishes normally.
  std::size_t rest = 0;
  while (cur.next(row)) ++rest;
  EXPECT_EQ(rest, 3u);
  // With the cursor closed, the same DDL goes through.
  sql_.exec("CREATE INDEX runs_by_secs ON runs (secs)");
}

TEST_F(CursorTest, VacuumAndDmlWhileCursorOpenThrowCleanly) {
  Cursor cur = sql_.openCursor("SELECT id FROM runs");
  Row row;
  ASSERT_TRUE(cur.next(row));
  EXPECT_THROW(sql_.exec("VACUUM"), StorageError);
  EXPECT_THROW(sql_.exec("INSERT INTO runs (machine, secs) VALUES ('x', 1)"),
               StorageError);
  EXPECT_THROW(sql_.exec("UPDATE runs SET secs = 0"), StorageError);
  EXPECT_THROW(sql_.exec("DELETE FROM runs"), StorageError);
  cur.close();
  sql_.exec("VACUUM");
  EXPECT_EQ(sql_.exec("SELECT COUNT(*) FROM runs").rows[0][0].asInt(), 4);
}

TEST_F(CursorTest, EarlyCloseReleasesPinAndIsIdempotent) {
  Cursor cur = sql_.openCursor("SELECT id FROM runs");
  Row row;
  ASSERT_TRUE(cur.next(row));
  // The cursor's own pin plus the storage-level scan cursor's pin.
  EXPECT_GE(db_->openCursorCount(), 1u);
  cur.close();
  EXPECT_FALSE(cur.isOpen());
  EXPECT_EQ(db_->openCursorCount(), 0u);
  EXPECT_FALSE(cur.next(row));
  cur.close();  // idempotent
  sql_.exec("DROP TABLE runs");
}

TEST_F(CursorTest, DestructorReleasesPin) {
  {
    Cursor cur = sql_.openCursor("SELECT id FROM runs");
    Row row;
    ASSERT_TRUE(cur.next(row));
    EXPECT_GE(db_->openCursorCount(), 1u);
  }
  EXPECT_EQ(db_->openCursorCount(), 0u);
}

// --- interleaving ------------------------------------------------------------

TEST_F(CursorTest, TwoInterleavedCursorsProduceIndependentStreams) {
  Cursor asc = sql_.openCursor("SELECT id FROM runs ORDER BY id");
  Cursor desc = sql_.openCursor("SELECT id FROM runs ORDER BY id DESC");
  EXPECT_EQ(db_->openCursorCount(), 2u);
  Row a, d;
  std::vector<std::int64_t> got_asc, got_desc;
  // Strict lock-step interleave.
  while (true) {
    const bool more_a = asc.next(a);
    const bool more_d = desc.next(d);
    if (more_a) got_asc.push_back(a[0].asInt());
    if (more_d) got_desc.push_back(d[0].asInt());
    if (!more_a && !more_d) break;
  }
  EXPECT_EQ(got_asc, (std::vector<std::int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(got_desc, (std::vector<std::int64_t>{4, 3, 2, 1}));
  EXPECT_EQ(db_->openCursorCount(), 0u);
}

TEST_F(CursorTest, InnerCursorWhileOuterScansSameTable) {
  // The nested pattern the exporter uses: an index probe per outer row.
  PreparedStatement inner = sql_.prepare("SELECT secs FROM runs WHERE machine = ?");
  Cursor outer = sql_.openCursor("SELECT machine FROM runs ORDER BY id");
  Row row;
  std::size_t pairs = 0;
  while (outer.next(row)) {
    inner.bind(1, row[0]);
    Cursor probe = inner.openCursor();
    Row inner_row;
    while (probe.next(inner_row)) ++pairs;
  }
  // frost matches 2 per frost run (x2) + mcr 1 + bgl 1.
  EXPECT_EQ(pairs, 6u);
}

TEST_F(CursorTest, OnePreparedStatementOneCursorAtATime) {
  PreparedStatement stmt = sql_.prepare("SELECT id FROM runs");
  Cursor first = stmt.openCursor();
  EXPECT_TRUE(stmt.hasOpenCursor());
  // Bindings live in the shared statement AST, so a second simultaneous
  // cursor would corrupt the first scan; it is refused instead.
  EXPECT_THROW(stmt.openCursor(), SqlError);
  first.close();
  EXPECT_FALSE(stmt.hasOpenCursor());
  Cursor second = stmt.openCursor();
  Row row;
  std::size_t n = 0;
  while (second.next(row)) ++n;
  EXPECT_EQ(n, 4u);
}

TEST_F(CursorTest, CursorOutlivesItsPreparedStatement) {
  Cursor cur = [&] {
    PreparedStatement stmt = sql_.prepare("SELECT id FROM runs ORDER BY id");
    return stmt.openCursor();
  }();  // stmt destroyed here; the cursor shares the statement and plan
  Row row;
  std::vector<std::int64_t> ids;
  while (cur.next(row)) ids.push_back(row[0].asInt());
  EXPECT_EQ(ids, (std::vector<std::int64_t>{1, 2, 3, 4}));
}

// --- EXPLAIN cursors ---------------------------------------------------------

TEST_F(CursorTest, ExplainCursorHoldsNoPin) {
  Cursor cur = sql_.openCursor("EXPLAIN SELECT * FROM runs WHERE machine = 'x'");
  EXPECT_EQ(db_->openCursorCount(), 0u);  // plan text only, no storage scan
  // DDL is allowed while an EXPLAIN cursor is open.
  sql_.exec("CREATE TABLE side (id INTEGER PRIMARY KEY)");
  Row row;
  std::size_t lines = 0;
  while (cur.next(row)) ++lines;
  EXPECT_GT(lines, 0u);
}

// --- storage-level cursors ---------------------------------------------------

TEST_F(CursorTest, TableCursorStreamsHeapRecords) {
  auto cur = db_->openCursor("runs");
  EXPECT_EQ(db_->openCursorCount(), 1u);
  RecordId rid;
  Row row;
  std::size_t n = 0;
  while (cur.next(rid, row)) ++n;
  EXPECT_EQ(n, 4u);
  EXPECT_FALSE(cur.isOpen());
  EXPECT_EQ(db_->openCursorCount(), 0u);
}

TEST_F(CursorTest, IndexCursorEqualProbeStreamsMatches) {
  const auto* index = db_->catalog().findIndex("runs_by_machine");
  ASSERT_NE(index, nullptr);
  auto cur = db_->openIndexEqual(*index, {Value("frost")});
  RecordId rid;
  Row row;
  std::size_t n = 0;
  while (cur.next(rid, row)) {
    EXPECT_EQ(row[1].asText(), "frost");
    ++n;
  }
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(db_->openCursorCount(), 0u);
}

// --- early close over a large scan --------------------------------------------

/// Page reads of a read-only step: open a cursor on `sql`, take `rows` rows
/// through next(), close.
std::uint64_t pageReadsToStep(Engine& sql, const std::string& query, int rows) {
  obs::Counter& reads = obs::Registry::global().counter("pt_pager_page_reads_total");
  const std::uint64_t before = reads.value();
  Cursor cur = sql.openCursor(query);
  Row row;
  for (int i = 0; i < rows; ++i) EXPECT_TRUE(cur.next(row));
  cur.close();
  return reads.value() - before;
}

TEST(CursorEarlyClose, RowStepperThatStopsEarlyScansAboutThirtyTwoRows) {
  // A caller that steps one row and closes (a top-K loop over a cursor)
  // must not pay for a full batch: the row adapter's first refill asks for
  // 32 rows, so the scan reads what a 32-row scan reads, not a 1024-row
  // batch.
  auto db = Database::openMemory();
  Engine sql(*db);
  sql.exec("CREATE TABLE big (id INTEGER PRIMARY KEY, pad TEXT)");
  PreparedStatement ins = sql.prepare("INSERT INTO big (pad) VALUES (?)");
  db->begin();
  for (int i = 0; i < 10000; ++i) ins.execute({Value(std::string(100, 'x'))});
  db->commit();

  obs::Histogram& fill = obs::Registry::global().histogram("pt_exec_batch_fill_rows");
  const double fill_before = fill.sumMs();
  const std::uint64_t one_row = pageReadsToStep(sql, "SELECT id, pad FROM big", 1);
  // Every batch the pipeline produced for that step: at most 32 rows.
  EXPECT_LE(fill.sumMs() - fill_before, 32.0);

  const std::uint64_t rows_32 =
      pageReadsToStep(sql, "SELECT id, pad FROM big LIMIT 32", 32);
  const std::uint64_t rows_1024 =
      pageReadsToStep(sql, "SELECT id, pad FROM big LIMIT 1024", 1024);
  EXPECT_GT(one_row, 0u);
  EXPECT_LE(one_row, rows_32);
  EXPECT_LT(one_row * 10, rows_1024);
}

}  // namespace
}  // namespace perftrack::minidb::sql
