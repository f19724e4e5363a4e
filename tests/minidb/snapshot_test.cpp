// WAL snapshot-read semantics (DESIGN.md §5.7): a reader pinned to a
// committed version never sees — and never blocks — later commits.
//
// Covers, at the embedded Database/Pager level:
//   * a snapshot cursor stays frozen while committed DML lands around it;
//   * a writer's rollback cannot disturb an open snapshot cursor;
//   * SnapshotScope redirects storage reads to the pinned version, and a
//     SnapshotToken carries that pin onto a worker thread;
//   * an explicit checkpoint folds the WAL while a snapshot stays readable;
//   * concurrent committers sharing group-commit fsyncs lose no commit;
//   * a reader/writer stress run in which every scan observes exactly one
//     committed generation (run under TSan by scripts/ci.sh, label `wal`).
//
// The server-level half of this matrix (snapshots over the wire protocol)
// lives in tests/server/wal_isolation_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "minidb/sql/executor.h"
#include "util/tempdir.h"

namespace perftrack::minidb {
namespace {

OpenOptions walOptions(std::uint32_t autocheckpoint = 0) {
  OpenOptions options;
  options.wal_autocheckpoint = autocheckpoint;
  return options;
}

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest()
      : path_(tmp_.file("snap.db").string()),
        db_(Database::open(path_, walOptions())),
        sql_(*db_) {
    sql_.exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)");
    commit("INSERT INTO t (v) VALUES (10), (20), (30)");
  }

  /// Runs one DML statement as its own committed transaction. Embedded
  /// callers persist on COMMIT (the server wraps every autocommit write the
  /// same way); a bare exec would only mutate the working state.
  void commit(const std::string& dml) {
    sql_.exec("BEGIN");
    sql_.exec(dml);
    sql_.exec("COMMIT");
  }

  /// Drains `cur` and returns the values of its single column, in order.
  static std::vector<std::int64_t> drain(sql::Cursor& cur) {
    std::vector<std::int64_t> out;
    Row row;
    while (cur.next(row)) out.push_back(row[0].asInt());
    return out;
  }

  /// COUNT(*) of t through a plain (non-snapshot) statement.
  std::int64_t liveCount() {
    return sql_.exec("SELECT COUNT(*) FROM t").rows[0][0].asInt();
  }

  util::TempDir tmp_;
  std::string path_;
  std::unique_ptr<Database> db_;
  sql::Engine sql_;
};

TEST_F(SnapshotTest, SnapshotCursorSeesFrozenVersion) {
  sql::PreparedStatement stmt = sql_.prepare("SELECT v FROM t ORDER BY id");
  sql::Cursor cur = stmt.openCursor(db_->takeSnapshot());

  Row row;
  ASSERT_TRUE(cur.next(row));
  EXPECT_EQ(row[0].asInt(), 10);

  // Committed DML lands mid-scan: the cursor's snapshot predates it.
  commit("UPDATE t SET v = v + 1000");
  commit("INSERT INTO t (v) VALUES (40)");

  EXPECT_EQ(drain(cur), (std::vector<std::int64_t>{20, 30}));

  // A fresh statement (no snapshot) sees the post-commit state.
  EXPECT_EQ(liveCount(), 4);
  EXPECT_EQ(sql_.exec("SELECT MIN(v) FROM t").rows[0][0].asInt(), 40);
}

TEST_F(SnapshotTest, SnapshotCursorSurvivesWriterRollback) {
  sql::PreparedStatement stmt = sql_.prepare("SELECT v FROM t ORDER BY id");
  sql::Cursor cur = stmt.openCursor(db_->takeSnapshot());
  Row row;
  ASSERT_TRUE(cur.next(row));

  // A rolled-back transaction bumps the schema epoch (cached plans replan),
  // but a snapshot cursor reads the pinned version and must keep streaming.
  sql_.exec("BEGIN");
  sql_.exec("UPDATE t SET v = -1");
  sql_.exec("DELETE FROM t WHERE id = 2");
  sql_.exec("ROLLBACK");

  EXPECT_EQ(drain(cur), (std::vector<std::int64_t>{20, 30}));
  EXPECT_EQ(liveCount(), 3);
}

TEST_F(SnapshotTest, ScopeRedirectsStorageReadsAndTokenCrossesThreads) {
  Pager::ReadSnapshot snap = db_->takeSnapshot();
  commit("UPDATE t SET v = 7");
  commit("INSERT INTO t (v) VALUES (7)");

  auto countRows = [&] {
    std::int64_t n = 0;
    db_->scan("t", [&](RecordId, const Row&) {
      ++n;
      return true;
    });
    return n;
  };

  {
    Pager::SnapshotScope scope(snap);
    EXPECT_EQ(countRows(), 3);  // frozen: pre-update row count
    std::int64_t max_v = 0;
    db_->scan("t", [&](RecordId, const Row& row) {
      max_v = std::max(max_v, row[1].asInt());
      return true;
    });
    EXPECT_EQ(max_v, 30);  // the UPDATE to 7 is invisible under the scope
  }
  EXPECT_EQ(countRows(), 4);  // scope gone: reads resolve to the live state

  // A worker thread joins the same snapshot through its token (the parallel
  // executor's propagation path); the originating pin outlives the scope.
  std::int64_t worker_count = -1;
  std::thread worker([&] {
    Pager::SnapshotScope scope(snap.token());
    worker_count = countRows();
  });
  worker.join();
  EXPECT_EQ(worker_count, 3);
}

TEST_F(SnapshotTest, CheckpointFoldsWalWhileSnapshotStaysReadable) {
  sql::PreparedStatement stmt = sql_.prepare("SELECT v FROM t ORDER BY id");
  sql::Cursor cur = stmt.openCursor(db_->takeSnapshot());
  ASSERT_GT(db_->walSizeBytes(), 0u);

  commit("UPDATE t SET v = 99");
  // Folding the newest committed version into the db file must not disturb
  // the pinned reader: its pages live in memory, not in the folded WAL.
  db_->checkpoint();
  EXPECT_EQ(db_->walSizeBytes(), 0u);

  EXPECT_EQ(drain(cur), (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_EQ(sql_.exec("SELECT MAX(v) FROM t").rows[0][0].asInt(), 99);
}

TEST_F(SnapshotTest, GroupCommitLosesNoConcurrentCommit) {
  constexpr int kWriters = 4;
  constexpr int kCommitsEach = 24;

  // Writers are mutually excluded around begin..commitDeferred (the server's
  // DbGate plays this role in-process), but each one fsyncs OUTSIDE the
  // lock: overlapping waitDurable() calls batch behind one leader.
  std::mutex write_mu;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kCommitsEach; ++i) {
        std::uint64_t lsn = 0;
        {
          std::lock_guard<std::mutex> lk(write_mu);
          db_->begin();
          db_->insertRow("t", {Value(), Value(std::int64_t{1000} + w)});
          lsn = db_->commitDeferred();
        }
        db_->waitDurable(lsn);
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(liveCount(), 3 + kWriters * kCommitsEach);

  // Every acknowledged commit survives a close/reopen cycle, and the clean
  // close leaves no WAL behind.
  db_.reset();
  EXPECT_FALSE(std::filesystem::exists(path_ + ".wal"));
  db_ = Database::open(path_, walOptions());
  sql::Engine reopened(*db_);
  EXPECT_EQ(reopened.exec("SELECT COUNT(*) FROM t").rows[0][0].asInt(),
            3 + kWriters * kCommitsEach);
}

TEST_F(SnapshotTest, ConcurrentScansEachSeeExactlyOneGeneration) {
  constexpr int kRows = 16;
  constexpr int kGenerations = 30;
  constexpr int kReaders = 3;

  commit("DELETE FROM t");
  for (int i = 0; i < kRows; ++i) commit("INSERT INTO t (v) VALUES (0)");

  std::atomic<bool> done{false};
  std::thread writer([&] {
    sql::Engine writer_sql(*db_);
    for (int g = 1; g <= kGenerations; ++g) {
      writer_sql.exec("BEGIN");
      writer_sql.exec("UPDATE t SET v = " + std::to_string(g));
      writer_sql.exec("COMMIT");
    }
    done.store(true, std::memory_order_release);
  });

  std::atomic<int> scans{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::int64_t last_gen = 0;
      // One snapshotted scan. Invariants: one committed version, whole and
      // alone — no torn generation, no half-applied UPDATE — and time never
      // moves backwards between a reader's consecutive scans.
      auto scanOnce = [&] {
        Pager::ReadSnapshot snap = db_->takeSnapshot();
        Pager::SnapshotScope scope(snap);
        std::int64_t min_v = kGenerations + 1, max_v = -1, rows = 0;
        db_->scan("t", [&](RecordId, const Row& row) {
          const std::int64_t v = row[1].asInt();
          min_v = std::min(min_v, v);
          max_v = std::max(max_v, v);
          ++rows;
          return true;
        });
        EXPECT_EQ(rows, kRows);
        EXPECT_EQ(min_v, max_v);
        EXPECT_GE(min_v, last_gen);
        last_gen = min_v;
        scans.fetch_add(1, std::memory_order_relaxed);
      };
      while (!done.load(std::memory_order_acquire)) scanOnce();
      scanOnce();  // guaranteed after the final commit published
      EXPECT_EQ(last_gen, kGenerations);
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_GE(scans.load(), kReaders);
}

}  // namespace
}  // namespace perftrack::minidb
