// Crash-matrix harness: prove FilePager's atomic WAL commit under injected
// faults at *every* disk operation of a workload.
//
// The workload (DDL + ingest + index build + update/delete + VACUUM, all
// through the dbal Connection) is first run fault-free against a counting
// VFS to learn its N fault points and record the expected table contents
// after each commit. Then, for every k in 1..N, the workload is rerun from
// scratch with the k-th write/fsync/truncate/remove failing (simulated
// power loss — later operations never reach the disk), the store is
// reopened with a clean VFS, and the recovery invariants are asserted:
//
//   * the heap and every index pass verifyIntegrity();
//   * the contents equal the state after the last completed commit — the
//     transaction in flight at the crash is either fully present (the
//     crash hit after the commit point) or fully absent, never partial;
//   * the write-ahead log is gone after the reopen;
//   * cached statements replan and return correct results after recovery.
//
// The matrix runs clean and with torn (partial-sector) writes at the fault
// point, and uses a tiny autocheckpoint so fault points land inside
// checkpoints (WAL folding back into the db file) as well as inside
// commits.
//
// Below the matrix: direct pager tests of retried flushes, first-commit
// crashes and the open-time lock, plus recovery of hand-built rollback
// journals — the crash artifact of builds that predate WAL-only commits.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dbal/connection.h"
#include "minidb/database.h"
#include "minidb/pager.h"
#include "minidb/vfs.h"
#include "util/error.h"
#include "util/tempdir.h"

namespace perftrack::minidb {
namespace {

using dbal::Connection;

// Expected table contents: (id, k, v) ordered by id.
using Snapshot = std::vector<std::tuple<std::int64_t, std::int64_t, std::string>>;

struct WorkloadTrace {
  std::vector<Snapshot> after_commit;  // state after commit i+1
  std::size_t commits_completed = 0;
};

Snapshot snapshotOf(const std::map<std::int64_t, std::pair<std::int64_t, std::string>>& m) {
  Snapshot s;
  for (const auto& [id, kv] : m) s.emplace_back(id, kv.first, kv.second);
  return s;
}

/// Runs the full workload. Updates `trace` as commits complete; an injected
/// fault propagates out with `trace` describing exactly how far it got.
void runWorkload(const std::string& path, Vfs* vfs, WorkloadTrace& trace) {
  OpenOptions options;
  // Low threshold: several checkpoints fire inside the workload, so the
  // fault sweep hits WAL-fold points, not just commit points.
  options.wal_autocheckpoint = 4;
  options.vfs = vfs;
  auto conn = Connection::open(path, options);
  std::map<std::int64_t, std::pair<std::int64_t, std::string>> model;

  const auto commit = [&] {
    conn->commit();
    ++trace.commits_completed;
    trace.after_commit.push_back(snapshotOf(model));
  };

  // 1: DDL — table plus an index, one transaction.
  conn->begin();
  conn->exec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)");
  conn->exec("CREATE INDEX t_by_k ON t (k)");
  commit();

  // 2: ingest.
  conn->begin();
  for (int i = 0; i < 25; ++i) {
    const auto rs = conn->execPrepared("INSERT INTO t (k, v) VALUES (?, ?)",
                                       {Value(i % 5), Value("v" + std::to_string(i))});
    model[rs.last_insert_id] = {i % 5, "v" + std::to_string(i)};
  }
  commit();

  // 3: update + delete.
  conn->begin();
  conn->exec("UPDATE t SET v = 'u' WHERE k = 1");
  for (auto& [id, kv] : model) {
    if (kv.first == 1) kv.second = "u";
  }
  conn->exec("DELETE FROM t WHERE k = 2");
  std::erase_if(model, [](const auto& e) { return e.second.first == 2; });
  commit();

  // 4: index build over existing rows.
  conn->begin();
  conn->exec("CREATE INDEX t_by_v ON t (v)");
  commit();

  // 5: more ingest through the now-doubly-indexed table.
  conn->begin();
  for (int i = 0; i < 10; ++i) {
    const auto rs = conn->execPrepared("INSERT INTO t (k, v) VALUES (?, ?)",
                                       {Value(7), Value("w" + std::to_string(i))});
    model[rs.last_insert_id] = {7, "w" + std::to_string(i)};
  }
  commit();

  // 6: VACUUM — rewrites every heap and index, then flushes. Logical
  // contents are unchanged, so no snapshot is recorded.
  conn->exec("VACUUM");

  // 7: final ingest after the vacuum.
  conn->begin();
  const auto rs = conn->execPrepared("INSERT INTO t (k, v) VALUES (?, ?)",
                                     {Value(9), Value("z")});
  model[rs.last_insert_id] = {9, "z"};
  commit();
}

/// Reads the current contents of `t` ordered by id; empty when the table
/// does not exist yet (crash before the DDL transaction committed).
Snapshot readState(Connection& conn) {
  Snapshot s;
  try {
    const auto rs = conn.exec("SELECT id, k, v FROM t ORDER BY id");
    for (const auto& row : rs.rows) {
      s.emplace_back(row[0].asInt(), row[1].asInt(), row[2].asText());
    }
  } catch (const util::PTError&) {
    // no such table: pre-schema state
  }
  return s;
}

/// What reaches the disk at the failing write: nothing, or a torn prefix.
enum class FaultKind { Clean, Torn };

// A tuple (not a bare enum) keeps the printed parameter, and with it the
// test names CTest lists, in the same shape as earlier builds.
using CrashMatrixParam = std::tuple<FaultKind>;

class CrashMatrix : public ::testing::TestWithParam<CrashMatrixParam> {};

TEST_P(CrashMatrix, EveryFaultPointRecoversToACommittedState) {
  const bool torn = std::get<0>(GetParam()) == FaultKind::Torn;
  util::TempDir dir;

  // Fault-free run: learn the op count and the per-commit snapshots.
  FaultInjectingVfs counter(PosixVfs::instance());
  WorkloadTrace expected;
  runWorkload(dir.file("base.db").string(), &counter, expected);
  const std::uint64_t fault_points = counter.mutatingOps();
  ASSERT_GT(fault_points, 20u) << "workload too small to be a meaningful matrix";
  ASSERT_EQ(expected.commits_completed, 6u);

  for (std::uint64_t k = 1; k <= fault_points; ++k) {
    SCOPED_TRACE("fault point " + std::to_string(k) + (torn ? " (torn)" : ""));
    const std::string path =
        dir.file("m" + std::to_string(torn) + "_" + std::to_string(k) + ".db").string();
    FaultInjectingVfs vfs(PosixVfs::instance());
    FaultPlan plan;
    plan.fail_at_op = k;
    plan.torn_write = torn;
    vfs.setPlan(plan);
    WorkloadTrace trace;
    bool crashed = false;
    try {
      runWorkload(path, &vfs, trace);
    } catch (const InjectedFault&) {
      crashed = true;
    }
    // Late fault points land in the close-time checkpoint, where the
    // pager destructor swallows the exception (a real close would just die
    // with the process). The fault still fired — the store on disk is
    // crashed either way.
    ASSERT_TRUE(crashed || vfs.crashed())
        << "fault point " << k << " was never reached";

    // Reopen with a clean VFS: stale-WAL recovery runs here, and must
    // consume the log whichever way it went.
    auto conn = Connection::open(path);
    EXPECT_FALSE(PosixVfs::instance().exists(FilePager::walPathFor(path)));

    // Storage invariants: heap and every index agree.
    EXPECT_TRUE(conn->database().verifyIntegrity().empty());

    // Atomicity: the store holds the state after the last completed commit,
    // or — when the crash hit between the commit point (the marker frame
    // reaching the log) and the commit call returning — the in-flight
    // transaction in full. Never anything in between. (A crash inside
    // VACUUM may land on either side of its flush too; both sides hold the
    // same logical contents, so the same check covers it.)
    const Snapshot got = readState(*conn);
    const std::size_t done = trace.commits_completed;
    const Snapshot& committed =
        done == 0 ? Snapshot{} : expected.after_commit[done - 1];
    if (done < expected.after_commit.size() &&
        got == expected.after_commit[done]) {
      SUCCEED();  // in-flight transaction fully committed before the crash
    } else {
      EXPECT_EQ(got, committed);
    }

    // Plan cache after recovery: repeated statements hit the cache and keep
    // returning correct results against the recovered store.
    if (done >= 1) {
      const char* q = "SELECT COUNT(*) FROM t WHERE k = ?";
      const auto first = conn->queryInt(q, {Value(1)});
      const auto before = conn->statementCacheStats();
      EXPECT_EQ(conn->queryInt(q, {Value(1)}), first);
      EXPECT_EQ(conn->statementCacheStats().hits, before.hits + 1);
    }
  }
}

std::string crashMatrixName(const ::testing::TestParamInfo<CrashMatrixParam>& info) {
  return std::get<0>(info.param) == FaultKind::Torn ? "WalTornWrites" : "WalCleanFaults";
}

INSTANTIATE_TEST_SUITE_P(CleanAndTorn, CrashMatrix,
                         ::testing::Values(CrashMatrixParam{FaultKind::Clean},
                                           CrashMatrixParam{FaultKind::Torn}),
                         crashMatrixName);

/// True when some page past the header starts with `text`.
bool hasPage(const Pager& pager, const char* text) {
  for (PageId id = 1; id < pager.pageCount(); ++id) {
    if (std::memcmp(pager.pageForRead(id), text, std::strlen(text)) == 0) return true;
  }
  return false;
}

// --- direct durable-pager tests -----------------------------------------------

TEST(DurablePager, CommitLeavesNoJournalBehind) {
  util::TempDir dir;
  const std::string path = dir.file("d.db").string();
  {
    FilePager pager(path);
    const PageId id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "durable", 7);
    pager.flush();
    EXPECT_FALSE(PosixVfs::instance().exists(FilePager::journalPathFor(path)));
    EXPECT_FALSE(pager.recoveryStats().recovered);
  }
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::journalPathFor(path)));
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
}

TEST(DurablePager, FailedFlushRetriesCleanly) {
  // An injected fault is also how a transient I/O error looks to the pager:
  // a later flush on the same pager must carry the commit through, whether
  // the fault hit a frame write (dirty set kept, frames rewritten at the
  // same log offset) or the commit fsync (frames appended, sync retried).
  util::TempDir dir;
  const std::string path = dir.file("d.db").string();
  FaultInjectingVfs vfs(PosixVfs::instance());
  {
    FilePager pager(path, &vfs, /*wal_autocheckpoint=*/0);
    const PageId id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "first", 5);
    pager.flush();

    std::memcpy(pager.pageForWrite(id), "SECOND", 6);
    FaultPlan plan;
    plan.fail_at_op = vfs.mutatingOps() + 1;  // the commit's only frame write
    plan.torn_write = true;
    vfs.setPlan(plan);
    EXPECT_THROW(pager.flush(), InjectedFault);
    // "Transient" failure: the machine did not actually die. Clear the
    // fault and retry the flush on the same pager.
    vfs.reset();
    vfs.setPlan(FaultPlan{});
    pager.flush();

    std::memcpy(pager.pageForWrite(id), "THIRD", 5);
    plan = FaultPlan{};
    plan.fail_at_op = vfs.mutatingOps() + 2;  // frame write, then the fsync
    vfs.setPlan(plan);
    EXPECT_THROW(pager.flush(), InjectedFault);
    vfs.reset();
    vfs.setPlan(FaultPlan{});
    pager.flush();
    EXPECT_EQ(std::memcmp(pager.pageForRead(id), "THIRD", 5), 0);
  }
  FilePager check(path);
  EXPECT_FALSE(check.recoveryStats().wal_replayed);
  EXPECT_FALSE(check.recoveryStats().discarded_invalid_wal);
  EXPECT_TRUE(hasPage(check, "THIRD"));
}

TEST(DurablePager, CrashDuringFirstEverFlushRollsBackToEmpty) {
  // Every write of a store's first commit — the WAL header and each frame,
  // clean or torn — may be the last thing that reaches the disk. The
  // commit's fsync never ran, so the store reopens as a fresh, empty
  // database.
  util::TempDir dir;
  // Fault-free first commit: header write, frame writes, then one fsync.
  std::uint64_t commit_ops = 0;
  {
    FaultInjectingVfs probe(PosixVfs::instance());
    FilePager pager(dir.file("probe.db").string(), &probe, 0);
    std::memcpy(pager.pageForWrite(pager.allocate()), "never", 5);
    pager.flush();
    commit_ops = probe.mutatingOps();
  }
  ASSERT_GE(commit_ops, 3u);
  for (const bool torn : {false, true}) {
    for (std::uint64_t k = 1; k < commit_ops; ++k) {  // every write, not the fsync
      SCOPED_TRACE("fault at op " + std::to_string(k) + (torn ? " (torn)" : ""));
      const std::string path =
          dir.file("first_" + std::to_string(torn) + "_" + std::to_string(k) + ".db")
              .string();
      FaultInjectingVfs vfs(PosixVfs::instance());
      {
        FilePager pager(path, &vfs, 0);
        std::memcpy(pager.pageForWrite(pager.allocate()), "never", 5);
        FaultPlan plan;
        plan.fail_at_op = k;
        plan.torn_write = torn;
        vfs.setPlan(plan);
        EXPECT_THROW(pager.flush(), InjectedFault);
      }
      FilePager pager(path);
      EXPECT_EQ(pager.pageCount(), 1u);
      EXPECT_FALSE(pager.recoveryStats().wal_replayed);
      EXPECT_FALSE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
    }
  }
}

TEST(DurablePager, SecondOpenOfALiveStoreThrowsAndLeavesItsWal) {
  // A second opener must not treat the live WAL as a crash artifact: its
  // recovery would fold and unlink the log under the first pager, and
  // commits made after that would vanish in a crash.
  util::TempDir dir;
  const std::string path = dir.file("live.db").string();
  const std::string wal = FilePager::walPathFor(path);
  {
    FilePager pager(path, nullptr, /*wal_autocheckpoint=*/0);
    const PageId id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "live", 4);
    pager.flush();
    const std::uint64_t wal_bytes = pager.walSizeBytes();
    ASSERT_GT(wal_bytes, 0u);

    try {
      FilePager second(path);
      ADD_FAILURE() << "second open of a live store succeeded";
    } catch (const util::StorageError& e) {
      EXPECT_NE(std::string(e.what()).find("is open in another process"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(Database::open(path), util::StorageError);
    ASSERT_TRUE(PosixVfs::instance().exists(wal));
    EXPECT_EQ(std::filesystem::file_size(wal), wal_bytes);

    // The first pager keeps committing into the same log.
    std::memcpy(pager.pageForWrite(id), "more", 4);
    pager.flush();
    EXPECT_GT(pager.walSizeBytes(), wal_bytes);
  }
  // Closed: the lock is gone and the store opens normally.
  FilePager reopened(path);
  EXPECT_FALSE(reopened.recoveryStats().wal_replayed);
  EXPECT_TRUE(hasPage(reopened, "more"));
}

// --- legacy rollback journals --------------------------------------------------
//
// Builds before WAL-only commits wrote `<db>.journal` before-images and then
// overwrote db pages in place. These tests hand-build such journals (header,
// {page id, before-image} records, FNV-1a 64 checksum over the records) and
// check the one-time recovery at open.

struct JournalRecord {
  PageId id;
  PageBuf image;
};

void writeLegacyJournal(const std::string& db_path, const std::vector<JournalRecord>& records,
                        std::uint32_t orig_file_pages) {
  std::vector<std::uint8_t> body;
  for (const JournalRecord& r : records) {
    const std::size_t at = body.size();
    body.resize(at + sizeof(r.id) + kPageSize);
    std::memcpy(body.data() + at, &r.id, sizeof(r.id));
    std::memcpy(body.data() + at + sizeof(r.id), r.image.data(), kPageSize);
  }
  std::uint64_t checksum = 14695981039346656037ULL;
  for (const std::uint8_t b : body) {
    checksum ^= b;
    checksum *= 1099511628211ULL;
  }
  const JournalHeader header{kJournalMagic, kJournalVersion,
                             static_cast<std::uint32_t>(records.size()),
                             orig_file_pages, checksum};
  auto f = PosixVfs::instance().open(FilePager::journalPathFor(db_path), true);
  f->write(0, &header, sizeof(header));
  if (!body.empty()) f->write(sizeof(header), body.data(), body.size());
}

PageBuf readDbPage(const std::string& db_path, PageId id) {
  PageBuf page{};
  auto f = PosixVfs::instance().open(db_path, false);
  EXPECT_EQ(f->read(std::uint64_t{id} * kPageSize, page.data(), kPageSize), kPageSize);
  return page;
}

void writeDbPage(const std::string& db_path, PageId id, const char* text) {
  PageBuf page{};
  std::memcpy(page.data(), text, std::strlen(text));
  auto f = PosixVfs::instance().open(db_path, false);
  f->write(std::uint64_t{id} * kPageSize, page.data(), kPageSize);
}

/// A cleanly closed store holding one page that reads "first"; returns its id.
PageId makeStore(const std::string& path) {
  FilePager pager(path);
  const PageId id = pager.allocate();
  std::memcpy(pager.pageForWrite(id), "first", 5);
  pager.flush();
  return id;
}

std::uint32_t filePages(const std::string& path) {
  return static_cast<std::uint32_t>(std::filesystem::file_size(path) / kPageSize);
}

TEST(DurablePager, HotJournalRollsBackToLastCommit) {
  util::TempDir dir;
  const std::string path = dir.file("d.db").string();
  const PageId id = makeStore(path);
  const std::uint32_t pages = filePages(path);
  // An older build crashed mid-commit: the journal was durable, one page
  // was already overwritten and two pages were appended past the end.
  writeLegacyJournal(path, {{id, readDbPage(path, id)}}, pages);
  writeDbPage(path, id, "SECOND");
  writeDbPage(path, pages + 1, "appended");

  FilePager pager(path);
  EXPECT_TRUE(pager.recoveryStats().recovered);
  EXPECT_EQ(pager.recoveryStats().pages_restored, 1u);
  EXPECT_EQ(std::memcmp(pager.pageForRead(id), "first", 5), 0);
  EXPECT_EQ(pager.fileSizeBytes(), std::uint64_t{pages} * kPageSize);
  EXPECT_EQ(pager.pageCount(), pages);
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::journalPathFor(path)));
}

TEST(DurablePager, TornJournalIsDiscardedAndDbUntouched) {
  // A crash while the journal itself was being written: the db was never
  // touched, so a journal short of its declared records, or one whose
  // records fail the checksum, is garbage.
  for (const bool bad_checksum : {false, true}) {
    SCOPED_TRACE(bad_checksum ? "bad checksum" : "short journal");
    util::TempDir dir;
    const std::string path = dir.file("d.db").string();
    const PageId id = makeStore(path);
    PageBuf image{};
    std::memcpy(image.data(), "stale", 5);
    writeLegacyJournal(path, {{id, image}}, filePages(path));
    {
      auto f = PosixVfs::instance().open(FilePager::journalPathFor(path), false);
      if (bad_checksum) {
        f->write(sizeof(JournalHeader) + sizeof(PageId), "X", 1);
      } else {
        f->truncate(f->size() - 100);
      }
    }
    FilePager pager(path);
    EXPECT_FALSE(pager.recoveryStats().recovered);
    EXPECT_TRUE(pager.recoveryStats().discarded_invalid_journal);
    EXPECT_EQ(std::memcmp(pager.pageForRead(id), "first", 5), 0);
    EXPECT_FALSE(PosixVfs::instance().exists(FilePager::journalPathFor(path)));
  }
}

TEST(DurablePager, EmptyJournalIsDiscardedAndDbUntouched) {
  // Older builds committed by truncating the journal to zero before
  // removing it; a crash between the two leaves an empty file.
  util::TempDir dir;
  const std::string path = dir.file("d.db").string();
  const PageId id = makeStore(path);
  PosixVfs::instance().open(FilePager::journalPathFor(path), true);
  FilePager pager(path);
  EXPECT_FALSE(pager.recoveryStats().recovered);
  EXPECT_TRUE(pager.recoveryStats().discarded_invalid_journal);
  EXPECT_EQ(std::memcmp(pager.pageForRead(id), "first", 5), 0);
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::journalPathFor(path)));
}

TEST(DurablePager, StaleJournalAndStaleWalBothRecover) {
  // Recovery is unconditional: a store carrying both a hot journal and a
  // committed WAL rolls the journal back, then replays the WAL on top.
  util::TempDir dir;
  const std::string path = dir.file("d.db").string();
  const PageId id = makeStore(path);
  const std::uint32_t pages = filePages(path);
  PageId wal_id = 0;
  FaultInjectingVfs vfs(PosixVfs::instance());
  {
    FilePager pager(path, &vfs, 0);
    wal_id = pager.allocate();
    std::memcpy(pager.pageForWrite(wal_id), "walled", 6);
    pager.flush();  // committed: appended + fsynced
    // Kill every disk op from here on: the close-time checkpoint dies and
    // the WAL survives.
    FaultPlan plan;
    plan.fail_at_op = vfs.mutatingOps() + 1;
    vfs.setPlan(plan);
  }
  ASSERT_TRUE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
  writeLegacyJournal(path, {{id, readDbPage(path, id)}}, pages);
  writeDbPage(path, id, "SECOND");

  FilePager pager(path);
  EXPECT_TRUE(pager.recoveryStats().recovered);
  EXPECT_TRUE(pager.recoveryStats().wal_replayed);
  EXPECT_EQ(std::memcmp(pager.pageForRead(id), "first", 5), 0);
  EXPECT_EQ(std::memcmp(pager.pageForRead(wal_id), "walled", 6), 0);
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::journalPathFor(path)));
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
}

// --- direct WAL-level tests --------------------------------------------------

TEST(WalPager, CommitAppendsFramesAndCleanCloseFoldsThem) {
  util::TempDir dir;
  const std::string path = dir.file("w.db").string();
  {
    FilePager pager(path, nullptr, /*wal_autocheckpoint=*/0);
    const PageId id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "walled", 6);
    pager.flush();
    EXPECT_TRUE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
    EXPECT_GT(pager.walFrameCount(), 0u);
    EXPECT_GT(pager.walSizeBytes(), sizeof(WalHeader));
  }
  // Clean close checkpoints and removes the log.
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
  FilePager check(path);
  EXPECT_FALSE(check.recoveryStats().wal_replayed);
  EXPECT_TRUE(hasPage(check, "walled"));
}

TEST(WalPager, StaleWalIsReplayedOnReopen) {
  util::TempDir dir;
  const std::string path = dir.file("w.db").string();
  FaultInjectingVfs vfs(PosixVfs::instance());
  {
    FilePager pager(path, &vfs, 0);
    const PageId id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "replayme", 8);
    pager.flush();  // committed: appended + fsynced
    // Kill every disk op from here on: the close-time checkpoint dies and
    // the WAL survives — exactly what a crashed process leaves behind.
    FaultPlan plan;
    plan.fail_at_op = vfs.mutatingOps() + 1;
    vfs.setPlan(plan);
  }
  ASSERT_TRUE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
  FilePager pager(path);
  EXPECT_TRUE(pager.recoveryStats().wal_replayed);
  EXPECT_GE(pager.recoveryStats().wal_frames_applied, 1u);
  EXPECT_FALSE(PosixVfs::instance().exists(FilePager::walPathFor(path)));
  EXPECT_TRUE(hasPage(pager, "replayme"));
}

TEST(WalPager, TornTailRecoversToCommittedPrefix) {
  util::TempDir dir;
  const std::string path = dir.file("w.db").string();
  FaultInjectingVfs vfs(PosixVfs::instance());
  PageId id = 0;
  {
    FilePager pager(path, &vfs, 0);
    id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "first", 5);
    pager.flush();  // commit A
    std::memcpy(pager.pageForWrite(id), "SECOND", 6);
    FaultPlan plan;
    plan.fail_at_op = vfs.mutatingOps() + 1;  // commit B's first frame write
    plan.torn_write = true;                   // half a sector reaches disk
    vfs.setPlan(plan);
    EXPECT_THROW(pager.flush(), InjectedFault);
  }
  FilePager pager(path);
  EXPECT_TRUE(pager.recoveryStats().wal_replayed);
  EXPECT_TRUE(pager.recoveryStats().discarded_invalid_wal);
  EXPECT_EQ(std::memcmp(pager.pageForRead(id), "first", 5), 0);
}

TEST(WalPager, ExplicitCheckpointFoldsAndTruncates) {
  util::TempDir dir;
  const std::string path = dir.file("w.db").string();
  {
    FilePager pager(path, nullptr, 0);
    const PageId id = pager.allocate();
    std::memcpy(pager.pageForWrite(id), "one", 3);
    pager.flush();
    std::memcpy(pager.pageForWrite(id), "two", 3);
    pager.flush();
    EXPECT_GT(pager.walFrameCount(), 0u);
    pager.checkpoint();
    EXPECT_EQ(pager.walFrameCount(), 0u);
    EXPECT_EQ(pager.walSizeBytes(), 0u);
    EXPECT_EQ(std::memcmp(pager.pageForRead(id), "two", 3), 0);
  }
  FilePager check(path);
  EXPECT_FALSE(check.recoveryStats().wal_replayed);
  EXPECT_TRUE(hasPage(check, "two"));
}

TEST(WalPager, AutocheckpointBoundsTheLog) {
  util::TempDir dir;
  const std::string path = dir.file("w.db").string();
  FilePager pager(path, nullptr, /*wal_autocheckpoint=*/2);
  const PageId id = pager.allocate();
  for (int i = 0; i < 8; ++i) {
    std::memcpy(pager.pageForWrite(id), &i, sizeof(i));
    pager.flush();
    // The threshold check runs at the start of every commit, so the log can
    // exceed the threshold by at most one commit's frames.
    EXPECT_LE(pager.walFrameCount(), 2u + 2u);
  }
}

TEST(WalPager, PinnedSnapshotDefersAutocheckpoint) {
  util::TempDir dir;
  const std::string path = dir.file("w.db").string();
  FilePager pager(path, nullptr, /*wal_autocheckpoint=*/1);
  const PageId id = pager.allocate();
  std::memcpy(pager.pageForWrite(id), "base", 4);
  pager.flush();

  auto snap = pager.beginSnapshot();
  for (int i = 0; i < 4; ++i) {
    std::memcpy(pager.pageForWrite(id), &i, sizeof(i));
    pager.flush();
  }
  // The checkpoint would fold versions the snapshot still needs; it must
  // wait until the pin is gone.
  EXPECT_GE(pager.walFrameCount(), 3u);
  {
    Pager::SnapshotScope scope(snap);
    EXPECT_EQ(std::memcmp(pager.pageForRead(id), "base", 4), 0);
  }
  snap.release();
  std::memcpy(pager.pageForWrite(id), "post", 4);
  pager.flush();  // threshold long exceeded: folds now
  EXPECT_LE(pager.walFrameCount(), 2u);
}

}  // namespace
}  // namespace perftrack::minidb
