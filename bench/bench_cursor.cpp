// Streaming cursor ablation: what does materializing a result set cost?
//
// The ptexport/ptquery paths used to buffer whole result sets in a
// ResultSet before emitting the first byte. With the Volcano pipeline they
// pull rows one at a time through dbal::Connection::query(). This bench
// builds a result table at two sizes and drains the full-table "export scan"
// three ways — row-at-a-time next(), columnar fetchBatch(), and fully
// materialized exec() — reporting time-to-first-row (TTFR), total drain
// time, and the peak-RSS increase each phase causes. The streaming phases
// run first at each size: VmHWM is monotonic, so any high-water growth
// observed during the materialized phase is memory the streamed phases
// never needed — the O(1)-memory claim for the export path, in numbers.
// The streamed-vs-batched pair runs the same batch pipeline and compares
// its two drains: the cursor's row adapter (next()) against batch fetch.
//
// PT_CURSOR_JSON=<path>: also emit the cells as JSON (one object per
// size x phase) for scripts/bench_smoke.sh and before/after comparisons.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "dbal/connection.h"
#include "minidb/sql/executor.h"
#include "minidb/sql/row_batch.h"
#include "obs/metrics.h"
#include "util/timer.h"

using namespace perftrack;

namespace {

/// Peak resident set (VmHWM) in KiB from /proc/self/status; 0 when the
/// platform doesn't expose it (the bench then only reports timings).
long peakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      long kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

struct Cell {
  std::string phase;
  std::int64_t table_rows = 0;
  std::int64_t rows = 0;
  std::int64_t batch_rows = 0;  // pipeline batch size (0 = row-at-a-time drain)
  double ttfr_ms = 0.0;   // time to first row
  double total_ms = 0.0;  // full drain
  long rss_growth_kb = 0; // VmHWM increase caused by this phase
};

const char* kScan = "SELECT id, ctx, metric, value, units FROM result";

Cell runStreamed(dbal::Connection& conn, std::int64_t table_rows) {
  Cell cell;
  cell.phase = "streamed";
  cell.table_rows = table_rows;
  const long before = peakRssKb();
  util::Timer timer;
  auto cur = conn.query(kScan);
  minidb::Row row;
  double checksum = 0.0;
  if (cur.next(row)) {
    cell.ttfr_ms = 1e3 * timer.elapsedSeconds();
    do {
      checksum += row[3].asReal();
      ++cell.rows;
    } while (cur.next(row));
  }
  cell.total_ms = 1e3 * timer.elapsedSeconds();
  cell.rss_growth_kb = peakRssKb() - before;
  if (checksum < 0) std::printf("impossible\n");  // keep the drain observable
  return cell;
}

Cell runBatched(dbal::Connection& conn, std::int64_t table_rows) {
  Cell cell;
  cell.phase = "batched";
  cell.table_rows = table_rows;
  cell.batch_rows =
      static_cast<std::int64_t>(minidb::sql::defaultExecBatchRows());
  const long before = peakRssKb();
  util::Timer timer;
  auto cur = conn.query(kScan);
  minidb::sql::RowBatch batch;
  double checksum = 0.0;
  if (cur.fetchBatch(batch)) {
    cell.ttfr_ms = 1e3 * timer.elapsedSeconds();
    do {
      for (const std::uint32_t i : batch.sel) {
        checksum += batch.cols[3][i].asReal();
        ++cell.rows;
      }
    } while (cur.fetchBatch(batch));
  }
  cell.total_ms = 1e3 * timer.elapsedSeconds();
  cell.rss_growth_kb = peakRssKb() - before;
  if (checksum < 0) std::printf("impossible\n");
  return cell;
}

Cell runMaterialized(dbal::Connection& conn, std::int64_t table_rows) {
  Cell cell;
  cell.phase = "materialized";
  cell.table_rows = table_rows;
  const long before = peakRssKb();
  util::Timer timer;
  const auto rs = conn.exec(kScan);
  // exec() returns only after buffering every row: the first row is not
  // available any earlier than the last.
  cell.ttfr_ms = 1e3 * timer.elapsedSeconds();
  double checksum = 0.0;
  for (const auto& row : rs.rows) {
    checksum += row[3].asReal();
    ++cell.rows;
  }
  cell.total_ms = 1e3 * timer.elapsedSeconds();
  cell.rss_growth_kb = peakRssKb() - before;
  if (checksum < 0) std::printf("impossible\n");
  return cell;
}

void writeJson(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "  {\"phase\": \"" << c.phase << "\", \"table_rows\": " << c.table_rows
        << ", \"rows\": " << c.rows << ", \"batch_rows\": " << c.batch_rows
        << ", \"ttfr_ms\": " << c.ttfr_ms
        << ", \"total_ms\": " << c.total_ms
        << ", \"rss_growth_kb\": " << c.rss_growth_kb << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main() {
  const std::int64_t sizes[] = {50000, 200000};
  std::vector<Cell> cells;
  std::printf("%-13s %10s %10s %10s %12s %14s\n", "phase", "table", "rows",
              "ttfr_ms", "total_ms", "rss_growth_kb");
  for (const std::int64_t n : sizes) {
    // In memory: the drain is the subject, and pages are resident either way.
    auto conn = dbal::Connection::open(":memory:");
    conn->exec(
        "CREATE TABLE result (id INTEGER PRIMARY KEY, ctx INTEGER, "
        "metric INTEGER, value REAL, units TEXT)");
    const char* ins =
        "INSERT INTO result (ctx, metric, value, units) VALUES (?, ?, ?, ?)";
    conn->begin();
    for (std::int64_t i = 0; i < n; ++i) {
      conn->execPrepared(ins, {minidb::Value(i % 97), minidb::Value(i % 13),
                               minidb::Value(i * 0.25),
                               minidb::Value("seconds-" + std::to_string(i % 11))});
    }
    conn->commit();

    // Streaming phases first: VmHWM only ever rises, so the materialized
    // phase's growth cannot be blamed on the streamed ones.
    for (const Cell& c :
         {runStreamed(*conn, n), runBatched(*conn, n), runMaterialized(*conn, n)}) {
      std::printf("%-13s %10lld %10lld %10.2f %12.2f %14ld\n", c.phase.c_str(),
                  static_cast<long long>(c.table_rows),
                  static_cast<long long>(c.rows), c.ttfr_ms, c.total_ms,
                  c.rss_growth_kb);
      cells.push_back(c);
    }
  }
  if (const char* json = std::getenv("PT_CURSOR_JSON")) {
    writeJson(json, cells);
    std::printf("wrote %s\n", json);
  }
  obs::writeSnapshotIfRequested();
  return 0;
}
