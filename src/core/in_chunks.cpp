#include "core/in_chunks.h"

#include <algorithm>
#include <iterator>

namespace perftrack::core {

void sortUnique(std::vector<std::int64_t>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

void forEachRowInChunks(dbal::Connection& conn, const std::string& sql_prefix,
                        std::span<const std::int64_t> ids,
                        const std::function<void(minidb::Row&)>& on_row,
                        const std::vector<minidb::Value>& prefix_params) {
  forEachChunk(ids, [&](std::span<const std::int64_t> chunk) {
    const std::size_t padded =
        *std::lower_bound(std::begin(kInRungs), std::end(kInRungs), chunk.size());
    std::string sql = sql_prefix + " IN (";
    for (std::size_t i = 0; i < padded; ++i) {
      if (i) sql.push_back(',');
      sql.push_back('?');
    }
    sql.push_back(')');
    std::vector<minidb::Value> params = prefix_params;
    params.reserve(params.size() + padded);
    for (const std::int64_t id : chunk) params.emplace_back(id);
    params.resize(params.size() + (padded - chunk.size()), minidb::Value(chunk.back()));
    auto cur = conn.query(sql, std::move(params));
    minidb::Row row;
    while (cur.next(row)) on_row(row);
  });
}

}  // namespace perftrack::core
