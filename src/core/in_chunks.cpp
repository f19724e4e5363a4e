#include "core/in_chunks.h"

namespace perftrack::core {

void forEachRowInChunks(dbal::Connection& conn, const std::string& sql_prefix,
                        std::span<const std::int64_t> ids,
                        const std::function<void(minidb::Row&)>& on_row,
                        const std::vector<minidb::Value>& prefix_params) {
  forEachChunk(ids, [&](std::span<const std::int64_t> chunk) {
    const std::size_t rung = inListRung(chunk.size());
    std::vector<minidb::Value> params = prefix_params;
    appendPaddedIds(params, chunk, rung);
    auto cur = conn.query(inListSql(sql_prefix, rung), std::move(params));
    minidb::Row row;
    while (cur.next(row)) on_row(row);
  });
}

}  // namespace perftrack::core
