// PerfTrack core: chunked IN-list statements over a dbal connection.
//
// The chunking rule itself (kInRungs, kInChunk, padding) lives in
// core/in_list.h, which has no dbal dependency; this header adds the helper
// that runs a chunked statement through a dbal::Connection.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/in_list.h"
#include "dbal/connection.h"

namespace perftrack::core {

/// Runs `sql_prefix + " IN (?,...,?)"` once per chunk of `ids`, binding
/// `prefix_params` (for any '?' already in sql_prefix) and then the chunk,
/// and calls `on_row` for every row. `ids` should be sorted and deduped:
/// sorted probes walk the B-tree in key order, and a duplicate id costs a
/// placeholder. No statement runs for an empty `ids`.
void forEachRowInChunks(dbal::Connection& conn, const std::string& sql_prefix,
                        std::span<const std::int64_t> ids,
                        const std::function<void(minidb::Row&)>& on_row,
                        const std::vector<minidb::Value>& prefix_params = {});

}  // namespace perftrack::core
