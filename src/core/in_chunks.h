// PerfTrack core: chunked IN-list statements for set-oriented retrieval.
//
// Every set-oriented read in core (pr-filter matching, batched result and
// resource fetches) binds its ids as `col IN (?, ..., ?)`, at most kInChunk
// ids per statement. A ragged chunk is padded up to the next rung of
// kInRungs by repeating its last id. The engine sorts and dedupes IN-list
// keys, so padding never changes the result, and the set of distinct SQL
// texts stays bounded: every statement stays on the statement cache's hot
// path, locally and over the wire.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "dbal/connection.h"

namespace perftrack::core {

inline constexpr std::size_t kInRungs[] = {1, 2, 4, 8, 16, 32, 64, 128, 200};
inline constexpr std::size_t kInChunk = 200;

/// Calls `fn(chunk)` for consecutive slices of `ids`, each of at most
/// kInChunk ids.
template <typename Fn>
void forEachChunk(std::span<const std::int64_t> ids, Fn&& fn) {
  for (std::size_t start = 0; start < ids.size(); start += kInChunk) {
    fn(ids.subspan(start, std::min(kInChunk, ids.size() - start)));
  }
}

/// Sorts `ids` ascending and drops duplicates.
void sortUnique(std::vector<std::int64_t>& ids);

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
