// PerfTrack core: the one chunking rule for integer IN-lists.
//
// Every set-oriented read (pr-filter matching, batched result and resource
// fetches, the diagnosis engine's name lookups) binds its ids as
// `col IN (?, ..., ?)`, at most kInChunk ids per statement. A ragged chunk is
// padded up to the next rung of kInRungs by repeating its last id. The
// engine sorts and dedupes IN-list keys, so padding never changes the
// result, and the set of distinct SQL texts stays bounded: every statement
// stays on the statement cache's hot path, locally and over the wire.
//
// This header depends on the engine's Value type only, not on dbal, so
// pt_diag (which sits below dbal and the server) shares it with the dbal
// helper in core/in_chunks.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "minidb/value.h"

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
inline void sortUnique(std::vector<std::int64_t>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

/// The rung a chunk of `n` ids (1 <= n <= kInChunk) is padded up to.
inline std::size_t inListRung(std::size_t n) {
  return *std::lower_bound(std::begin(kInRungs), std::end(kInRungs), n);
}

/// `sql_prefix + " IN (?,...,?)"` with `rung` placeholders.
inline std::string inListSql(std::string_view sql_prefix, std::size_t rung) {
  std::string sql(sql_prefix);
  sql += " IN (";
  for (std::size_t i = 0; i < rung; ++i) {
    if (i) sql.push_back(',');
    sql.push_back('?');
  }
  sql.push_back(')');
  return sql;
}

/// Appends `chunk` to `params`, padded up to `rung` values by repeating its
/// last id.
inline void appendPaddedIds(std::vector<minidb::Value>& params,
                            std::span<const std::int64_t> chunk, std::size_t rung) {
  params.reserve(params.size() + rung);
  for (const std::int64_t id : chunk) params.emplace_back(id);
  params.resize(params.size() + (rung - chunk.size()), minidb::Value(chunk.back()));
}

}  // namespace perftrack::core
