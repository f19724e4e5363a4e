#include "core/filter.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <queue>
#include <unordered_set>
#include <utility>

#include "core/in_chunks.h"
#include "minidb/invidx/manager.h"
#include "util/compare.h"
#include "util/error.h"
#include "util/strings.h"

namespace perftrack::core {

using minidb::Value;
using util::ModelError;
using util::sqlQuote;

namespace invidx = minidb::invidx;

std::string_view expansionName(Expansion e) {
  switch (e) {
    case Expansion::None: return "N";
    case Expansion::Ancestors: return "A";
    case Expansion::Descendants: return "D";
    case Expansion::Both: return "B";
  }
  return "?";
}

ResourceFilter ResourceFilter::byType(std::string type_path, Expansion e) {
  ResourceFilter f;
  f.kind = Kind::ByType;
  f.type_path = std::move(type_path);
  f.expand = e;
  return f;
}

ResourceFilter ResourceFilter::byName(std::string name, Expansion e) {
  ResourceFilter f;
  f.kind = Kind::ByName;
  f.name = std::move(name);
  f.expand = e;
  return f;
}

ResourceFilter ResourceFilter::byAttributes(std::vector<AttrPredicate> attrs,
                                            std::string type_path, Expansion e) {
  ResourceFilter f;
  f.kind = Kind::ByAttributes;
  f.attrs = std::move(attrs);
  f.type_path = std::move(type_path);
  f.expand = e;
  return f;
}

std::string ResourceFilter::describe() const {
  std::string out;
  switch (kind) {
    case Kind::ByType: out = "type=" + type_path; break;
    case Kind::ByName: out = "name=" + name; break;
    case Kind::ByAttributes: {
      out = "attrs[";
      for (std::size_t i = 0; i < attrs.size(); ++i) {
        if (i) out += " AND ";
        out += attrs[i].name + attrs[i].comparator + attrs[i].value;
      }
      out += "]";
      if (!type_path.empty()) out += " type=" + type_path;
      break;
    }
  }
  out += " (";
  out += expansionName(expand);
  out += ")";
  return out;
}

namespace {

/// The inverted-index manager behind `conn`, or nullptr when the fast paths
/// must stay off (remote connection, invidx switch disabled). Every fast
/// path below also handles the manager declining a specific index (nullptr)
/// by falling back to the legacy SQL, so the two paths always agree.
invidx::Manager* fastIndexes(dbal::Connection& conn) {
  if (!conn.invidxEnabled()) return nullptr;
  minidb::Database* db = conn.localDatabase();
  return db != nullptr ? &db->invidx() : nullptr;
}

/// The first column of every row of `sql_prefix` IN (ids), chunked through
/// forEachRowInChunks. `prefix_params` bind any '?' already in sql_prefix.
/// Ids are deduplicated and probed in ascending order — every caller treats
/// the output as a set (a sort/dedup or hash-set build follows).
std::vector<std::int64_t> chunkedIn(dbal::Connection& conn, const std::string& sql_prefix,
                                    std::vector<std::int64_t> ids,
                                    const std::vector<Value>& prefix_params = {}) {
  sortUnique(ids);
  std::vector<std::int64_t> out;
  forEachRowInChunks(
      conn, sql_prefix, ids, [&](minidb::Row& row) { out.push_back(row[0].asInt()); },
      prefix_params);
  return out;
}

std::vector<std::int64_t> attributeCandidates(dbal::Connection& conn,
                                              const AttrPredicate& pred) {
  if (invidx::Manager* mgr = fastIndexes(conn)) {
    if (const auto idx = mgr->attrIndex("resource_attribute", "resource_id",
                                        "name", "value")) {
      // Predicates evaluate once per *distinct* value of the attribute; the
      // matching values' id postings are unioned. Same comparator, same
      // rows, so the result matches the legacy row-at-a-time scan exactly.
      invidx::counters().probes.inc();
      std::vector<std::int64_t> out;
      if (const auto* values = idx->valuesOf(pred.name)) {
        for (const auto& vp : *values) {
          if (util::comparePredicate(vp.value, pred.comparator, pred.value)) {
            invidx::counters().unions.inc();
            for (const std::uint64_t id : vp.ids.toVector()) {
              out.push_back(static_cast<std::int64_t>(id));
            }
          }
        }
      }
      sortUnique(out);
      return out;
    }
  }
  auto cur = conn.query(
      "SELECT resource_id, value FROM resource_attribute WHERE name = ?",
      {Value(pred.name)});
  std::vector<std::int64_t> out;
  minidb::Row row;
  while (cur.next(row)) {
    if (util::comparePredicate(row[1].asText(), pred.comparator, pred.value)) {
      out.push_back(row[0].asInt());
    }
  }
  sortUnique(out);
  return out;
}

/// Partial-path ByName ("Frost/batch") via the name index: intersect the
/// pattern's path-segment and trigram postings to get a small candidate
/// set, then verify the exact "/<pattern>" suffix against the stored full
/// name. Declines (nullopt -> legacy LIKE) when the pattern contains LIKE
/// wildcards (legacy interprets them) or the index is unavailable.
std::optional<std::vector<std::int64_t>> partialPathFast(dbal::Connection& conn,
                                                         const std::string& name) {
  if (name.find('%') != std::string::npos || name.find('_') != std::string::npos) {
    return std::nullopt;
  }
  invidx::Manager* mgr = fastIndexes(conn);
  if (mgr == nullptr) return std::nullopt;
  const auto idx = mgr->nameIndex("resource_item", "id", "name", "full_name");
  if (!idx) return std::nullopt;

  std::vector<const invidx::PostingList*> lists;
  for (const std::string& seg : util::split(name, '/')) {
    if (seg.empty()) continue;
    invidx::counters().probes.inc();
    const invidx::PostingList* pl = idx->segment(seg);
    if (pl == nullptr) return std::vector<std::int64_t>{};  // segment unseen
    lists.push_back(pl);
  }
  const std::string pattern = "/" + name;
  // A few trigrams of the suffix pattern tighten the candidate set; more
  // than a handful adds intersection work without shrinking it further.
  for (std::size_t i = 0; i + 3 <= pattern.size() && i < 8 * 3; i += 3) {
    invidx::counters().probes.inc();
    const invidx::PostingList* pl = idx->trigram(pattern.substr(i, 3));
    if (pl == nullptr) return std::vector<std::int64_t>{};
    lists.push_back(pl);
  }
  if (lists.empty()) return std::nullopt;
  invidx::counters().intersections.inc();
  std::vector<std::int64_t> out;
  for (const std::uint64_t id : invidx::PostingList::intersect(std::move(lists))) {
    const std::string* full = idx->fullName(static_cast<std::int64_t>(id));
    if (full != nullptr && util::endsWith(*full, pattern)) {
      out.push_back(static_cast<std::int64_t>(id));
    }
  }
  return out;
}

/// Closure expansion via a key->values index on the closure table; nullopt
/// falls back to the legacy chunked IN-list join.
std::optional<std::vector<std::int64_t>> closureFast(dbal::Connection& conn,
                                                     const std::string& table,
                                                     const std::string& value_col,
                                                     const std::vector<ResourceId>& base) {
  invidx::Manager* mgr = fastIndexes(conn);
  if (mgr == nullptr) return std::nullopt;
  const auto idx = mgr->valueIndex(table, "resource_id", value_col);
  if (!idx) return std::nullopt;
  std::vector<std::int64_t> out;
  for (const ResourceId id : base) {
    invidx::counters().probes.inc();
    if (const invidx::PostingList* pl = idx->find(id)) {
      invidx::counters().unions.inc();
      for (const std::uint64_t v : pl->toVector()) {
        out.push_back(static_cast<std::int64_t>(v));
      }
    }
  }
  return out;
}

}  // namespace

std::vector<ResourceId> evaluateFamily(PTDataStore& store, const ResourceFilter& filter) {
  dbal::Connection& conn = store.connection();
  std::vector<ResourceId> family;

  switch (filter.kind) {
    case ResourceFilter::Kind::ByType: {
      for (const ResourceInfo& info : store.resourcesOfType(filter.type_path)) {
        family.push_back(info.id);
      }
      break;
    }
    case ResourceFilter::Kind::ByName: {
      if (!filter.name.empty() && filter.name.front() == '/') {
        if (const auto id = store.findResource(filter.name)) family.push_back(*id);
      } else if (filter.name.find('/') != std::string::npos) {
        // Partial path like "Frost/batch": resources whose full name ends
        // with "/Frost/batch" (paper Fig. 3: child selection restricts to
        // named parents).
        if (auto fast = partialPathFast(conn, filter.name)) {
          family = std::move(*fast);
        } else {
          auto cur = conn.query(
              "SELECT id, full_name FROM resource_item WHERE full_name LIKE " +
              sqlQuote("%/" + filter.name));
          minidb::Row row;
          while (cur.next(row)) family.push_back(row[0].asInt());
        }
      } else {
        bool fast = false;
        if (invidx::Manager* mgr = fastIndexes(conn)) {
          if (const auto idx =
                  mgr->nameIndex("resource_item", "id", "name", "full_name")) {
            invidx::counters().probes.inc();
            if (const invidx::PostingList* pl = idx->baseName(filter.name)) {
              for (const std::uint64_t id : pl->toVector()) {
                family.push_back(static_cast<std::int64_t>(id));
              }
            }
            fast = true;
          }
        }
        if (!fast) {
          for (const ResourceInfo& info : store.resourcesNamed(filter.name)) {
            family.push_back(info.id);
          }
        }
      }
      break;
    }
    case ResourceFilter::Kind::ByAttributes: {
      if (filter.attrs.empty()) {
        throw ModelError("attribute filter requires at least one predicate");
      }
      family = attributeCandidates(conn, filter.attrs.front());
      for (std::size_t i = 1; i < filter.attrs.size() && !family.empty(); ++i) {
        const auto next = attributeCandidates(conn, filter.attrs[i]);
        std::vector<std::int64_t> merged;
        std::set_intersection(family.begin(), family.end(), next.begin(), next.end(),
                              std::back_inserter(merged));
        family = std::move(merged);
      }
      if (!filter.type_path.empty() && !family.empty()) {
        // Keep only resources of the requested type.
        const auto typed = chunkedIn(
            conn,
            "SELECT r.id FROM resource_item r JOIN focus_framework f ON "
            "r.focus_framework_id = f.id WHERE f.type_name = ? AND r.id",
            family, {Value(filter.type_path)});
        std::vector<std::int64_t> sorted_typed = typed;
        sortUnique(sorted_typed);
        std::vector<std::int64_t> merged;
        std::set_intersection(family.begin(), family.end(), sorted_typed.begin(),
                              sorted_typed.end(), std::back_inserter(merged));
        family = std::move(merged);
      }
      break;
    }
  }
  sortUnique(family);

  // Expansion via the closure tables (constant-depth queries instead of
  // parent-chain walks; see DESIGN.md §5 for the ablation). Both expansions
  // are computed from the ORIGINAL members: B(x) = A(x) ∪ D(x), not D(A(x)),
  // which would drag in entire sibling subtrees.
  const std::vector<ResourceId> base = family;
  if (filter.expand == Expansion::Ancestors || filter.expand == Expansion::Both) {
    auto ancestors = closureFast(conn, "resource_has_ancestor", "ancestor_id", base);
    if (!ancestors) {
      ancestors = chunkedIn(
          conn, "SELECT ancestor_id FROM resource_has_ancestor WHERE resource_id", base);
    }
    family.insert(family.end(), ancestors->begin(), ancestors->end());
  }
  if (filter.expand == Expansion::Descendants || filter.expand == Expansion::Both) {
    auto descendants =
        closureFast(conn, "resource_has_descendant", "descendant_id", base);
    if (!descendants) {
      descendants = chunkedIn(
          conn, "SELECT descendant_id FROM resource_has_descendant WHERE resource_id",
          base);
    }
    family.insert(family.end(), descendants->begin(), descendants->end());
  }
  sortUnique(family);
  return family;
}

namespace {

std::unordered_set<std::int64_t> fociTouchingFamily(dbal::Connection& conn,
                                                    const std::vector<ResourceId>& family) {
  const auto foci = chunkedIn(
      conn, "SELECT focus_id FROM focus_has_resource WHERE resource_id", family);
  return {foci.begin(), foci.end()};
}

/// The pr-filter core on the inverted index: per family, union the member
/// resources' focus postings into a dense bitmap, then AND the bitmaps
/// across families (word-wise when the postings are bitmap-represented).
/// nullopt -> the focus_has_resource index is unavailable, use the legacy
/// hash-set path. The caller must pass a non-empty family list.
std::optional<invidx::Bitmap> matchingFociFast(
    invidx::Manager& mgr, const std::vector<std::vector<ResourceId>>& families) {
  const auto fhr = mgr.valueIndex("focus_has_resource", "resource_id", "focus_id");
  if (!fhr) return std::nullopt;
  std::optional<invidx::Bitmap> acc;
  for (const std::vector<ResourceId>& family : families) {
    invidx::Bitmap bm(fhr->valueLo(), fhr->valueHi());
    for (const ResourceId id : family) {
      invidx::counters().probes.inc();
      if (const invidx::PostingList* pl = fhr->find(id)) {
        invidx::counters().unions.inc();
        bm.orPosting(*pl);
      }
    }
    if (!acc) {
      acc = std::move(bm);
    } else {
      invidx::counters().intersections.inc();
      acc->andWith(bm);
    }
    if (!acc->any()) break;  // some family touches no focus: empty match
  }
  return acc;
}

/// All result ids whose foci appear in `foci`, ascending and unique, via
/// the focus -> results index. nullopt -> index unavailable.
std::optional<invidx::Bitmap> resultsOfFoci(invidx::Manager& mgr,
                                            const invidx::Bitmap& foci) {
  const auto prhf =
      mgr.valueIndex("performance_result_has_focus", "focus_id", "result_id");
  if (!prhf) return std::nullopt;
  invidx::Bitmap res(prhf->valueLo(), prhf->valueHi());
  foci.forEach([&](std::uint64_t focus) {
    invidx::counters().probes.inc();
    if (const invidx::PostingList* pl =
            prhf->find(static_cast<std::int64_t>(focus))) {
      invidx::counters().unions.inc();
      res.orPosting(*pl);
    }
    return true;
  });
  return res;
}

std::vector<std::int64_t> toSigned(const std::vector<std::uint64_t>& v) {
  return {v.begin(), v.end()};
}

std::vector<std::int64_t> legacyMatchResults(
    dbal::Connection& conn, const std::vector<std::vector<ResourceId>>& families) {
  // Matching foci = intersection over families of {focus | focus ∩ family}.
  std::unordered_set<std::int64_t> matching = fociTouchingFamily(conn, families[0]);
  for (std::size_t i = 1; i < families.size() && !matching.empty(); ++i) {
    const auto next = fociTouchingFamily(conn, families[i]);
    std::unordered_set<std::int64_t> merged;
    for (std::int64_t focus : matching) {
      if (next.contains(focus)) merged.insert(focus);
    }
    matching = std::move(merged);
  }
  if (matching.empty()) return {};
  std::vector<std::int64_t> focus_ids(matching.begin(), matching.end());
  std::sort(focus_ids.begin(), focus_ids.end());
  auto results = chunkedIn(
      conn, "SELECT result_id FROM performance_result_has_focus WHERE focus_id",
      focus_ids);
  sortUnique(results);
  return results;
}

}  // namespace

std::vector<std::int64_t> matchResults(
    PTDataStore& store, const std::vector<std::vector<ResourceId>>& families) {
  dbal::Connection& conn = store.connection();
  if (families.empty()) {
    // An empty pr-filter matches everything (paper: filters narrow a set).
    auto cur = conn.query("SELECT id FROM performance_result ORDER BY id");
    std::vector<std::int64_t> out;
    minidb::Row row;
    while (cur.next(row)) out.push_back(row[0].asInt());
    return out;
  }
  if (invidx::Manager* mgr = fastIndexes(conn)) {
    if (auto foci = matchingFociFast(*mgr, families)) {
      if (!foci->any()) return {};
      if (const auto res = resultsOfFoci(*mgr, *foci)) {
        return toSigned(res->toVector());
      }
      // Foci resolved on the index but the results index declined: finish
      // through the legacy IN-list join.
      auto results = chunkedIn(
          conn, "SELECT result_id FROM performance_result_has_focus WHERE focus_id",
          toSigned(foci->toVector()));
      sortUnique(results);
      return results;
    }
  }
  return legacyMatchResults(conn, families);
}

std::size_t matchResultCount(PTDataStore& store,
                             const std::vector<std::vector<ResourceId>>& families) {
  dbal::Connection& conn = store.connection();
  if (!families.empty()) {
    if (invidx::Manager* mgr = fastIndexes(conn)) {
      if (const auto foci = matchingFociFast(*mgr, families)) {
        if (!foci->any()) return 0;
        if (const auto res = resultsOfFoci(*mgr, *foci)) {
          // Count without materializing ids: a popcount over the bitmap.
          return static_cast<std::size_t>(res->count());
        }
      }
    }
  }
  return matchResults(store, families).size();
}

std::vector<std::int64_t> matchResultsTopK(
    PTDataStore& store, const std::vector<std::vector<ResourceId>>& families,
    std::size_t k) {
  if (k == 0) return {};
  dbal::Connection& conn = store.connection();
  if (families.empty()) {
    auto cur = conn.query("SELECT id FROM performance_result ORDER BY id");
    std::vector<std::int64_t> out;
    minidb::Row row;
    while (out.size() < k && cur.next(row)) out.push_back(row[0].asInt());
    return out;
  }
  if (invidx::Manager* mgr = fastIndexes(conn)) {
    if (const auto foci = matchingFociFast(*mgr, families)) {
      if (!foci->any()) return {};
      const auto prhf =
          mgr->valueIndex("performance_result_has_focus", "focus_id", "result_id");
      if (prhf) {
        // K-way merge of the matching foci's result postings: a min-heap of
        // cursors emits ascending unique result ids, and the merge stops at
        // k results without touching the postings' tails (the block-max
        // analogue of WAND's early termination for an OR of sorted lists).
        std::vector<invidx::PostingList::Cursor> cursors;
        foci->forEach([&](std::uint64_t focus) {
          invidx::counters().probes.inc();
          if (const invidx::PostingList* pl =
                  prhf->find(static_cast<std::int64_t>(focus))) {
            cursors.push_back(pl->cursor());
          }
          return true;
        });
        using HeapItem = std::pair<std::uint64_t, std::size_t>;  // (value, cursor)
        std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
        for (std::size_t i = 0; i < cursors.size(); ++i) {
          if (cursors[i].valid()) heap.emplace(cursors[i].value(), i);
        }
        std::vector<std::int64_t> out;
        while (out.size() < k && !heap.empty()) {
          const auto [value, ci] = heap.top();
          heap.pop();
          if (out.empty() || static_cast<std::uint64_t>(out.back()) != value) {
            out.push_back(static_cast<std::int64_t>(value));
          }
          cursors[ci].next();
          if (cursors[ci].valid()) heap.emplace(cursors[ci].value(), ci);
        }
        if (!heap.empty()) invidx::counters().topk_early_exits.inc();
        return out;
      }
    }
  }
  auto all = matchResults(store, families);
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<std::int64_t> queryResults(PTDataStore& store, const PrFilter& filter) {
  std::vector<std::vector<ResourceId>> families;
  families.reserve(filter.families.size());
  for (const ResourceFilter& f : filter.families) {
    families.push_back(evaluateFamily(store, f));
  }
  return matchResults(store, families);
}

std::size_t familyMatchCount(PTDataStore& store, const std::vector<ResourceId>& family) {
  return matchResultCount(store, {family});
}

}  // namespace perftrack::core
