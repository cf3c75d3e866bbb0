#ifndef HARMONY_SERVE_PLAN_CACHE_H_
#define HARMONY_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/wire.h"

namespace harmony::serve {

/// A completed plan as the cache stores it: the search outcome stripped of
/// per-request envelope fields (latency, cache_hit — those are stamped per
/// response). Immutable once inserted; shared by pointer so a hit never
/// copies pack lists under the shard lock.
struct CachedPlan {
  /// The canonical request JSON (wire.h) this plan answers. Lookup compares
  /// it byte-for-byte, so a 64-bit fingerprint collision can never silently
  /// alias one request's plan to another.
  std::string canonical_request;
  core::Configuration config;
  core::Estimate estimate;
  int configs_explored = 0;
  int configs_feasible = 0;
  double search_seconds = 0;  // wall time of the search that produced it
  bool has_metrics = false;
  runtime::RunMetrics metrics;

  /// Approximate heap footprint; the cache charges it plus the bytes of the
  /// plan's encoded hit reply against its budget.
  size_t ApproxBytes() const;
};

/// The response a cache hit (or a tier fill) answers with: the plan's
/// fields, with the envelope fields left for the caller to stamp.
PlanResponse PlanResponseFromCache(const CachedPlan& plan,
                                   uint64_t fingerprint);

/// Canonical JSON envelope of a cached plan — the payload the cluster tier
/// moves between daemons (peer-fill replies) and persists in the disk store.
/// Fixed member order, so serialize -> parse -> serialize is byte-identical
/// and a revived plan is bit-identical to the original search's output.
json::Value CachedPlanToJson(const CachedPlan& plan);
Result<CachedPlan> CachedPlanFromJson(const json::Value& v);

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;   // LRU entries displaced by the byte budget
  uint64_t entries = 0;     // currently cached plans
  uint64_t bytes = 0;       // current ApproxBytes total
};

/// Sharded, LRU-bounded, content-addressed plan store. Keys are the FNV-1a
/// fingerprints of canonical request JSON (wire.h), so "the same plan" is
/// decided by request *content*, never by connection or arrival order. The
/// 64-bit hash alone is never trusted: a hit additionally compares the full
/// canonical request bytes, so a crafted (or unlucky) fingerprint collision
/// degrades to a miss instead of returning another request's plan.
///
/// Concurrency: the key's shard is picked by fingerprint bits; each shard
/// has its own mutex, LRU list and map, so concurrent lookups of different
/// requests contend 1/num_shards of the time. The byte budget is enforced
/// per shard (budget/num_shards each) — global-budget precision is not worth
/// a global lock on the hit path.
///
/// Semantics: Lookup refreshes LRU recency. Insert displaces least-recently
/// used entries of its shard until the new entry fits; a plan larger than a
/// whole shard's budget is not cached (the search still served the caller —
/// caching is an optimization, never a requirement). Re-inserting an
/// existing key (a lost single-flight race upstream) keeps the first entry:
/// searches are deterministic, both copies are identical.
class PlanCache {
 public:
  /// `byte_budget` bounds the summed ApproxBytes across all shards;
  /// `num_shards` must be a power of two.
  explicit PlanCache(size_t byte_budget, int num_shards = 16);

  /// Returns the cached plan or nullptr; counts a hit/miss either way. The
  /// entry's stored canonical_request must equal `canonical_request` for a
  /// hit — a fingerprint match with different bytes is a collision and
  /// counts as a miss. On a hit, `reply` (when given) receives the plan's
  /// reply frame encoded at Insert.
  std::shared_ptr<const CachedPlan> Lookup(
      uint64_t fingerprint, std::string_view canonical_request,
      std::shared_ptr<const HitReply>* reply = nullptr);

  /// `plan->canonical_request` must be the bytes `fingerprint` was hashed
  /// from; Lookup verifies against it. Encodes the plan's hit reply
  /// (EncodeHitReply) once, here, so no hit renders JSON.
  void Insert(uint64_t fingerprint, std::shared_ptr<const CachedPlan> plan);

  /// Side-effect-free Lookup for the cluster tier's peer cache_get path:
  /// byte-verifies like Lookup but never counts a hit/miss and never
  /// refreshes LRU recency — a peer probing this daemon must not perturb its
  /// local eviction order or hit-rate accounting.
  std::shared_ptr<const CachedPlan> Peek(
      uint64_t fingerprint, std::string_view canonical_request) const;

  /// Drops every entry (stats counters survive).
  void Clear();

  /// Aggregated over shards; counters are monotonic, entries/bytes current.
  CacheStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const CachedPlan> plan;
    std::shared_ptr<const HitReply> reply;
    size_t bytes = 0;
    std::list<uint64_t>::iterator lru_pos;  // into Shard::lru
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> map;
    std::list<uint64_t> lru;  // front = most recent
    size_t bytes = 0;
    uint64_t hits = 0, misses = 0, insertions = 0, evictions = 0;
  };

  Shard& ShardOf(uint64_t fingerprint) {
    // High bits: FNV-1a mixes the low bits last, the high bits spread well.
    return shards_[(fingerprint >> 48) & (shards_.size() - 1)];
  }
  const Shard& ShardOf(uint64_t fingerprint) const {
    return shards_[(fingerprint >> 48) & (shards_.size() - 1)];
  }

  size_t per_shard_budget_;
  std::vector<Shard> shards_;
};

}  // namespace harmony::serve

#endif  // HARMONY_SERVE_PLAN_CACHE_H_
