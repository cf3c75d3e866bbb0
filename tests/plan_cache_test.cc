// PlanCache unit tests: hit/miss identity, LRU displacement under a byte
// budget, counter accounting, and concurrent access across shards.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "serve/plan_cache.h"

namespace harmony {
namespace {

using serve::CachedPlan;
using serve::CacheStats;
using serve::PlanCache;

/// Stand-in for the canonical request JSON the fingerprint hashes.
std::string Canon(int u_fwd) { return "request-" + std::to_string(u_fwd); }

std::shared_ptr<const CachedPlan> MakePlan(int u_fwd) {
  auto plan = std::make_shared<CachedPlan>();
  plan->canonical_request = Canon(u_fwd);
  plan->config.u_fwd = u_fwd;
  plan->config.u_bwd = 1;
  plan->config.fwd_packs = {{0, 9}, {10, 18}};
  plan->config.bwd_packs = {{0, 18}};
  return plan;
}

TEST(PlanCache, HitReturnsTheInsertedPlan) {
  PlanCache cache(/*byte_budget=*/1 << 20, /*num_shards=*/4);
  EXPECT_EQ(cache.Lookup(42, Canon(4)), nullptr);
  auto plan = MakePlan(4);
  cache.Insert(42, plan);
  const auto hit = cache.Lookup(42, Canon(4));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), plan.get());  // shared, not copied
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(PlanCache, DuplicateInsertKeepsFirstEntry) {
  PlanCache cache(1 << 20, 1);
  auto first = MakePlan(2);
  cache.Insert(7, first);
  cache.Insert(7, MakePlan(2));  // deterministic searches: same content
  EXPECT_EQ(cache.Lookup(7, Canon(2)).get(), first.get());
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(PlanCache, FingerprintCollisionDegradesToMiss) {
  // Two distinct requests that (hypothetically) hash to the same 64-bit
  // fingerprint: the canonical bytes disagree, so the second must miss
  // instead of being served the first request's plan.
  PlanCache cache(1 << 20, 1);
  cache.Insert(42, MakePlan(1));
  EXPECT_EQ(cache.Lookup(42, Canon(2)), nullptr);
  EXPECT_NE(cache.Lookup(42, Canon(1)), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(PlanCache, LruEvictionUnderTinyBudget) {
  // Single shard so recency order is fully observable. Budget fits ~2 plans,
  // each charged as the cache charges it: the plan plus its encoded reply.
  PlanCache probe(1 << 20, /*num_shards=*/1);
  probe.Insert(1, MakePlan(1));
  const size_t plan_bytes = probe.stats().bytes;
  ASSERT_GT(plan_bytes, MakePlan(1)->ApproxBytes());
  PlanCache cache(2 * plan_bytes, /*num_shards=*/1);
  cache.Insert(1, MakePlan(1));
  cache.Insert(2, MakePlan(2));
  // Refresh 1, then insert 3: the LRU entry is now 2.
  ASSERT_NE(cache.Lookup(1, Canon(1)), nullptr);
  cache.Insert(3, MakePlan(3));
  EXPECT_NE(cache.Lookup(1, Canon(1)), nullptr);
  EXPECT_EQ(cache.Lookup(2, Canon(2)), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(3, Canon(3)), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, 2 * plan_bytes);
}

TEST(PlanCache, OversizePlanIsServedButNotCached) {
  PlanCache cache(/*byte_budget=*/8, /*num_shards=*/1);  // smaller than any plan
  cache.Insert(1, MakePlan(1));
  EXPECT_EQ(cache.Lookup(1, Canon(1)), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(PlanCache, ClearDropsEntriesButKeepsCounters) {
  PlanCache cache(1 << 20, 4);
  cache.Insert(1, MakePlan(1));
  cache.Insert(2, MakePlan(2));
  ASSERT_NE(cache.Lookup(1, Canon(1)), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Lookup(1, Canon(1)), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.insertions, 2u);  // monotonic counters survive
  EXPECT_EQ(stats.hits, 1u);
}

TEST(PlanCache, ConcurrentMixedAccessIsSafe) {
  PlanCache cache(1 << 20, 16);
  constexpr int kThreads = 8, kOps = 1998;  // divisible by 3: exact op split
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t]() {
      for (int i = 0; i < kOps; ++i) {
        // Spread keys across shards (shard index uses the high bits).
        const uint64_t key = (static_cast<uint64_t>(i % 64) << 48) | (i % 64);
        if ((i + t) % 3 == 0) {
          cache.Insert(key, MakePlan(i % 64));
        } else {
          const auto hit = cache.Lookup(key, Canon(i % 64));
          if (hit != nullptr) {
            EXPECT_EQ(hit->config.u_fwd, i % 64);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOps * 2 / 3);
  EXPECT_LE(stats.entries, 64u);
}

}  // namespace
}  // namespace harmony
