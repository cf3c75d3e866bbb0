#include "serve/plan_cache.h"

#include <utility>

#include "common/logging.h"

namespace harmony::serve {

size_t CachedPlan::ApproxBytes() const {
  size_t bytes = sizeof(CachedPlan);
  bytes += canonical_request.capacity();
  bytes += (config.fwd_packs.capacity() + config.bwd_packs.capacity()) *
           sizeof(core::Pack);
  if (has_metrics) {
    // Per-device values past PerDevice's inline capacity spill to the heap
    // (Bytes and TimeSec are both 8 bytes).
    for (const size_t n :
         {metrics.swap_in_bytes.size(), metrics.swap_out_bytes.size(),
          metrics.p2p_bytes.size(), metrics.compute_busy.size(),
          metrics.peak_device_bytes.size()}) {
      if (n > runtime::PerDevice<Bytes>::kInline) bytes += n * sizeof(Bytes);
    }
  }
  return bytes;
}

PlanResponse PlanResponseFromCache(const CachedPlan& plan,
                                   uint64_t fingerprint) {
  PlanResponse response;
  response.fingerprint = fingerprint;
  response.config = plan.config;
  response.estimate = plan.estimate;
  response.configs_explored = plan.configs_explored;
  response.configs_feasible = plan.configs_feasible;
  response.search_seconds = plan.search_seconds;
  response.has_metrics = plan.has_metrics;
  if (plan.has_metrics) response.metrics = plan.metrics;
  return response;
}

json::Value CachedPlanToJson(const CachedPlan& plan) {
  json::Value v = json::Value::Object();
  v.Set("canonical_request", plan.canonical_request);
  v.Set("config", ConfigurationToJson(plan.config));
  v.Set("estimate", EstimateToJson(plan.estimate));
  v.Set("configs_explored", plan.configs_explored);
  v.Set("configs_feasible", plan.configs_feasible);
  v.Set("search_seconds", plan.search_seconds);
  if (plan.has_metrics) v.Set("metrics", RunMetricsToJson(plan.metrics));
  return v;
}

Result<CachedPlan> CachedPlanFromJson(const json::Value& v) {
  if (!v.is_object()) return Status::InvalidArgument("plan: not an object");
  CachedPlan p;
  HARMONY_RETURN_IF_ERROR(
      json::ReadString(v, "canonical_request", &p.canonical_request));
  const json::Value* config = v.Find("config");
  if (config == nullptr) return Status::InvalidArgument("plan: missing 'config'");
  auto c = ConfigurationFromJson(*config);
  HARMONY_RETURN_IF_ERROR(c.status());
  p.config = std::move(c).value();
  const json::Value* estimate = v.Find("estimate");
  if (estimate == nullptr) {
    return Status::InvalidArgument("plan: missing 'estimate'");
  }
  auto e = EstimateFromJson(*estimate);
  HARMONY_RETURN_IF_ERROR(e.status());
  p.estimate = e.value();
  HARMONY_RETURN_IF_ERROR(
      json::ReadInt(v, "configs_explored", &p.configs_explored));
  HARMONY_RETURN_IF_ERROR(
      json::ReadInt(v, "configs_feasible", &p.configs_feasible));
  HARMONY_RETURN_IF_ERROR(json::ReadDouble(v, "search_seconds", &p.search_seconds));
  if (const json::Value* metrics = v.Find("metrics"); metrics != nullptr) {
    auto m = RunMetricsFromJson(*metrics);
    HARMONY_RETURN_IF_ERROR(m.status());
    p.metrics = std::move(m).value();
    p.has_metrics = true;
  }
  return p;
}

PlanCache::PlanCache(size_t byte_budget, int num_shards)
    : shards_(static_cast<size_t>(num_shards)) {
  HARMONY_CHECK_GT(num_shards, 0);
  HARMONY_CHECK_EQ(num_shards & (num_shards - 1), 0)
      << "num_shards must be a power of two";
  per_shard_budget_ = byte_budget / static_cast<size_t>(num_shards);
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    uint64_t fingerprint, std::string_view canonical_request,
    std::shared_ptr<const HitReply>* reply) {
  Shard& shard = ShardOf(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(fingerprint);
  if (it == shard.map.end()) {
    ++shard.misses;
    return nullptr;
  }
  if (it->second.plan->canonical_request != canonical_request) {
    // 64-bit fingerprint collision between distinct requests: FNV-1a is not
    // cryptographic, so a hash match alone must never serve another
    // request's plan. Degrade to a miss (the first entry keeps its slot).
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  if (reply != nullptr) *reply = it->second.reply;
  return it->second.plan;
}

std::shared_ptr<const CachedPlan> PlanCache::Peek(
    uint64_t fingerprint, std::string_view canonical_request) const {
  const Shard& shard = ShardOf(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(fingerprint);
  if (it == shard.map.end()) return nullptr;
  if (it->second.plan->canonical_request != canonical_request) return nullptr;
  return it->second.plan;
}

void PlanCache::Insert(uint64_t fingerprint,
                       std::shared_ptr<const CachedPlan> plan) {
  // Encoded outside the shard lock; a lost race wastes one encoding.
  PlanResponse hit = PlanResponseFromCache(*plan, fingerprint);
  hit.cache_hit = true;
  auto reply = std::make_shared<const HitReply>(EncodeHitReply(hit));
  const size_t cost = plan->ApproxBytes() + sizeof(HitReply) +
                      reply->head.capacity() + reply->tail.capacity();
  Shard& shard = ShardOf(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.count(fingerprint) != 0) return;  // lost race: identical plan
  if (cost > per_shard_budget_) return;           // larger than the shard: skip
  while (shard.bytes + cost > per_shard_budget_ && !shard.lru.empty()) {
    const uint64_t victim = shard.lru.back();
    shard.lru.pop_back();
    auto vit = shard.map.find(victim);
    shard.bytes -= vit->second.bytes;
    shard.map.erase(vit);
    ++shard.evictions;
  }
  shard.lru.push_front(fingerprint);
  Entry entry;
  entry.plan = std::move(plan);
  entry.reply = std::move(reply);
  entry.bytes = cost;
  entry.lru_pos = shard.lru.begin();
  shard.map.emplace(fingerprint, std::move(entry));
  shard.bytes += cost;
  ++shard.insertions;
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
}

CacheStats PlanCache::stats() const {
  CacheStats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.insertions += shard.insertions;
    total.evictions += shard.evictions;
    total.entries += shard.map.size();
    total.bytes += shard.bytes;
  }
  return total;
}

}  // namespace harmony::serve
