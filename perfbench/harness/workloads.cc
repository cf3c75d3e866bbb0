#include "workloads.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/logging.h"
#include "common/rng.h"
#include "hw/machine.h"

namespace perfbench {

namespace {

using harmony::Rng;
using harmony::serve::ModelSpec;
using harmony::serve::PlanRequest;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A generated transformer: the shape comes from the caller, the seed only
/// adds 0-2 blocks and picks the head, so the cost stays near the shape's.
ModelSpec GeneratedTransformer(Rng& rng, int blocks, int hidden, int seq) {
  ModelSpec spec;
  spec.kind = ModelSpec::Kind::kTransformer;
  harmony::model::TransformerConfig& t = spec.transformer;
  t.num_blocks = blocks + static_cast<int>(rng.NextBounded(3));
  t.hidden = hidden;
  t.seq_len = seq;
  t.heads = 16;
  t.vocab = 32000;
  t.is_bert = rng.NextBounded(2) == 0;
  spec.name = "gen-b" + std::to_string(t.num_blocks) + "-h" +
              std::to_string(t.hidden) + "-s" + std::to_string(t.seq_len);
  t.name = spec.name;
  return spec;
}

/// The i-th shape of the serve workloads (32 shapes; the pool holds each
/// once, novel requests cycle through them).
PlanRequest ServeRequest(Rng& rng, int shape) {
  static const int kBlocks[] = {4, 8, 12, 16};
  static const int kHidden[] = {256, 512, 768};
  static const int kSeq[] = {64, 128, 256};
  static const int kMinibatch[] = {8, 16, 32};
  PlanRequest r;
  r.model = GeneratedTransformer(rng, kBlocks[shape % 4], kHidden[(shape / 4) % 3],
                                 kSeq[(shape / 2) % 3]);
  r.machine = harmony::hw::MachineSpec::Commodity4Gpu();
  r.mode = harmony::core::HarmonyMode::kPipelineParallel;
  r.minibatch = kMinibatch[(shape / 3) % 3];
  r.options.u_fwd_max = 2 + (shape / 5) % 5;
  r.options.u_bwd_max = 2 + (shape / 7) % 5;
  r.options.policy_mode = (shape / 16) % 2 == 0 ? harmony::core::PolicyMode::kLegacy
                                                : harmony::core::PolicyMode::kSweep;
  // Excluded from the fingerprint: the warm answer must not depend on it.
  r.options.num_threads = 1;
  return r;
}

/// Rebuilds `v` with the members of every object down to `depth` levels in
/// a seeded order. The server canonicalizes before fingerprinting, so the
/// reordered request still names the same plan.
harmony::json::Value Shuffled(const harmony::json::Value& v, Rng& rng,
                              int depth) {
  if (!v.is_object() || depth == 0) return v;
  std::vector<size_t> order(v.members().size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  harmony::json::Value out = harmony::json::Value::Object();
  for (size_t i : order) {
    const auto& [key, member] = v.members()[i];
    out.Set(key, Shuffled(member, rng, depth - 1));
  }
  return out;
}

}  // namespace

PlanRequest PlanJob(uint64_t seed, int index) {
  // Every block of 64 jobs holds each (class, level) pair once, in a seeded
  // order. The pair fixes the machine, mode, policy, model shape, minibatch
  // and u_*_max; the seed adds a few blocks to generated models and picks
  // their head.
  const int block = index / 64;
  Rng block_rng = Rng(seed).Split(0x626c6f636b000000ull + static_cast<uint64_t>(block));
  std::vector<int> slots(64);
  for (int i = 0; i < 64; ++i) slots[i] = i;
  for (int i = 63; i > 0; --i) std::swap(slots[i], slots[block_rng.NextBounded(i + 1)]);
  const int slot = slots[index % 64];
  const int cls = slot % 16;
  const int level = slot / 16;
  Rng rng = Rng(seed).Split(0x706c616e00000000ull + static_cast<uint64_t>(index));

  static const char* const kBuiltins[] = {"BERT-Large", "GPT2-Medium", "GPT2", "BERT96"};
  static const int kBlocks[] = {12, 18, 24, 30};
  static const int kHidden[] = {512, 768, 1024, 1536};
  static const int kSeq[] = {128, 256, 512};
  static const int kMinibatch[] = {32, 64, 128};
  static const int kU[] = {4, 8, 12, 16};
  PlanRequest r;
  if ((cls & 1) != 0) {
    r.model = ModelSpec::FromName(kBuiltins[level]).value();
  } else {
    r.model = GeneratedTransformer(rng, kBlocks[level], kHidden[(level + cls / 2) % 4],
                                   kSeq[(level + cls / 4) % 3]);
  }
  r.machine = (cls & 2) != 0 ? harmony::hw::MachineSpec::Commodity8Gpu()
                             : harmony::hw::MachineSpec::Commodity4Gpu();
  r.mode = (cls & 4) != 0 ? harmony::core::HarmonyMode::kDataParallel
                          : harmony::core::HarmonyMode::kPipelineParallel;
  r.minibatch = kMinibatch[(level + cls) % 3];
  r.options.u_fwd_max = kU[(level + cls / 2) % 4];
  r.options.u_bwd_max = kU[level];
  r.options.policy_mode = (cls & 8) != 0 ? harmony::core::PolicyMode::kSweep
                                         : harmony::core::PolicyMode::kLegacy;
  r.options.num_threads = 2;
  return r;
}

std::vector<PlanRequest> ServePool(uint64_t seed) {
  Rng rng = Rng(seed).Split(0x706f6f6cull);
  std::vector<PlanRequest> pool;
  std::set<uint64_t> seen;
  while (static_cast<int>(pool.size()) < kPoolSize) {
    PlanRequest r = ServeRequest(rng, static_cast<int>(pool.size()));
    if (seen.insert(harmony::serve::RequestFingerprint(r)).second) {
      pool.push_back(std::move(r));
    }
  }
  return pool;
}

std::vector<PlanRequest> NovelRequests(uint64_t seed, int count,
                                       const std::vector<PlanRequest>& pool) {
  Rng rng = Rng(seed).Split(0x6e6f76656cull);
  std::set<uint64_t> seen;
  for (const PlanRequest& r : pool) {
    seen.insert(harmony::serve::RequestFingerprint(r));
  }
  std::vector<PlanRequest> out;
  HARMONY_CHECK_LE(count, 1000);  // well inside the distinct requests below
  for (int i = 0; static_cast<int>(out.size()) < count; ++i) {
    PlanRequest r = ServeRequest(rng, i % kPoolSize);
    r.options.u_fwd_max = 2 + static_cast<int>(rng.NextBounded(5));
    if (seen.insert(harmony::serve::RequestFingerprint(r)).second) {
      out.push_back(std::move(r));
    }
  }
  return out;
}

Profiled BuildAndProfile(const PlanRequest& r, Spans* spans, int64_t op) {
  std::optional<harmony::model::SequentialModel> seq;
  {
    Spans::Scope span(spans, "model.build", op);
    auto graph = harmony::serve::BuildModel(r.model);
    HARMONY_CHECK(graph.ok()) << graph.status();
    seq = harmony::model::Sequentialize(graph.value());
  }
  Spans::Scope span(spans, "profile.profile", op);
  const harmony::profile::Profiler profiler(r.machine.PlanningGpu(),
                                            harmony::profile::ProfilerOptions{});
  harmony::profile::ProfileDb db = profiler.Profile(*seq);
  return Profiled{std::move(*seq), std::move(db)};
}

PoolSchedule::PoolSchedule(uint64_t seed, int pool_size) {
  Rng rng = Rng(seed).Split(0x7363686564ull);
  order_.resize(4096);
  for (int& i : order_) i = static_cast<int>(rng.NextBounded(pool_size));
}

MixedFrames::MixedFrames(uint64_t seed,
                         const std::vector<PlanRequest>& pool)
    : seed_(seed) {
  static const std::string kSlot = "987654321";
  Rng rng = Rng(seed).Split(0x6d69786564ull);
  for (const PlanRequest& request : pool) {
    PlanRequest slotted = request;
    slotted.deadline_ms = std::stoi(kSlot);
    const harmony::json::Value body =
        harmony::serve::PlanRequestToJson(slotted);
    std::vector<Template>& variants = templates_.emplace_back();
    for (int v = 0; v < kVariants; ++v) {
      harmony::json::Value envelope = harmony::json::Value::Object();
      harmony::json::Value shuffled = Shuffled(body, rng, 2);
      if (rng.NextBounded(2) == 0) {
        envelope.Set("type", "plan");
        envelope.Set("request", std::move(shuffled));
      } else {
        envelope.Set("request", std::move(shuffled));
        envelope.Set("type", "plan");
      }
      const std::string bytes = envelope.Dump();
      const size_t at = bytes.find(kSlot);
      HARMONY_CHECK(at != std::string::npos &&
                    bytes.find(kSlot, at + 1) == std::string::npos);
      variants.push_back({bytes.substr(0, at), bytes.substr(at + kSlot.size())});
    }
  }
}

std::string MixedFrames::Frame(int64_t k, int pool_index) const {
  const uint64_t h = Mix(seed_ ^ Mix(static_cast<uint64_t>(k)));
  const Template& t = templates_[pool_index][h % kVariants];
  // Unique per k, so no two frames of a run are byte-identical.
  const int64_t deadline_ms = 60000 + 16 * k + static_cast<int64_t>((h >> 8) % 16);
  return t.head + std::to_string(deadline_ms) + t.tail;
}

}  // namespace perfbench
