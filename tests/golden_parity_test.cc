// Golden parity tests for the execution pipeline's hot-path data structures.
//
// These goldens were recorded before the interned-tensor-id / incremental
// flow-network rewrite and pin the observable behaviour bit-for-bit: the
// exact RunMetrics doubles and an FNV-1a hash over the full trace-event
// sequence (kind, lane, device, time bits, bytes, task) of a BERT96 and a
// GPT2 run. Any change to eviction order, fair-share rates, or tensor
// lifetime decisions shifts at least one event and fails the hash — so the
// optimizations are provably semantics-preserving, not just "close enough".

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/packing.h"
#include "model/models.h"
#include "profile/profiler.h"
#include "runtime/runtime.h"
#include "trace/trace.h"

namespace harmony::runtime {
namespace {

using core::Configuration;
using core::HarmonyMode;
using core::OptimizationFlags;

/// Records every event into an order-sensitive FNV-1a hash. Doubles are
/// hashed by bit pattern, so even 1-ulp timing drift is caught.
class HashSink : public trace::TraceSink {
 public:
  void OnEvent(const trace::Event& e) override {
    ++count_;
    Mix(static_cast<uint64_t>(e.kind));
    Mix(static_cast<uint64_t>(e.lane));
    Mix(static_cast<uint64_t>(static_cast<int64_t>(e.device)));
    Mix(Bits(e.time));
    Mix(static_cast<uint64_t>(e.bytes));
    Mix(static_cast<uint64_t>(static_cast<int64_t>(e.task)));
  }

  uint64_t hash() const { return hash_; }
  int64_t count() const { return count_; }

 private:
  static uint64_t Bits(double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  }
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }

  uint64_t hash_ = 0xcbf29ce484222325ull;
  int64_t count_ = 0;
};

struct GoldenRun {
  RunMetrics metrics;
  uint64_t trace_hash = 0;
  int64_t trace_events = 0;
};

GoldenRun RunModel(const model::LayerGraph& layer_graph, int minibatch,
                   int u, int fwd_min_packs,
                   const OptimizationFlags& flags = OptimizationFlags{},
                   const core::PolicyTable* policy = nullptr) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const model::SequentialModel model = model::Sequentialize(layer_graph);
  const profile::ProfileDb db =
      profile::Profiler(machine.gpu, {}).Profile(model);

  core::PackingOptions opts;
  opts.capacity = static_cast<Bytes>(machine.gpu.usable_memory() * 0.85);
  Configuration c;
  c.u_fwd = c.u_bwd = u;
  c.bwd_packs = core::BackwardPacks(u, db, opts).value();
  opts.min_packs = fwd_min_packs;
  c.fwd_packs = core::ForwardPacks(u, c.bwd_packs, db, opts).value();
  if (policy != nullptr) c.policy = *policy;

  const core::TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, minibatch, flags, db);

  HashSink sink;
  RuntimeOptions run_opts;
  run_opts.trace_sinks.push_back(&sink);
  const Runtime rt(machine, model);
  auto result = rt.Execute(g, run_opts);
  HARMONY_CHECK(result.ok()) << result.status();

  GoldenRun out;
  out.metrics = std::move(result).value();
  out.trace_hash = sink.hash();
  out.trace_events = sink.count();
  return out;
}

/// Renders the observed values as copy-pastable golden assertions (printed on
/// mismatch to re-record after an intentional behaviour change).
void PrintGoldens(const char* tag, const GoldenRun& r) {
  std::printf("  // goldens for %s\n", tag);
  std::printf("  EXPECT_EQ(BitsOf(r.metrics.iteration_time), 0x%llxull);\n",
              static_cast<unsigned long long>([&] {
                uint64_t u;
                std::memcpy(&u, &r.metrics.iteration_time, sizeof(u));
                return u;
              }()));
  std::printf("  EXPECT_EQ(r.metrics.total_swap(), %lld);\n",
              static_cast<long long>(r.metrics.total_swap()));
  std::printf("  EXPECT_EQ(r.metrics.evictions, %lld);\n",
              static_cast<long long>(r.metrics.evictions));
  std::printf("  EXPECT_EQ(r.metrics.clean_drops, %lld);\n",
              static_cast<long long>(r.metrics.clean_drops));
  std::printf("  EXPECT_EQ(r.trace_events, %lld);\n",
              static_cast<long long>(r.trace_events));
  std::printf("  EXPECT_EQ(r.trace_hash, 0x%llxull);\n",
              static_cast<unsigned long long>(r.trace_hash));
}

uint64_t BitsOf(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

TEST(GoldenParity, Bert96PipelineParallel) {
  const GoldenRun r = RunModel(model::Bert96(), 16, 4, 4);
  // Recorded from the pre-rewrite (std::map keys, from-scratch progressive
  // filling) pipeline; any drift means the rewrite changed behaviour.
  EXPECT_EQ(BitsOf(r.metrics.iteration_time), 0x401e52e4d6c655d1ull);
  EXPECT_EQ(r.metrics.total_swap(), 13321912336);
  EXPECT_EQ(r.metrics.evictions, 0);
  EXPECT_EQ(r.metrics.clean_drops, 0);
  EXPECT_EQ(r.trace_events, 5187);
  EXPECT_EQ(r.trace_hash, 0xc38e73c5bec9e999ull);
  if (HasFailure()) PrintGoldens("BERT96 pp mb16 u4", r);
}

TEST(GoldenParity, Gpt2PipelineParallel) {
  const GoldenRun r = RunModel(model::Gpt2(), 16, 4, 4);
  EXPECT_EQ(BitsOf(r.metrics.iteration_time), 0x4030e7336f16c287ull);
  EXPECT_EQ(r.metrics.total_swap(), 17599113472);
  EXPECT_EQ(r.metrics.evictions, 0);
  EXPECT_EQ(r.metrics.clean_drops, 0);
  EXPECT_EQ(r.trace_events, 3115);
  EXPECT_EQ(r.trace_hash, 0xa1371ea9955932abull);
  if (HasFailure()) PrintGoldens("GPT2 pp mb16 u4", r);
}

// ---------------------------------------------------------------------------
// Residency-policy parity: the default (empty) policy and the explicit uniform
// PolicyTables must lower to pinned, bit-identical executions. These cases
// prove the {keep, swap, recompute} refactor is a pure generalization — same
// goldens, no re-record.
// ---------------------------------------------------------------------------

TEST(GoldenParity, ExplicitRecomputeTableMatchesLegacyGoldens) {
  // An all-recompute table is the default an empty table resolves to: the
  // run must reproduce the exact pinned goldens above.
  const core::PolicyTable policy = core::PolicyTable::Uniform(
      model::Sequentialize(model::Bert96()).num_layers(),
      core::StashPolicy::kRecompute);
  const GoldenRun r =
      RunModel(model::Bert96(), 16, 4, 4, OptimizationFlags{}, &policy);
  EXPECT_EQ(BitsOf(r.metrics.iteration_time), 0x401e52e4d6c655d1ull);
  EXPECT_EQ(r.metrics.total_swap(), 13321912336);
  EXPECT_EQ(r.metrics.evictions, 0);
  EXPECT_EQ(r.metrics.clean_drops, 0);
  EXPECT_EQ(r.trace_events, 5187);
  EXPECT_EQ(r.trace_hash, 0xc38e73c5bec9e999ull);
  if (HasFailure()) PrintGoldens("BERT96 pp mb16 u4 recompute-all", r);
}

TEST(GoldenParity, ExplicitKeepTableMatchesLegacyNoRecompute) {
  // An all-keep table is the full-stash run (no recompute anywhere). Its
  // goldens predate the policy table and must hold without a re-record.
  const core::PolicyTable policy = core::PolicyTable::Uniform(
      model::Sequentialize(model::Gpt2()).num_layers(),
      core::StashPolicy::kKeep);
  const GoldenRun r =
      RunModel(model::Gpt2(), 16, 4, 4, OptimizationFlags{}, &policy);
  EXPECT_EQ(BitsOf(r.metrics.iteration_time), 0x4030a5f12c713a6cull);
  EXPECT_EQ(r.metrics.total_swap(), 261246871808);
  EXPECT_EQ(r.metrics.evictions, 185);
  EXPECT_EQ(r.metrics.clean_drops, 142);
  EXPECT_EQ(r.trace_events, 6145);
  EXPECT_EQ(r.trace_hash, 0xa65e4d967d703009ull);
  if (HasFailure()) PrintGoldens("GPT2 pp mb16 u4 keep-all", r);
}

}  // namespace
}  // namespace harmony::runtime
