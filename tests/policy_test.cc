// Tests for the per-layer residency-policy axis (DESIGN.md §12): the
// PolicyTable type itself, the per-layer cost accounting behind the greedy
// dominance rule, the policy-aware memory footprint, estimator parity for
// the two legacy-equivalent uniform tables, and the policy-mode search axis
// — including the hybrid-beats-uniform property on a long-sequence workload
// (EXPERIMENTS.md "Residency policy").

#include <gtest/gtest.h>

#include <string>

#include "core/estimator.h"
#include "core/packing.h"
#include "core/search.h"
#include "core/task_graph.h"
#include "model/memory.h"
#include "model/models.h"
#include "model/policy.h"
#include "profile/profiler.h"

namespace harmony {
namespace {

using core::Configuration;
using core::HarmonyMode;
using core::OptimizationFlags;
using core::PolicyMode;
using model::PolicyTable;
using model::StashPolicy;

// ---------------------------------------------------------------------------
// PolicyTable
// ---------------------------------------------------------------------------

TEST(PolicyTable, UniformAndLegacy) {
  const PolicyTable r = PolicyTable::Uniform(5, StashPolicy::kRecompute);
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.num_layers(), 5);
  EXPECT_TRUE(r.IsUniform(StashPolicy::kRecompute));
  EXPECT_EQ(r.Count(StashPolicy::kRecompute), 5);
  EXPECT_EQ(r.Count(StashPolicy::kKeep), 0);

  // The empty table is uniform in nothing: it means "the generator's
  // default", resolved only when a task graph is generated.
  EXPECT_TRUE(PolicyTable().empty());
  EXPECT_FALSE(PolicyTable().IsUniform(StashPolicy::kKeep));
}

TEST(PolicyTable, SetAndAt) {
  PolicyTable t = PolicyTable::Uniform(4, StashPolicy::kKeep);
  t.Set(2, StashPolicy::kSwap);
  EXPECT_EQ(t.at(2), StashPolicy::kSwap);
  EXPECT_EQ(t.at(1), StashPolicy::kKeep);
  EXPECT_FALSE(t.IsUniform(StashPolicy::kKeep));
  EXPECT_EQ(t.Count(StashPolicy::kSwap), 1);
}

TEST(PolicyTable, RleRoundTrip) {
  PolicyTable t = PolicyTable::Uniform(10, StashPolicy::kRecompute);
  t.Set(0, StashPolicy::kKeep);
  t.Set(4, StashPolicy::kSwap);
  t.Set(5, StashPolicy::kSwap);
  const std::string s = t.ToString();
  EXPECT_EQ(s, "k0,r1-3,s4-5,r6-9");
  const auto back = PolicyTable::FromString(s);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value(), t);

  // Empty round trip.
  EXPECT_EQ(PolicyTable().ToString(), "");
  const auto empty = PolicyTable::FromString("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());

  // Uniform tables collapse to a single run.
  EXPECT_EQ(PolicyTable::Uniform(96, StashPolicy::kRecompute).ToString(),
            "r0-95");
  EXPECT_EQ(PolicyTable::Uniform(1, StashPolicy::kSwap).ToString(), "s0");
}

TEST(PolicyTable, FromStringRejectsMalformed) {
  EXPECT_FALSE(PolicyTable::FromString("x0-3").ok());       // unknown code
  EXPECT_FALSE(PolicyTable::FromString("k2-4").ok());       // hole before 2
  EXPECT_FALSE(PolicyTable::FromString("k0-3,r6-9").ok());  // gap 4-5
  EXPECT_FALSE(PolicyTable::FromString("k0-3,r2-9").ok());  // overlap
  EXPECT_FALSE(PolicyTable::FromString("k0-3,").ok());      // trailing comma
  EXPECT_FALSE(PolicyTable::FromString("k3-0").ok());       // inverted run
  EXPECT_FALSE(PolicyTable::FromString("keep").ok());       // word, not RLE
}

// ---------------------------------------------------------------------------
// Per-layer cost accounting + greedy dominance
// ---------------------------------------------------------------------------

TEST(ResidencyCost, DominancePicksTheCheaperSide) {
  model::LayerResidencyCost stash_free;
  stash_free.stash_bytes = 0;
  EXPECT_EQ(model::DominantPolicy(stash_free), StashPolicy::kKeep);

  model::LayerResidencyCost cheap_recompute;
  cheap_recompute.stash_bytes = GiB(1);
  cheap_recompute.recompute_time = 1e-3;
  cheap_recompute.swap_stall = 5e-3;
  EXPECT_EQ(model::DominantPolicy(cheap_recompute), StashPolicy::kRecompute);

  model::LayerResidencyCost cheap_swap;
  cheap_swap.stash_bytes = MiB(1);
  cheap_swap.recompute_time = 5e-3;
  cheap_swap.swap_stall = 1e-4;
  EXPECT_EQ(model::DominantPolicy(cheap_swap), StashPolicy::kSwap);
}

TEST(ResidencyCost, ScalesWithMicrobatchAndLink) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const model::SequentialModel m =
      model::Sequentialize(model::TinyTransformer(4));
  const model::CostModel cost(machine.gpu);
  // Pick a layer that actually stashes.
  int layer = -1;
  for (int l = 0; l < m.num_layers(); ++l) {
    if (m.layers[l].spec.stash_bytes_per_sample > 0) {
      layer = l;
      break;
    }
  }
  ASSERT_GE(layer, 0);
  const auto c2 = model::ResidencyCost(cost, m.layers[layer].spec, 2,
                                       machine.pcie_bw);
  const auto c4 = model::ResidencyCost(cost, m.layers[layer].spec, 4,
                                       machine.pcie_bw);
  EXPECT_EQ(c4.stash_bytes, 2 * c2.stash_bytes);
  EXPECT_GT(c4.recompute_time, c2.recompute_time);
  EXPECT_DOUBLE_EQ(c4.swap_stall, 2 * c2.swap_stall);
  // A slower link doubles the stall but leaves recompute untouched.
  const auto slow = model::ResidencyCost(cost, m.layers[layer].spec, 2,
                                         machine.pcie_bw / 2);
  EXPECT_DOUBLE_EQ(slow.swap_stall, 2 * c2.swap_stall);
  EXPECT_DOUBLE_EQ(slow.recompute_time, c2.recompute_time);
}

// ---------------------------------------------------------------------------
// Policy-aware memory footprint
// ---------------------------------------------------------------------------

TEST(Footprint, PolicyOverloadMatchesLegacyBools) {
  const model::SequentialModel m =
      model::Sequentialize(model::TinyTransformer(8));
  const int R = m.num_layers();
  for (const int mb : {1, 8}) {
    const auto table_r = model::ComputeFootprint(
        m, mb, model::Optimizer::kAdam,
        PolicyTable::Uniform(R, StashPolicy::kRecompute));
    const auto table_k = model::ComputeFootprint(
        m, mb, model::Optimizer::kAdam,
        PolicyTable::Uniform(R, StashPolicy::kKeep));

    // A mixed table sits strictly between the two uniform bounds whenever
    // keep and recompute actually differ.
    PolicyTable mixed = PolicyTable::Uniform(R, StashPolicy::kRecompute);
    for (int l = 0; l < R / 2; ++l) mixed.Set(l, StashPolicy::kKeep);
    const auto mid =
        model::ComputeFootprint(m, mb, model::Optimizer::kAdam, mixed);
    EXPECT_GE(mid.activations, table_r.activations);
    EXPECT_LE(mid.activations, table_k.activations);
    if (table_k.activations > table_r.activations) {
      EXPECT_GT(mid.activations, table_r.activations);
      EXPECT_LT(mid.activations, table_k.activations);
    }
  }
}

// ---------------------------------------------------------------------------
// Estimator parity + policy pricing
// ---------------------------------------------------------------------------

struct EstimateSetup {
  hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  model::SequentialModel model;
  profile::ProfileDb db;
  Configuration config;

  explicit EstimateSetup(int blocks = 16, int u = 2)
      : model(model::Sequentialize(model::TinyTransformer(blocks, 512, 128))),
        db(profile::Profiler(machine.gpu, {}).Profile(model)) {
    core::PackingOptions opts;
    opts.capacity = MiB(512);
    config.u_fwd = config.u_bwd = u;
    config.bwd_packs = core::BackwardPacks(u, db, opts).value();
    opts.min_packs = 4;
    config.fwd_packs =
        core::ForwardPacks(u, config.bwd_packs, db, opts).value();
  }

  core::Estimate Estimate(const OptimizationFlags& flags,
                          const PolicyTable& policy) const {
    Configuration c = config;
    c.policy = policy;
    const core::TaskGraph g = core::GenerateHarmonyTaskGraph(
        c, HarmonyMode::kPipelineParallel, 4, 8, flags, db);
    return core::RuntimeEstimator(db, machine).EstimateIteration(g);
  }
};

TEST(EstimatorPolicy, UniformTablesMatchLegacyBitForBit) {
  const EstimateSetup s;
  const int R = s.db.num_layers();

  const core::Estimate legacy_r = s.Estimate(OptimizationFlags{}, {});
  const core::Estimate table_r = s.Estimate(
      OptimizationFlags{}, PolicyTable::Uniform(R, StashPolicy::kRecompute));
  EXPECT_EQ(legacy_r.iteration_time, table_r.iteration_time);
  EXPECT_EQ(legacy_r.swap_bytes, table_r.swap_bytes);
  EXPECT_EQ(legacy_r.p2p_bytes, table_r.p2p_bytes);
}

TEST(EstimatorPolicy, SwapChargesTrafficKeepDoesNot) {
  const EstimateSetup s;
  const int R = s.db.num_layers();
  const core::Estimate keep =
      s.Estimate(OptimizationFlags{}, PolicyTable::Uniform(R, StashPolicy::kKeep));
  const core::Estimate swap =
      s.Estimate(OptimizationFlags{}, PolicyTable::Uniform(R, StashPolicy::kSwap));
  // Swapping the stash moves strictly more bytes over the host link than
  // keeping it resident, and the backward's blocking fetch can only slow the
  // iteration down.
  EXPECT_GT(swap.swap_bytes, keep.swap_bytes);
  EXPECT_GE(swap.iteration_time, keep.iteration_time);
}

TEST(EstimatorPolicy, RecomputeTradesTrafficForCompute) {
  const EstimateSetup s;
  const int R = s.db.num_layers();
  const core::Estimate remat = s.Estimate(
      OptimizationFlags{}, PolicyTable::Uniform(R, StashPolicy::kRecompute));
  const core::Estimate swap = s.Estimate(
      OptimizationFlags{}, PolicyTable::Uniform(R, StashPolicy::kSwap));
  EXPECT_LT(remat.swap_bytes, swap.swap_bytes);
}

// ---------------------------------------------------------------------------
// Search: the policy axis
// ---------------------------------------------------------------------------

TEST(PolicyMode, NamesRoundTrip) {
  for (const PolicyMode mode :
       {PolicyMode::kLegacy, PolicyMode::kRecomputeAll, PolicyMode::kKeepAll,
        PolicyMode::kSwapAll, PolicyMode::kHybridGreedy, PolicyMode::kSweep}) {
    const auto back = core::PolicyModeFromName(core::PolicyModeName(mode));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back.value(), mode);
  }
  EXPECT_FALSE(core::PolicyModeFromName("checkpoint").ok());
  EXPECT_FALSE(core::PolicyModeFromName("").ok());
}

struct SearchSetup {
  hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  model::SequentialModel model;
  profile::ProfileDb db;

  explicit SearchSetup(const model::LayerGraph& g)
      : model(model::Sequentialize(g)),
        db(profile::Profiler(machine.gpu, {}).Profile(model)) {}

  core::SearchResult Search(PolicyMode mode, int minibatch = 8) const {
    core::SearchOptions so;
    so.policy_mode = mode;
    so.u_fwd_max = 8;
    so.u_bwd_max = 8;
    const auto r = core::SearchConfiguration(
        db, machine, HarmonyMode::kPipelineParallel, minibatch, {}, so);
    HARMONY_CHECK(r.ok()) << r.status();
    return r.value();
  }
};

TEST(SearchPolicy, LegacyAndRecomputeAllAgreeOnTheWinner) {
  const SearchSetup s(model::TinyTransformer(16, 512, 128));
  const core::SearchResult legacy = s.Search(PolicyMode::kLegacy);
  const core::SearchResult remat = s.Search(PolicyMode::kRecomputeAll);
  // Same plan and same estimate: all-recompute is what legacy lowers to.
  EXPECT_EQ(legacy.best.u_fwd, remat.best.u_fwd);
  EXPECT_EQ(legacy.best.u_bwd, remat.best.u_bwd);
  EXPECT_EQ(legacy.best_estimate.iteration_time,
            remat.best_estimate.iteration_time);
  EXPECT_EQ(legacy.configs_explored, remat.configs_explored);
  // But the explicit mode records its table on the winner.
  EXPECT_TRUE(legacy.best.policy.empty());
  EXPECT_TRUE(remat.best.policy.IsUniform(StashPolicy::kRecompute));
}

TEST(SearchPolicy, SweepTriplesTheExploredSpace) {
  const SearchSetup s(model::TinyTransformer(16, 512, 128));
  const core::SearchResult legacy = s.Search(PolicyMode::kLegacy);
  const core::SearchResult sweep = s.Search(PolicyMode::kSweep);
  EXPECT_EQ(sweep.configs_explored, 3 * legacy.configs_explored);
  // The sweep can only improve on any single uniform mode it contains.
  EXPECT_LE(sweep.best_estimate.iteration_time,
            legacy.best_estimate.iteration_time);
}

TEST(SearchPolicy, HybridBeatsBothUniformPoliciesOnLongSequences) {
  // The EXPERIMENTS.md "Residency policy" workload: a long-sequence GPT2
  // variant. Attention stash grows with seq^2 while the re-forward grows
  // about linearly per token, so neither uniform table is optimal: cheap
  // fat-stash layers want recompute, expensive lean-stash layers want swap.
  model::TransformerConfig cfg;
  cfg.name = "GPT2-seq4k";
  cfg.num_blocks = 24;
  cfg.hidden = 1024;
  cfg.seq_len = 4096;
  cfg.heads = 16;
  cfg.vocab = 50257;
  const SearchSetup s(model::BuildTransformer(cfg));

  const core::SearchResult swap_only = s.Search(PolicyMode::kSwapAll);
  const core::SearchResult remat_only = s.Search(PolicyMode::kRecomputeAll);
  const core::SearchResult sweep = s.Search(PolicyMode::kSweep);

  // Acceptance (ISSUE 7): the policy-axis search finds a hybrid plan that
  // strictly beats both uniform extremes on this workload.
  EXPECT_LT(sweep.best_estimate.iteration_time,
            swap_only.best_estimate.iteration_time);
  EXPECT_LT(sweep.best_estimate.iteration_time,
            remat_only.best_estimate.iteration_time);
  // And the winner really is mixed, not one of the uniforms in disguise.
  EXPECT_FALSE(sweep.best.policy.empty());
  EXPECT_FALSE(sweep.best.policy.IsUniform(StashPolicy::kRecompute));
  EXPECT_FALSE(sweep.best.policy.IsUniform(StashPolicy::kSwap));
  EXPECT_FALSE(sweep.best.policy.IsUniform(StashPolicy::kKeep));
}

TEST(SearchPolicy, ThreadCountDoesNotChangeTheSweepWinner) {
  const SearchSetup s(model::TinyTransformer(16, 512, 128));
  core::SearchOptions serial;
  serial.policy_mode = PolicyMode::kSweep;
  serial.u_fwd_max = 8;
  serial.u_bwd_max = 8;
  core::SearchOptions threaded = serial;
  threaded.num_threads = 4;
  const auto a = core::SearchConfiguration(
      s.db, s.machine, HarmonyMode::kPipelineParallel, 8, {}, serial);
  const auto b = core::SearchConfiguration(
      s.db, s.machine, HarmonyMode::kPipelineParallel, 8, {}, threaded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().best.ToString(), b.value().best.ToString());
  EXPECT_EQ(a.value().best_estimate.iteration_time,
            b.value().best_estimate.iteration_time);
  EXPECT_EQ(a.value().configs_feasible, b.value().configs_feasible);
}

}  // namespace
}  // namespace harmony
