#include <gtest/gtest.h>

#include "model/cost_model.h"
#include "model/memory.h"
#include "model/models.h"

namespace harmony::model {
namespace {

double Billions(Bytes param_bytes) {
  return static_cast<double>(param_bytes) / 4.0 / 1e9;
}

/// The full-stash table: every layer keeps its activations (no recompute).
PolicyTable KeepAll(const SequentialModel& m) {
  return PolicyTable::Uniform(m.num_layers(), StashPolicy::kKeep);
}

TEST(Models, LayerCountsMatchPaperTables) {
  // Table 5's pack indices imply these layer counts.
  EXPECT_EQ(Gpt2().num_layers(), 52);       // L0..L51
  EXPECT_EQ(Bert96().num_layers(), 100);    // L0..L99
  EXPECT_EQ(Vgg416().num_layers(), 417);    // L0..L416
  EXPECT_EQ(ResNet1K().num_layers(), 1030); // L0..L1029
}

TEST(Models, ParameterCounts) {
  EXPECT_NEAR(Billions(Gpt2().total_param_bytes()), 1.56, 0.1);
  EXPECT_NEAR(Billions(Gpt2Medium().total_param_bytes()), 0.37, 0.07);
  EXPECT_NEAR(Billions(BertLarge().total_param_bytes()), 0.34, 0.04);
  EXPECT_NEAR(Billions(Bert96().total_param_bytes()), 1.25, 0.1);
}

TEST(Models, CustomGpt2HitsTargetSizes) {
  for (double billions : {10.0, 20.0, 30.0, 40.0}) {
    const LayerGraph g = Gpt2Custom(billions);
    EXPECT_NEAR(Billions(g.total_param_bytes()), billions, 0.06 * billions)
        << g.model_name;
  }
}

TEST(Models, CnnsHaveDiverseLayers) {
  // The paper stresses that CNNs have much more diverse per-layer
  // characteristics than transformers (Sec 5.1 / Table 1 discussion).
  // Compare the bulk compute layers: conv sizes span orders of magnitude
  // while transformer blocks are identical.
  const auto diversity = [](const LayerGraph& g, LayerKind kind) {
    Bytes mn = -1, mx = 0;
    for (const auto& l : g.layers) {
      if (l.kind != kind || l.param_bytes == 0) continue;
      mn = mn < 0 ? l.param_bytes : std::min(mn, l.param_bytes);
      mx = std::max(mx, l.param_bytes);
    }
    return static_cast<double>(mx) / static_cast<double>(mn);
  };
  EXPECT_GT(diversity(Vgg416(), LayerKind::kConv), 100.0);
  EXPECT_GT(diversity(ResNet1K(), LayerKind::kConv), 100.0);
  EXPECT_DOUBLE_EQ(diversity(Gpt2(), LayerKind::kTransformerBlock), 1.0);
}

TEST(Models, ResNetHasBranches) {
  const LayerGraph g = ResNet1K();
  EXPECT_EQ(g.branches.size(), 342u);  // one skip per bottleneck block
  for (const auto& b : g.branches) {
    EXPECT_LT(b.src + 1, b.dst);
    EXPECT_GT(b.bytes_per_sample, 0);
  }
}

TEST(Sequentialize, RelaysBranchTensors) {
  // Hand-built graph: 5 layers with a branch 0 -> 3 of 100 bytes.
  LayerGraph g;
  g.model_name = "toy";
  for (int i = 0; i < 5; ++i) {
    LayerSpec l;
    l.name = "l" + std::to_string(i);
    l.output_bytes_per_sample = 10;
    l.input_bytes_per_sample = 10;
    g.layers.push_back(l);
  }
  g.branches.push_back(BranchEdge{0, 3, 100});
  const SequentialModel seq = Sequentialize(g);
  // Boundaries (1,2) and (2,3) carry the extra 100 bytes: output side of
  // layers 1 and 2.
  EXPECT_EQ(seq.layers[0].relay_bytes_per_sample, 0);
  EXPECT_EQ(seq.layers[1].relay_bytes_per_sample, 100);
  EXPECT_EQ(seq.layers[2].relay_bytes_per_sample, 100);
  EXPECT_EQ(seq.layers[3].relay_bytes_per_sample, 0);
  EXPECT_EQ(seq.layers[1].boundary_out_bytes(), 110);
}

TEST(Sequentialize, ResNetRelayVolumeBounded) {
  const SequentialModel seq = Sequentialize(ResNet1K());
  Bytes relay = 0, act = 0;
  for (const auto& l : seq.layers) {
    relay += l.relay_bytes_per_sample;
    act += l.spec.output_bytes_per_sample;
  }
  EXPECT_GT(relay, 0);
  EXPECT_LT(relay, 2 * act);  // relaying doubles at most the activation flow
}

TEST(CostModel, TimeIncreasesWithMicrobatch) {
  const CostModel cost(hw::GpuSpec{});
  const LayerSpec block = Gpt2().layers[1];
  TimeSec prev = 0;
  for (int u : {1, 2, 4, 8, 16}) {
    const TimeSec t = cost.FwdTime(block, u);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModel, BackwardCostsMoreThanForward) {
  const CostModel cost(hw::GpuSpec{});
  for (const auto& layer : Gpt2().layers) {
    EXPECT_GE(cost.BwdTime(layer, 4), cost.FwdTime(layer, 4)) << layer.name;
  }
}

TEST(CostModel, EfficiencyImprovesWithBatching) {
  // Per-sample time shrinks as u grows (arithmetic intensity — the physics
  // behind input-batch grouping).
  const CostModel cost(hw::GpuSpec{});
  const LayerSpec conv = Vgg416().layers[0];
  const double per_sample_1 = cost.FwdTime(conv, 1);
  const double per_sample_16 = cost.FwdTime(conv, 16) / 16.0;
  EXPECT_LT(per_sample_16, per_sample_1);
}

TEST(CostModel, TransformerBlockTimeIsPlausible) {
  // GPT2 block at u=1: ~60 GFLOP at ~40% of 11.34 TFLOP/s => 10-30 ms.
  const CostModel cost(hw::GpuSpec{});
  const TimeSec t = cost.FwdTime(Gpt2().layers[1], 1);
  EXPECT_GT(t, 5e-3);
  EXPECT_LT(t, 50e-3);
}

TEST(Memory, FootprintBreakdownGpt2) {
  const SequentialModel m = Sequentialize(Gpt2());
  const MemoryFootprint f =
      ComputeFootprint(m, /*minibatch=*/8, Optimizer::kAdam, KeepAll(m));
  // Weights ~5.8 GiB; gradients equal; Adam state 2x.
  EXPECT_NEAR(static_cast<double>(f.weights) / GiB(1), 5.8, 0.3);
  EXPECT_EQ(f.gradients, f.weights);
  EXPECT_EQ(f.optimizer_state, 2 * f.weights);
  EXPECT_GT(f.activations, f.weights);  // activations dominate at batch 8
  // Total far exceeds a single 11 GB GPU and the 44 GB aggregate (the
  // paper's core premise).
  EXPECT_GT(f.total(), GiB(44));
}

TEST(Memory, RecomputeShrinksActivations) {
  const SequentialModel m = Sequentialize(Bert96());
  const auto full = ComputeFootprint(m, 16, Optimizer::kAdam, KeepAll(m));
  const auto ckpt = ComputeFootprint(
      m, 16, Optimizer::kAdam,
      PolicyTable::Uniform(m.num_layers(), StashPolicy::kRecompute));
  EXPECT_LT(ckpt.activations, full.activations / 4);
  EXPECT_EQ(ckpt.weights, full.weights);
}

TEST(Memory, FootprintGrowsLinearlyWithBatch) {
  const SequentialModel m = Sequentialize(Gpt2());
  const auto f8 = ComputeFootprint(m, 8, Optimizer::kAdam, KeepAll(m));
  const auto f16 = ComputeFootprint(m, 16, Optimizer::kAdam, KeepAll(m));
  EXPECT_EQ(f16.activations, 2 * f8.activations);
  EXPECT_EQ(f16.weights, f8.weights);
}

TEST(Memory, SgdStateSmallerThanAdam) {
  const SequentialModel m = Sequentialize(Vgg416());
  const auto adam = ComputeFootprint(m, 8, Optimizer::kAdam, KeepAll(m));
  const auto sgd = ComputeFootprint(m, 8, Optimizer::kSgdMomentum, KeepAll(m));
  EXPECT_EQ(sgd.optimizer_state * 2, adam.optimizer_state);
}

}  // namespace
}  // namespace harmony::model
