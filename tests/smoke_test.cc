#include <gtest/gtest.h>

#include "model/models.h"
#include "runtime/runtime.h"
#include "reference_plan.h"

namespace harmony {
namespace {

TEST(Smoke, TinyTransformerEndToEnd) {
  hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  // Shrink the GPU so the tiny model still exercises packing & swapping.
  machine.gpu.memory_capacity = MiB(512);
  const model::SequentialModel m = model::Sequentialize(model::TinyTransformer(16, 512, 128));

  core::SearchOptions search;
  search.u_fwd_max = 2;
  search.u_bwd_max = 2;
  auto outcome = reference::PlanFresh(
      m, machine, core::HarmonyMode::kPipelineParallel, /*minibatch=*/8,
      core::OptimizationFlags{}, search);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const auto& best = outcome.value().search.best;
  EXPECT_GE(best.bwd_packs.size(), 1u);
  EXPECT_GT(outcome.value().search.best_estimate.iteration_time, 0.0);

  const runtime::Runtime rt(machine, m);
  auto metrics = rt.Execute(outcome.value().graph);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics.value().iteration_time, 0.0);
  EXPECT_GT(metrics.value().total_swap(), 0);
}

TEST(Smoke, HarmonyDpEndToEnd) {
  hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  machine.gpu.memory_capacity = MiB(512);
  const model::SequentialModel m = model::Sequentialize(model::TinyTransformer(16, 512, 128));

  core::SearchOptions search;
  search.u_fwd_max = 2;
  search.u_bwd_max = 2;
  auto outcome = reference::PlanFresh(
      m, machine, core::HarmonyMode::kDataParallel, /*minibatch=*/8,
      core::OptimizationFlags{}, search);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  const runtime::Runtime rt(machine, m);
  auto metrics = rt.Execute(outcome.value().graph);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics.value().iteration_time, 0.0);
}

}  // namespace
}  // namespace harmony
