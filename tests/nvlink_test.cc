// NVLink extension tests: the paper's footnote 3 claims "NVLink will only
// enhance Harmony's advantages due to p2p transfers". These tests check the
// interconnect model and the end-to-end consequence.

#include <gtest/gtest.h>

#include "core/packing.h"
#include "model/models.h"
#include "runtime/runtime.h"
#include "sim/network.h"
#include "reference_plan.h"

namespace harmony {
namespace {

TEST(Nvlink, P2pBypassesPcieTree) {
  const hw::MachineSpec m =
      hw::MachineSpec::Commodity4Gpu().WithNvlink(GiBps(22));
  sim::Interconnect net(m);
  // NVLink p2p uses dedicated ports (2 hops) even across switches.
  EXPECT_EQ(net.P2pPath(0, 2).size(), 2u);
  // Swaps still traverse the PCIe tree.
  EXPECT_EQ(net.SwapInPath(0).size(), 3u);
}

TEST(Nvlink, P2pDoesNotContendWithSwaps) {
  sim::Engine e;
  const hw::MachineSpec m =
      hw::MachineSpec::Commodity4Gpu().WithNvlink(GiBps(22));
  sim::Interconnect net(m);
  sim::FlowNetwork flows(&e, net.capacities());
  double p2p_done = -1;
  flows.StartFlow(net.P2pPath(0, 1), GiB(11), [&] { p2p_done = e.now(); });
  for (int g = 0; g < 4; ++g) flows.StartFlow(net.SwapInPath(g), GiB(50), [] {});
  e.Run();
  EXPECT_NEAR(p2p_done, static_cast<double>(GiB(11)) / GiBps(22), 1e-3);
}

TEST(Nvlink, HarmonyPpNoSlowerWithNvlink) {
  hw::MachineSpec pcie = hw::MachineSpec::Commodity4Gpu();
  pcie.gpu.memory_capacity = MiB(512);
  const hw::MachineSpec nvlink = pcie.WithNvlink(GiBps(22));
  const model::SequentialModel model =
      model::Sequentialize(model::TinyTransformer(16, 512, 128));
  core::SearchOptions search;
  search.u_fwd_max = 2;
  search.u_bwd_max = 2;
  const auto outcome = reference::PlanFresh(
      model, pcie, core::HarmonyMode::kPipelineParallel, 16, {}, search);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  const auto run = [&](const hw::MachineSpec& machine) {
    const runtime::Runtime rt(machine, model);
    auto metrics = rt.Execute(outcome.value().graph);
    HARMONY_CHECK(metrics.ok()) << metrics.status();
    return metrics.value();
  };
  const auto on_pcie = run(pcie);
  const auto on_nvlink = run(nvlink);
  EXPECT_LE(on_nvlink.iteration_time, on_pcie.iteration_time + 1e-9);
  // Same schedule, near-identical traffic — faster p2p can shift eviction
  // timing slightly, but not the order of magnitude.
  EXPECT_NEAR(static_cast<double>(on_nvlink.total_swap()),
              static_cast<double>(on_pcie.total_swap()),
              0.1 * static_cast<double>(on_pcie.total_swap()));
}

}  // namespace
}  // namespace harmony
