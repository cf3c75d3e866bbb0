// Quickstart: schedule and "run" one training iteration of a large model
// with Harmony on a simulated commodity 4-GPU server.
//
//   1. Pick a model whose training footprint exceeds all GPU memory combined.
//   2. Profile it, search the configuration space (Algorithm 1) and emit
//      a wrap-around pipeline task graph.
//   3. Execute the graph on the Runtime and inspect throughput + swap load.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <iostream>

#include "core/search.h"
#include "core/task_graph.h"
#include "model/memory.h"
#include "runtime/runtime.h"
#include "serve/profiled_model.h"

int main() {
  using namespace harmony;

  // The deployment: four 11 GB GTX-1080Ti GPUs behind a PCIe tree.
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  std::cout << "Machine: " << machine.name << "\n";

  // The workload: GPT-2 (1.5B parameters). Training it with Adam needs
  // weights + gradients + optimizer state + activations -- far more than the
  // 44 GB the four GPUs offer together.
  // Profile it on the deployment's GPU (Fig 3's Profiler).
  const serve::ProfiledModel pm =
      serve::ProfileModel(serve::ModelSpec::FromName("GPT2").value(),
                          machine.PlanningGpu())
          .value();
  const model::SequentialModel& m = pm.model;
  const auto footprint = model::ComputeFootprint(
      m, /*minibatch=*/32, model::Optimizer::kAdam,
      model::PolicyTable::Uniform(m.num_layers(), model::StashPolicy::kKeep));
  std::cout << "Model: " << m.model_name << " ("
            << FormatBytes(m.total_param_bytes()) << " of weights)\n"
            << "Training footprint at minibatch 32: "
            << FormatBytes(footprint.total()) << " vs "
            << FormatBytes(4 * machine.gpu.memory_capacity)
            << " of total GPU memory\n\n";

  // Schedule: configuration search -> task graph (Fig 3).
  const auto mode = core::HarmonyMode::kPipelineParallel;
  const auto found = core::SearchConfiguration(pm.profiles, machine, mode,
                                               /*minibatch=*/32, {}, {});
  if (!found.ok()) {
    std::cerr << "scheduling failed: " << found.status() << "\n";
    return 1;
  }
  const auto& best = found.value().best;
  std::cout << "Best configuration " << best.ToString() << " found in "
            << found.value().search_wall_seconds << "s ("
            << found.value().configs_explored << " configs)\n";
  std::cout << "  P_F: " << core::PackListToString(best.fwd_packs) << "\n";
  std::cout << "  P_B: " << core::PackListToString(best.bwd_packs) << "\n\n";

  // Execute one iteration on the simulated deployment.
  const runtime::Runtime rt(machine, m);
  const auto metrics = rt.Execute(core::GenerateHarmonyTaskGraph(
      best, mode, machine.num_gpus, /*minibatch=*/32, {}, pm.profiles));
  if (!metrics.ok()) {
    std::cerr << "execution failed: " << metrics.status() << "\n";
    return 1;
  }
  const auto& mm = metrics.value();
  std::cout << "Iteration time: " << FormatTime(mm.iteration_time) << "  ("
            << mm.Throughput(32) << " samples/s)\n";
  std::cout << "Swap load:      " << FormatBytes(mm.total_swap())
            << " total, worst GPU " << FormatBytes(mm.max_device_swap()) << "\n";
  std::cout << "p2p traffic:    ";
  Bytes p2p = 0;
  for (Bytes b : mm.p2p_bytes) p2p += b;
  std::cout << FormatBytes(p2p) << "\n";
  std::cout << "Peak host use:  " << FormatBytes(mm.peak_host_bytes) << "\n";
  return 0;
}
