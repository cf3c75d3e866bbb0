// Training a 40-billion-parameter GPT-2 variant at the limit of host memory
// (the Sec 5.7 scenario): on an 8-GPU commodity server, Harmony schedules
// and executes a model whose optimizer state alone dwarfs all GPU memory,
// while a ZeRO-Infinity-style baseline exhausts host RAM.
//
// Build & run:  cmake --build build && ./build/examples/massive_model

#include <iostream>

#include "baselines/baselines.h"
#include "core/search.h"
#include "core/task_graph.h"
#include "model/memory.h"
#include "runtime/runtime.h"
#include "serve/profiled_model.h"

int main() {
  using namespace harmony;
  const hw::MachineSpec machine = hw::MachineSpec::Commodity8Gpu();
  const serve::ProfiledModel pm =
      serve::ProfileModel(serve::ModelSpec::FromName("GPT2-40B").value(),
                          machine.PlanningGpu())
          .value();
  const model::SequentialModel& m = pm.model;
  const int minibatch = 32;

  std::cout << "Model: " << m.model_name << " — "
            << FormatBytes(m.total_param_bytes()) << " of weights; with Adam "
            << "state and gradients the master copy alone is "
            << FormatBytes(4 * m.total_param_bytes()) << "\n";
  std::cout << "Machine: " << machine.name << " ("
            << FormatBytes(machine.host_memory) << " host memory)\n\n";

  core::SearchOptions search;
  search.u_fwd_max = 8;
  search.u_bwd_max = 8;

  for (auto mode : {core::HarmonyMode::kPipelineParallel,
                    core::HarmonyMode::kDataParallel}) {
    const auto found = core::SearchConfiguration(pm.profiles, machine, mode,
                                                 minibatch, {}, search);
    if (!found.ok()) {
      std::cout << HarmonyModeName(mode) << ": " << found.status() << "\n";
      continue;
    }
    const runtime::Runtime rt(machine, m);
    const auto metrics = rt.Execute(core::GenerateHarmonyTaskGraph(
        found.value().best, mode, machine.num_gpus, minibatch, {},
        pm.profiles));
    if (!metrics.ok()) {
      std::cout << HarmonyModeName(mode) << ": " << metrics.status() << "\n";
      continue;
    }
    std::cout << HarmonyModeName(mode) << ": config "
              << found.value().best.ToString() << "\n  "
              << metrics.value().Throughput(minibatch) << " samples/s, swap "
              << FormatBytes(metrics.value().total_swap()) << ", peak host "
              << FormatBytes(metrics.value().peak_host_bytes) << "\n";
  }

  // The ZeRO-Infinity-style baseline needs pinned staging buffers on top of
  // the master state — which no longer fits.
  {
    const auto dp = core::SearchConfiguration(
        pm.profiles, machine, core::HarmonyMode::kDataParallel, minibatch, {},
        search);
    if (dp.ok()) {
      const auto g = baselines::ZeroInfinity(pm.profiles, dp.value().best,
                                             machine.num_gpus, minibatch);
      runtime::RuntimeOptions ro;
      ro.host_static_overhead = baselines::ZeroInfinityHostOverhead(m);
      const runtime::Runtime rt(machine, m);
      const auto metrics = rt.Execute(g, ro);
      std::cout << "ZeRO-Infinity: "
                << (metrics.ok() ? "trained (unexpected!)"
                                 : metrics.status().ToString())
                << "\n";
    }
  }
  return 0;
}
