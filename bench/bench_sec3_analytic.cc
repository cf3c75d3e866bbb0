// Validates the analytical swap-volume example of Section 3: for a uniform
// model where each GPU can hold roughly one layer's task at a time, weight
// swap volume per iteration is ~(4m+2)N|W| for DP with per-GPU swapping,
// ~3N|W| for Harmony DP and ~3|W| for Harmony PP.

#include <iostream>

#include "bench/bench_common.h"
#include "common/table.h"
#include "core/packing.h"

namespace harmony::bench {
namespace {

void Run() {
  PrintHeader("Analytical swap-volume comparison on a uniform model",
              "Section 3 (Figure 5's intuition)");
  hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  machine.gpu.memory_capacity = GiB(1);
  const serve::ProfiledModel pm = Prepare("GPT2-Medium", machine);
  // GPT2-Medium on a 1 GiB GPU: one transformer block's task saturates the
  // device, the regime of the paper's toy example.
  const int minibatch = 32;
  const int n = machine.num_gpus;
  const Bytes w = pm.model.total_param_bytes();

  // Harmony configs at U = 2: m = minibatch / (N * U) microbatches per GPU.
  core::PackingOptions popts;
  popts.capacity = static_cast<Bytes>(machine.gpu.usable_memory() * 0.85);
  core::Configuration config;
  config.u_fwd = config.u_bwd = 2;
  config.bwd_packs = core::BackwardPacks(2, pm.profiles, popts).value();
  config.fwd_packs =
      core::ForwardPacks(2, config.bwd_packs, pm.profiles, popts).value();
  const int m = minibatch / (n * 2);

  Table t({"scheme", "measured swap (GiB)", "in units of |W|",
           "analytic model", "analytic (GiB)"});
  auto add = [&](const std::string& name, const runtime::RunMetrics& mm,
                 const std::string& formula, double analytic_w) {
    t.AddRow({name,
              Table::Cell(static_cast<double>(mm.total_swap()) / GiB(1), 1),
              Table::Cell(static_cast<double>(mm.total_swap()) / w, 1), formula,
              Table::Cell(analytic_w * w / GiB(1), 1)});
  };

  const runtime::Runtime rt(machine, pm.model);
  runtime::RuntimeOptions ro;
  ro.optimizer = pm.optimizer;

  {
    const int u = 2;
    const auto g = baselines::DpSwap(pm.profiles, n, minibatch, u);
    const auto mm = rt.Execute(g, ro);
    if (mm.ok()) {
      // The (4m+2)N|W| weight term; activation/stash traffic comes on top.
      add("DP Swap", mm.value(), "(4m+2)N|W| + stash",
          (4.0 * (minibatch / n / u) + 2.0) * n);
    }
  }
  {
    const auto g = core::GenerateHarmonyTaskGraph(
        config, core::HarmonyMode::kDataParallel, n, minibatch,
        core::OptimizationFlags{}, pm.profiles);
    const auto mm = rt.Execute(g, ro);
    if (mm.ok()) add("Harmony DP", mm.value(), "3N|W| + ckpt", 3.0 * n);
  }
  {
    const auto g = core::GenerateHarmonyTaskGraph(
        config, core::HarmonyMode::kPipelineParallel, n, minibatch,
        core::OptimizationFlags{}, pm.profiles);
    const auto mm = rt.Execute(g, ro);
    if (mm.ok()) add("Harmony PP", mm.value(), "3|W| + ckpt", 3.0);
  }
  std::cout << "|W| = " << FormatBytes(w) << ", N = " << n << ", m = " << m
            << " microbatches per GPU\n";
  t.PrintAscii(&std::cout);
  std::cout << "\nThe measured volumes include activation/checkpoint traffic\n"
               "on top of the weight-only analytical terms, so they upper-\n"
               "bound the formulas; the relative ordering (and the ~N and ~m\n"
               "factors between schemes) is the reproduced claim.\n";
}

}  // namespace
}  // namespace harmony::bench

int main() { harmony::bench::Run(); }
