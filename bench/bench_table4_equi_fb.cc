// Reproduces Table 4: Equi-FB (one configuration shared by forward and
// backward) vs Distinct-FB (Harmony's full four-tuple search), minibatch 16.
// Iteration times are measured on deployed (simulated) training runs.

#include <iostream>

#include "bench/bench_common.h"
#include "common/table.h"

namespace harmony::bench {
namespace {

void Run() {
  PrintHeader("Equi-FB vs Distinct-FB configuration search, minibatch 16",
              "Table 4");
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();

  Table t({"Model", "Equi-FB (s)", "Distinct-FB (s)", "Improvement"});
  for (const std::string name : {"BERT96", "GPT2", "VGG416", "ResNet1K"}) {
    const serve::ProfiledModel pm = Prepare(name, machine);
    const runtime::Runtime rt(machine, pm.model);
    runtime::RuntimeOptions ro;
    ro.optimizer = pm.optimizer;

    auto measure = [&](bool equi) -> double {
      core::SearchOptions opts;
      opts.u_fwd_max = 16;
      opts.u_bwd_max = 16;
      opts.equi_fb = equi;
      const auto found = core::SearchConfiguration(
          pm.profiles, machine, core::HarmonyMode::kPipelineParallel, 16,
          core::OptimizationFlags{}, opts);
      if (!found.ok()) return -1;
      const core::TaskGraph g = core::GenerateHarmonyTaskGraph(
          found.value().best, core::HarmonyMode::kPipelineParallel,
          machine.num_gpus, 16, core::OptimizationFlags{}, pm.profiles);
      const auto m = rt.Execute(g, ro);
      return m.ok() ? m.value().iteration_time : -1;
    };

    const double equi = measure(true);
    const double distinct = measure(false);
    if (equi < 0 || distinct < 0) {
      t.AddRow({name, "failed", "failed", "-"});
      continue;
    }
    t.AddRow({name, Table::Cell(equi, 3), Table::Cell(distinct, 3),
              Table::Cell(100.0 * (equi - distinct) / equi, 1) + "%"});
  }
  t.PrintAscii(&std::cout);
}

}  // namespace
}  // namespace harmony::bench

int main() { harmony::bench::Run(); }
