// Reproduces Figure 14: accuracy of Harmony's Runtime Estimator — estimated
// vs actual iteration time for a random sample of the configurations the
// search explores (BERT-Large, minibatch 600, 4 GPUs, Harmony PP).

#include <iostream>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/table.h"

namespace harmony::bench {
namespace {

void Run() {
  PrintHeader("Runtime Estimator accuracy (BERT-Large, minibatch 600, "
              "Harmony PP, 4 GPUs)",
              "Figure 14");
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const serve::ProfiledModel pm = Prepare("BERT-Large", machine);

  core::SearchOptions opts;
  opts.u_fwd_max = 32;
  opts.u_bwd_max = 32;
  // Fig 14 samples from the full explored set; the search drops it by
  // default since only this experiment needs every candidate's packs.
  opts.keep_explored = true;
  opts.num_threads = 0;  // all cores; result is thread-count-invariant
  const auto search = core::SearchConfiguration(
      pm.profiles, machine, core::HarmonyMode::kPipelineParallel, 600,
      core::OptimizationFlags{}, opts);
  HARMONY_CHECK(search.ok()) << search.status();
  const auto& explored = search.value().explored;
  std::cout << "Configurations explored: " << explored.size() << "\n";

  Rng rng(0xf16u);
  Table t({"config (U_F,|P_F|,U_B,|P_B|)", "estimated (s)", "actual (s)",
           "ratio"});
  const runtime::Runtime rt(machine, pm.model);
  double worst_ratio = 1.0;
  for (int i = 0; i < 15; ++i) {
    const auto& ec = explored[rng.NextBounded(explored.size())];
    const core::TaskGraph g = core::GenerateHarmonyTaskGraph(
        ec.config, core::HarmonyMode::kPipelineParallel, machine.num_gpus, 600,
        core::OptimizationFlags{}, pm.profiles);
    runtime::RuntimeOptions ro;
    ro.optimizer = pm.optimizer;
    const auto metrics = rt.Execute(g, ro);
    if (!metrics.ok()) {
      t.AddRow({ec.config.ToString(), Table::Cell(ec.estimate.iteration_time),
                metrics.status().ToString(), "-"});
      continue;
    }
    const double actual = metrics.value().iteration_time;
    const double ratio = ec.estimate.iteration_time / actual;
    worst_ratio = std::max(worst_ratio, std::max(ratio, 1.0 / ratio));
    t.AddRow({ec.config.ToString(), Table::Cell(ec.estimate.iteration_time),
              Table::Cell(actual), Table::Cell(ratio)});
  }
  t.PrintAscii(&std::cout);
  std::cout << "Worst estimate/actual deviation: "
            << Table::Cell((worst_ratio - 1.0) * 100, 1) << "%\n";
}

}  // namespace
}  // namespace harmony::bench

int main() { harmony::bench::Run(); }
