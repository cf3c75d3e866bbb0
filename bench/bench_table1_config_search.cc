// Reproduces Table 1 (configuration search results and Scheduler end-to-end
// time with Harmony PP, 4 GPUs, minibatch 64) and Table 5 (the detailed
// layer packs behind it).

#include <iostream>

#include "bench/bench_common.h"
#include "common/table.h"

namespace harmony::bench {
namespace {

void Run() {
  PrintHeader("Configuration search results + Scheduler time (Harmony PP, "
              "4 GPUs, minibatch 64)",
              "Table 1 and Table 5");
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();

  Table t({"Model", "U_F", "|P_F|", "U_B", "|P_B|", "configs explored",
           "configs estimated", "Scheduler time (s)"});
  std::vector<std::pair<std::string, core::Configuration>> details;
  for (const std::string name : {"BERT96", "GPT2", "VGG416", "ResNet1K"}) {
    const PreparedModel pm = Prepare(name, machine);
    core::SearchOptions opts;
    opts.u_fwd_max = 64;
    opts.u_bwd_max = 64;
    // All cores: the reported Scheduler time depends on the thread count but
    // the chosen configuration does not (see bench_search_scaling).
    opts.num_threads = 0;
    const auto result = core::SearchConfiguration(
        pm.profiles, machine, core::HarmonyMode::kPipelineParallel, 64,
        core::OptimizationFlags{}, opts);
    if (!result.ok()) {
      t.AddRow({name, "-", "-", "-", "-", "-", "-", result.status().ToString()});
      continue;
    }
    const auto& r = result.value();
    t.AddRow({name, Table::Cell(r.best.u_fwd),
              Table::Cell(static_cast<int64_t>(r.best.fwd_packs.size())),
              Table::Cell(r.best.u_bwd),
              Table::Cell(static_cast<int64_t>(r.best.bwd_packs.size())),
              Table::Cell(r.configs_explored),
              Table::Cell(r.configs_estimated),
              Table::Cell(r.search_wall_seconds)});
    details.emplace_back(name, r.best);
  }
  t.PrintAscii(&std::cout);

  std::cout << "\nDetailed layer packs (Table 5):\n";
  for (const auto& [name, config] : details) {
    std::cout << name << "\n  P_F: " << core::PackListToString(config.fwd_packs)
              << "\n  P_B: " << core::PackListToString(config.bwd_packs) << "\n";
  }
}

}  // namespace
}  // namespace harmony::bench

int main() { harmony::bench::Run(); }
