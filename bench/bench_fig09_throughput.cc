// Reproduces Figure 9 (training throughput of Harmony DP/PP vs the per-GPU
// swap baselines across models and minibatch sizes, 4 GPUs) and its
// companion Figure 20 (iteration time normalized to Harmony PP).

#include <iostream>
#include <map>

#include "bench/bench_common.h"
#include "common/table.h"

namespace harmony::bench {
namespace {

const Scheme kSchemes[] = {Scheme::kDpSwap,   Scheme::kGpSwap,
                           Scheme::kGpSwapR,  Scheme::k2bwSwap,
                           Scheme::k2bwSwapR, Scheme::kHarmonyDp,
                           Scheme::kHarmonyPp};

void Run() {
  PrintHeader("Training throughput, 4 GPUs", "Figure 9 + Figure 20");
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();

  for (const std::string name : {"BERT96", "GPT2", "VGG416", "ResNet1K"}) {
    const serve::ProfiledModel pm = Prepare(name, machine);
    Table tput({"scheme", "mb=8", "mb=16", "mb=32", "mb=64"});
    Table norm({"scheme", "mb=8", "mb=16", "mb=32", "mb=64"});
    std::map<std::string, std::vector<std::string>> tput_rows, norm_rows;
    std::map<int, double> pp_time;

    std::map<std::pair<int, int>, SchemeResult> results;
    const std::vector<int> minibatches = {8, 16, 32, 64};
    for (size_t mi = 0; mi < minibatches.size(); ++mi) {
      for (size_t si = 0; si < std::size(kSchemes); ++si) {
        RunSchemeOptions opts;
        opts.u_max = 16;
        results[{static_cast<int>(si), static_cast<int>(mi)}] =
            RunScheme(kSchemes[si], pm, machine, minibatches[mi], opts);
      }
      const auto& pp = results[{5 + 1, static_cast<int>(mi)}];  // Harmony PP
      pp_time[static_cast<int>(mi)] = pp.ok ? pp.iteration_time : 0.0;
    }

    for (size_t si = 0; si < std::size(kSchemes); ++si) {
      std::vector<std::string> trow = {SchemeName(kSchemes[si])};
      std::vector<std::string> nrow = {SchemeName(kSchemes[si])};
      for (size_t mi = 0; mi < minibatches.size(); ++mi) {
        const auto& r = results[{static_cast<int>(si), static_cast<int>(mi)}];
        if (!r.ok) {
          trow.push_back("OOM");
          nrow.push_back("OOM");
          continue;
        }
        trow.push_back(Table::Cell(r.throughput));
        const double base = pp_time[static_cast<int>(mi)];
        nrow.push_back(base > 0 ? Table::Cell(r.iteration_time / base) : "-");
      }
      tput.AddRow(trow);
      norm.AddRow(nrow);
    }
    std::cout << name << " throughput (samples/s):\n";
    tput.PrintAscii(&std::cout);
    std::cout << name << " iteration time normalized to Harmony PP (Fig 20, "
                 "higher is worse):\n";
    norm.PrintAscii(&std::cout);
    std::cout << "\n";
  }
}

}  // namespace
}  // namespace harmony::bench

int main() { harmony::bench::Run(); }
