// Reproduces Figure 10: swap load of the different approaches for GPT2 on 4
// GPUs. (a) per-GPU swap load at a fixed minibatch; (b) global swap volume
// as the minibatch grows — Harmony's stays orders of magnitude lower.

#include <iostream>

#include "bench/bench_common.h"
#include "common/table.h"

namespace harmony::bench {
namespace {

const Scheme kSchemes[] = {Scheme::kDpSwap,   Scheme::kGpSwap,
                           Scheme::kGpSwapR,  Scheme::k2bwSwap,
                           Scheme::k2bwSwapR, Scheme::kHarmonyDp,
                           Scheme::kHarmonyPp};

void Run() {
  PrintHeader("Swap load for GPT2 on 4 GPUs", "Figure 10 (a) and (b)");
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const serve::ProfiledModel pm = Prepare("GPT2", machine);

  std::cout << "(a) per-GPU swap load, minibatch 32 (GiB):\n";
  Table per_gpu({"scheme", "GPU0", "GPU1", "GPU2", "GPU3", "global"});
  for (Scheme s : kSchemes) {
    const SchemeResult r = RunScheme(s, pm, machine, 32);
    std::vector<std::string> row = {SchemeName(s)};
    if (!r.ok) {
      row.insert(row.end(), {"OOM", "-", "-", "-", "-"});
    } else {
      for (int d = 0; d < 4; ++d) {
        row.push_back(
            Table::Cell(static_cast<double>(r.metrics.device_swap(d)) / GiB(1), 1));
      }
      row.push_back(
          Table::Cell(static_cast<double>(r.metrics.total_swap()) / GiB(1), 1));
    }
    per_gpu.AddRow(row);
  }
  per_gpu.PrintAscii(&std::cout);

  std::cout << "\n(b) global swap volume vs minibatch size (GiB):\n";
  Table global({"scheme", "mb=8", "mb=16", "mb=32", "mb=64"});
  for (Scheme s : kSchemes) {
    std::vector<std::string> row = {SchemeName(s)};
    for (int d : {8, 16, 32, 64}) {
      const SchemeResult r = RunScheme(s, pm, machine, d);
      row.push_back(r.ok ? Table::Cell(
                               static_cast<double>(r.metrics.total_swap()) / GiB(1), 1)
                         : "OOM");
    }
    global.AddRow(row);
  }
  global.PrintAscii(&std::cout);
}

}  // namespace
}  // namespace harmony::bench

int main() { harmony::bench::Run(); }
