// Reproduces Figure 11: Harmony vs ZeRO-Infinity for GPT2 (1.5B) on 4 GPUs.
// ZeRO-Infinity shares Harmony's configuration but lacks input-batch
// grouping, so its per-microbatch weight streaming swaps an order of
// magnitude more as the minibatch grows.

#include <iostream>

#include "bench/bench_common.h"
#include "common/table.h"

namespace harmony::bench {
namespace {

void Run() {
  PrintHeader("Harmony vs ZeRO-Infinity, GPT2 (1.5B), 4 GPUs", "Figure 11");
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const serve::ProfiledModel pm = Prepare("GPT2", machine);

  Table t({"minibatch", "scheme", "throughput (samples/s)",
           "global swap (GiB)", "max per-GPU swap (GiB)", "speedup vs ZeRO"});
  for (int d : {16, 32, 64, 128}) {
    // Harmony DP first: its config is shared with ZeRO (Sec 5.3).
    const SchemeResult dp = RunScheme(Scheme::kHarmonyDp, pm, machine, d);
    const SchemeResult pp = RunScheme(Scheme::kHarmonyPp, pm, machine, d);
    RunSchemeOptions zopts;
    if (dp.ok) zopts.fixed_config = dp.config;
    const SchemeResult zero = RunScheme(Scheme::kZeroInfinity, pm, machine, d, zopts);
    for (const SchemeResult* r : {&zero, &dp, &pp}) {
      if (!r->ok) {
        t.AddRow({Table::Cell(d), r->scheme, r->error, "-", "-", "-"});
        continue;
      }
      const std::string speedup =
          zero.ok ? Table::Cell(zero.iteration_time / r->iteration_time) : "-";
      t.AddRow({Table::Cell(d), r->scheme, Table::Cell(r->throughput),
                Table::Cell(static_cast<double>(r->metrics.total_swap()) / GiB(1), 1),
                Table::Cell(static_cast<double>(r->metrics.max_device_swap()) / GiB(1), 1),
                speedup});
    }
  }
  t.PrintAscii(&std::cout);
}

}  // namespace
}  // namespace harmony::bench

int main() { harmony::bench::Run(); }
