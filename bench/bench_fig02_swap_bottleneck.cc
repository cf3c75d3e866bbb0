// Reproduces Figure 2: the swap bottleneck of per-GPU memory virtualization.
// (b) data-parallel swap volume grows linearly with the GPU count, throttling
// throughput on the shared host link; (c) pipeline-parallel per-GPU swap
// loads are unbalanced/structure-dependent.

#include <iostream>

#include "bench/bench_common.h"
#include "common/table.h"

namespace harmony::bench {
namespace {

void Run() {
  PrintHeader("Swap bottleneck of per-GPU virtualization (BERT-Large)",
              "Figure 2 (b) and (c)");
  const hw::MachineSpec base = hw::MachineSpec::Commodity4Gpu();

  // (b) DP Swap with 1, 2, 4 GPUs at per-GPU batch 5 (the paper's setting).
  Table dp({"GPUs", "minibatch", "per-GPU swap (GiB)", "total swap (GiB)",
            "throughput (samples/s)"});
  for (int n : {1, 2, 4}) {
    const hw::MachineSpec machine = base.WithNumGpus(n);
    const serve::ProfiledModel pm = Prepare("BERT-Large", machine);
    const int minibatch = 5 * n;
    RunSchemeOptions opts;
    opts.baseline_u_cap = 5;
    const SchemeResult r = RunScheme(Scheme::kDpSwap, pm, machine, minibatch, opts);
    if (!r.ok) {
      dp.AddRow({Table::Cell(n), Table::Cell(minibatch), r.error, "-", "-"});
      continue;
    }
    dp.AddRow({Table::Cell(n), Table::Cell(minibatch),
               Table::Cell(static_cast<double>(r.metrics.max_device_swap()) / GiB(1)),
               Table::Cell(static_cast<double>(r.metrics.total_swap()) / GiB(1)),
               Table::Cell(r.throughput)});
  }
  std::cout << "(b) DP Swap: total swap volume grows ~linearly with GPUs\n";
  dp.PrintAscii(&std::cout);

  // (c) Pipeline parallelism with per-GPU swapping: per-stage swap loads.
  const serve::ProfiledModel pm = Prepare("BERT-Large", base);
  RunSchemeOptions opts;
  opts.baseline_u_cap = 5;
  const SchemeResult gp = RunScheme(Scheme::kGpSwap, pm, base, 20, opts);
  std::cout << "\n(c) GP Swap per-stage swap load (minibatch 20):\n";
  Table pp({"GPU (stage)", "swap in (GiB)", "swap out (GiB)", "total (GiB)"});
  if (gp.ok) {
    for (int d = 0; d < base.num_gpus; ++d) {
      pp.AddRow({Table::Cell(d),
                 Table::Cell(static_cast<double>(gp.metrics.swap_in_bytes[d]) / GiB(1)),
                 Table::Cell(static_cast<double>(gp.metrics.swap_out_bytes[d]) / GiB(1)),
                 Table::Cell(static_cast<double>(gp.metrics.device_swap(d)) / GiB(1))});
    }
  } else {
    std::cout << "GP Swap failed: " << gp.error << "\n";
  }
  pp.PrintAscii(&std::cout);
}

}  // namespace
}  // namespace harmony::bench

int main() { harmony::bench::Run(); }
