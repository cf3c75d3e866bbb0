// Compare parallel-training schedules on one model: the per-GPU-swap
// baselines (DP / GPipe / PipeDream-2BW, each + LMS-style virtualization)
// against Harmony DP and the wrap-around pipeline (Harmony PP). A compact,
// runnable slice of the paper's Figure 9/10 comparison.
//
// Build & run:  ./build/examples/compare_schedules [model] [minibatch]
//   model in {BERT-Large, BERT96, GPT2, GPT2-Medium, VGG416, ResNet1K}

#include <iostream>
#include <string>

#include "bench/bench_common.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace harmony;
  const std::string model = argc > 1 ? argv[1] : "GPT2";
  const int minibatch = argc > 2 ? std::atoi(argv[2]) : 32;

  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const serve::ProfiledModel pm = bench::Prepare(model, machine);
  std::cout << "Model " << model << " ("
            << FormatBytes(pm.model.total_param_bytes())
            << " weights), minibatch " << minibatch << ", "
            << machine.name << "\n\n";

  Table t({"scheme", "iteration (s)", "samples/s", "global swap (GiB)",
           "worst-GPU swap (GiB)", "p2p (GiB)"});
  for (auto scheme :
       {bench::Scheme::kDpSwap, bench::Scheme::kGpSwap, bench::Scheme::kGpSwapR,
        bench::Scheme::k2bwSwap, bench::Scheme::k2bwSwapR,
        bench::Scheme::kZeroInfinity, bench::Scheme::kHarmonyDp,
        bench::Scheme::kHarmonyPp}) {
    const bench::SchemeResult r =
        bench::RunScheme(scheme, pm, machine, minibatch);
    if (!r.ok) {
      t.AddRow({r.scheme, r.error, "-", "-", "-", "-"});
      continue;
    }
    Bytes p2p = 0;
    for (Bytes b : r.metrics.p2p_bytes) p2p += b;
    t.AddRow({r.scheme, Table::Cell(r.iteration_time),
              Table::Cell(r.throughput),
              Table::Cell(static_cast<double>(r.metrics.total_swap()) / GiB(1), 1),
              Table::Cell(static_cast<double>(r.metrics.max_device_swap()) / GiB(1), 1),
              Table::Cell(static_cast<double>(p2p) / GiB(1), 1)});
  }
  t.PrintAscii(&std::cout);
  return 0;
}
