// Reproduces Figure 15 (training 10-40B-parameter GPT2 variants at the limit
// of single-server CPU memory, 8 GPUs; ZeRO-Infinity runs out of host memory
// at 40B) and Figure 16 (scalability of Harmony from 1 to 8 GPUs).

#include <iostream>

#include "bench/bench_common.h"
#include "common/table.h"

namespace harmony::bench {
namespace {

void Run() {
  PrintHeader("Massive models at the CPU-memory limit (8x 1080Ti, 750 GB host)",
              "Figure 15 and Figure 16");
  const hw::MachineSpec machine = hw::MachineSpec::Commodity8Gpu();

  std::cout << "(Fig 15) 10-40B GPT2 variants, minibatch 48:\n";
  Table f15({"model", "scheme", "throughput (samples/s)", "global swap (GiB)",
             "peak host (GiB)"});
  for (const std::string name : {"GPT2-10B", "GPT2-20B", "GPT2-30B", "GPT2-40B"}) {
    const serve::ProfiledModel pm = Prepare(name, machine);
    for (Scheme s : {Scheme::kZeroInfinity, Scheme::kHarmonyDp, Scheme::kHarmonyPp}) {
      RunSchemeOptions opts;
      opts.u_max = 8;
      const SchemeResult r = RunScheme(s, pm, machine, 48, opts);
      if (!r.ok) {
        f15.AddRow({name, SchemeName(s), r.error, "-", "-"});
        continue;
      }
      f15.AddRow({name, SchemeName(s), Table::Cell(r.throughput, 3),
                  Table::Cell(static_cast<double>(r.metrics.total_swap()) / GiB(1), 1),
                  Table::Cell(static_cast<double>(r.metrics.peak_host_bytes) / GiB(1), 1)});
    }
  }
  f15.PrintAscii(&std::cout);

  std::cout << "\n(Fig 16) Harmony scalability, 1-8 GPUs, minibatch = 4 x GPUs:\n";
  Table f16({"model", "scheme", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs"});
  for (const std::string name : {"GPT2-10B", "GPT2-20B", "GPT2-40B"}) {
    for (Scheme s : {Scheme::kHarmonyDp, Scheme::kHarmonyPp}) {
      std::vector<std::string> row = {name, SchemeName(s)};
      for (int n : {1, 2, 4, 8}) {
        const hw::MachineSpec sub = machine.WithNumGpus(n);
        const serve::ProfiledModel pm = Prepare(name, sub);
        RunSchemeOptions opts;
        opts.u_max = 8;
        const SchemeResult r = RunScheme(s, pm, sub, 4 * n, opts);
        row.push_back(r.ok ? Table::Cell(r.throughput, 3) : std::string("OOM"));
      }
      f16.AddRow(row);
    }
  }
  f16.PrintAscii(&std::cout);
}

}  // namespace
}  // namespace harmony::bench

int main() { harmony::bench::Run(); }
