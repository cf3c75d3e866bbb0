// Reproduces Figure 13: efficiency breakdown of Harmony's optimizations for
// GPT2 on 4 GPUs. Each optimization is turned off in isolation; the table
// reports the resulting slowdown relative to all-on (higher is worse).
// Also covers the "expert-picked config" ablation (config search off).

#include <iostream>

#include "bench/bench_common.h"
#include "common/table.h"

namespace harmony::bench {
namespace {

struct Ablation {
  std::string name;
  void (*apply)(core::OptimizationFlags*);
};

const Ablation kAblations[] = {
    {"no input-batch grouping",
     [](core::OptimizationFlags* f) { f->input_batch_grouping = false; }},
    {"no jit scheduling", [](core::OptimizationFlags* f) {
       f->jit_update = false;
       f->jit_compute = false;
     }},
    {"no p2p transfers",
     [](core::OptimizationFlags* f) { f->p2p_transfers = false; }},
    {"no tensor prefetch",
     [](core::OptimizationFlags* f) { f->prefetch = false; }},
    {"no optimizer offload",
     [](core::OptimizationFlags* f) { f->cpu_optimizer = false; }},
};

void Run() {
  PrintHeader("Efficiency breakdown (ablations), GPT2, 4 GPUs, minibatch 128",
              "Figure 13");
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const serve::ProfiledModel pm = Prepare("GPT2", machine);
  const int minibatch = 128;

  for (Scheme mode : {Scheme::kHarmonyDp, Scheme::kHarmonyPp}) {
    const SchemeResult all_on = RunScheme(mode, pm, machine, minibatch);
    HARMONY_CHECK(all_on.ok) << all_on.error;

    Table t({"configuration", "iteration time (s)", "slowdown vs all-on",
             "global swap (GiB)"});
    t.AddRow({"all optimizations on", Table::Cell(all_on.iteration_time),
              Table::Cell(1.0),
              Table::Cell(static_cast<double>(all_on.metrics.total_swap()) / GiB(1), 1)});

    for (const Ablation& a : kAblations) {
      RunSchemeOptions opts;
      a.apply(&opts.flags);
      // Keep the all-on configuration: the ablation changes the runtime
      // behaviour, not the packing (matching the paper's methodology).
      opts.fixed_config = all_on.config;
      const SchemeResult r = RunScheme(mode, pm, machine, minibatch, opts);
      if (!r.ok) {
        t.AddRow({a.name, r.error, "-", "-"});
        continue;
      }
      t.AddRow({a.name, Table::Cell(r.iteration_time),
                Table::Cell(r.iteration_time / all_on.iteration_time),
                Table::Cell(static_cast<double>(r.metrics.total_swap()) / GiB(1), 1)});
    }

    // "No config search": an expert picks uniform packs of 8 layers and the
    // largest feasible microbatch — plausible, but not search-optimal.
    {
      core::Configuration expert;
      expert.u_fwd = expert.u_bwd = 2;
      const int r_layers = pm.profiles.num_layers();
      for (int lo = 0; lo < r_layers; lo += 8) {
        expert.bwd_packs.push_back(
            core::Pack{lo, std::min(lo + 7, r_layers - 1)});
      }
      expert.fwd_packs.assign(expert.bwd_packs.begin(),
                              expert.bwd_packs.end() - 1);
      RunSchemeOptions opts;
      opts.fixed_config = expert;
      const SchemeResult r = RunScheme(mode, pm, machine, minibatch, opts);
      if (r.ok) {
        t.AddRow({"no config search (expert packs)", Table::Cell(r.iteration_time),
                  Table::Cell(r.iteration_time / all_on.iteration_time),
                  Table::Cell(static_cast<double>(r.metrics.total_swap()) / GiB(1), 1)});
      } else {
        t.AddRow({"no config search (expert packs)", r.error, "-", "-"});
      }
    }

    std::cout << SchemeName(mode) << ":\n";
    t.PrintAscii(&std::cout);
    std::cout << "\n";
  }
}

}  // namespace
}  // namespace harmony::bench

int main() { harmony::bench::Run(); }
