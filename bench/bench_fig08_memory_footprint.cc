// Reproduces Figure 8 (transformers) and Figure 18 (CNNs): the training
// memory footprint at different minibatch sizes, broken into weights,
// gradients, optimizer state, stashed activations and workspace — far beyond
// the 11 GB of one GPU and the 44 GB aggregate of the 4-GPU server.

#include <iostream>

#include "bench/bench_common.h"
#include "common/table.h"

namespace harmony::bench {
namespace {

void FootprintTable(const std::string& name, model::Optimizer opt) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const serve::ProfiledModel pm = Prepare(name, machine);
  Table t({"minibatch", "weights", "grads", "optimizer", "activations",
           "workspace", "total (GiB)"});
  const model::PolicyTable keep_all = model::PolicyTable::Uniform(
      pm.model.num_layers(), model::StashPolicy::kKeep);
  for (int d : {1, 2, 4, 8, 16, 32, 64}) {
    const auto f = model::ComputeFootprint(pm.model, d, opt, keep_all);
    auto gib = [](Bytes b) {
      return Table::Cell(static_cast<double>(b) / GiB(1), 1);
    };
    t.AddRow({Table::Cell(d), gib(f.weights), gib(f.gradients),
              gib(f.optimizer_state), gib(f.activations), gib(f.workspace),
              gib(f.total())});
  }
  std::cout << name << " (GiB per component):\n";
  t.PrintAscii(&std::cout);
  std::cout << "\n";
}

void Run() {
  PrintHeader("Training memory footprint vs minibatch size",
              "Figure 8 (BERT96, GPT2) and Figure 18 (VGG416, ResNet1K)");
  std::cout << "Single GPU capacity: 11 GiB; 4-GPU aggregate: 44 GiB\n\n";
  FootprintTable("BERT96", model::Optimizer::kAdam);
  FootprintTable("GPT2", model::Optimizer::kAdam);
  FootprintTable("VGG416", model::Optimizer::kSgdMomentum);
  FootprintTable("ResNet1K", model::Optimizer::kSgdMomentum);
}

}  // namespace
}  // namespace harmony::bench

int main() { harmony::bench::Run(); }
