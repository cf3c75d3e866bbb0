#include "model/memory.h"

#include <algorithm>

namespace harmony::model {

Bytes OptimizerStateBytesPerParamByte(Optimizer opt) {
  switch (opt) {
    case Optimizer::kSgdMomentum: return 1;  // momentum buffer
    case Optimizer::kAdam: return 2;         // first + second moments
  }
  return 0;
}

MemoryFootprint ComputeFootprint(const SequentialModel& model, int minibatch,
                                 Optimizer opt, const PolicyTable& policy) {
  MemoryFootprint f;
  const Bytes opt_mult = OptimizerStateBytesPerParamByte(opt);
  for (int l = 0; l < model.num_layers(); ++l) {
    const auto& layer = model.layers[l];
    f.weights += layer.spec.param_bytes;
    f.gradients += layer.spec.param_bytes;
    f.optimizer_state += opt_mult * layer.spec.param_bytes;
    const Bytes checkpoint =
        layer.spec.input_bytes_per_sample + layer.relay_bytes_per_sample;
    const Bytes stash = policy.at(l) == StashPolicy::kRecompute
                            ? checkpoint
                            : checkpoint + layer.spec.stash_bytes_per_sample;
    f.activations += static_cast<Bytes>(minibatch) * stash;
    f.workspace = std::max(f.workspace, layer.spec.workspace_bytes);
  }
  return f;
}

}  // namespace harmony::model
