#ifndef HARMONY_MODEL_MEMORY_H_
#define HARMONY_MODEL_MEMORY_H_

#include <string>

#include "model/layer.h"
#include "model/policy.h"

namespace harmony::model {

/// Which optimizer's state is resident during training (Sec 5.1: Adam for the
/// language models, SGD for the CNNs).
enum class Optimizer { kSgdMomentum, kAdam };

Bytes OptimizerStateBytesPerParamByte(Optimizer opt);

/// Training memory footprint breakdown for a whole model at a given minibatch
/// size (the quantity plotted in Fig 8 / Fig 18): what a single virtual
/// device with unbounded memory would have to hold.
struct MemoryFootprint {
  Bytes weights = 0;
  Bytes gradients = 0;
  Bytes optimizer_state = 0;
  Bytes activations = 0;  // stashed activations for the backward pass
  Bytes workspace = 0;    // framework scratch (max over layers)

  Bytes total() const {
    return weights + gradients + optimizer_state + activations + workspace;
  }
};

/// Computes the footprint of training `model` with minibatch size
/// `minibatch`. Layer l's contribution to `activations` follows
/// `policy.at(l)`: kRecompute counts only the checkpointed layer input (the
/// Decomposer's checkpoint set), kKeep/kSwap additionally count the stash
/// that must survive to the backward pass (on GPU resp. host).
MemoryFootprint ComputeFootprint(const SequentialModel& model, int minibatch,
                                 Optimizer opt, const PolicyTable& policy);

}  // namespace harmony::model

#endif  // HARMONY_MODEL_MEMORY_H_
