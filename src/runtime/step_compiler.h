#ifndef HARMONY_RUNTIME_STEP_COMPILER_H_
#define HARMONY_RUNTIME_STEP_COMPILER_H_

#include <cstdint>
#include <vector>

#include "core/task_graph.h"
#include "hw/machine.h"
#include "model/cost_model.h"
#include "model/layer.h"
#include "model/memory.h"
#include "runtime/step.h"

namespace harmony::runtime {

/// Lowers a TaskGraph to a StepProgram: the pure compilation layer of the
/// execution pipeline. Forward/backward/update tasks expand to one step per
/// (microbatch piece, layer) with explicit need/produce tensor keys; CPU-
/// offloaded updates expand to CpuSteps with host-copy and task-completion
/// dependencies. No simulator state is touched — the compiler is a function
/// of (machine, model, graph, optimizer) and is unit-tested without the sim.
class StepCompiler {
 public:
  StepCompiler(const hw::MachineSpec& machine,
               const model::SequentialModel& model,
               const core::TaskGraph& graph,
               model::Optimizer optimizer = model::Optimizer::kAdam);

  /// One-shot lowering. Deterministic: identical inputs yield an identical
  /// program (golden-tested).
  StepProgram Compile();

 private:
  /// The step being lowered. Each list is filled in the order the program
  /// renders it, then Emit() appends them all to the program's pools, so the
  /// scratch keeps its capacity and compile allocates nothing per step.
  struct Draft {
    int task = -1;
    TimeSec compute = 0;
    std::vector<NeedSpec> needs;
    std::vector<ProduceSpec> produces;
    std::vector<TensorId> derefs, copy_to_host, move_to_host, mark_dirty;
  };
  /// Clears the draft for a new step of `task`.
  Draft& Begin(int task, TimeSec compute);
  /// Appends the draft as the next step of device `d`.
  void Emit(int d);
  /// Points every step's spans into the finished pools.
  void BindSpans();

  void Precompute();
  void CompileForward(const core::Task& t);
  void CompileBackward(const core::Task& t);
  void CompileGpuUpdate(const core::Task& t);
  void CompileCpuUpdate(const core::Task& t, const core::DepResolver& deps);
  /// Needs (and dereferences) the producer pieces of activation `boundary`
  /// that overlap `piece`.
  void ConsumeBoundaryInput(int boundary, int replica,
                            const core::MbPiece& piece, bool from_host);
  /// Needs (and dereferences) the stored stash pieces of `layer` that
  /// overlap `piece`.
  void ConsumeStash(int layer, int replica, const core::MbPiece& piece);
  void ComputeRefs();

  Bytes opt_state_bytes(int layer) const {
    return opt_mult_ * model_.layers[layer].spec.param_bytes;
  }

  /// Interns `key` into the program's catalog, returning its dense id.
  TensorId Id(const TensorKey& key) { return program_.tensors.Intern(key); }

  const hw::MachineSpec& machine_;
  const model::SequentialModel& model_;
  const core::TaskGraph& graph_;
  model::CostModel cost_;

  // Piece layouts: [replica][boundary/layer] -> producer pieces.
  std::vector<std::vector<std::vector<core::MbPiece>>> act_layout_;
  std::vector<std::vector<std::vector<core::MbPiece>>> grad_layout_;
  std::vector<std::vector<std::vector<core::MbPiece>>> stash_layout_;

  // Cached model arrays.
  std::vector<Bytes> boundary_bytes_;  // per-sample, index 0..R
  std::vector<Bytes> stash_bytes_;     // per-sample, per layer
  Bytes opt_mult_ = 2;

  StepProgram program_;
  Draft draft_;
  /// Per emitted step, in emission order: list lengths for BindSpans.
  struct Extent {
    uint32_t needs, produces, derefs, copy, move, dirty;
  };
  std::vector<Extent> extents_;
};

}  // namespace harmony::runtime

#endif  // HARMONY_RUNTIME_STEP_COMPILER_H_
