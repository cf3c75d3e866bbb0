#ifndef HARMONY_RUNTIME_STEP_COMPILER_H_
#define HARMONY_RUNTIME_STEP_COMPILER_H_

#include <cstdint>
#include <optional>
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
///
/// A compiler is reusable: each Compile into an existing program reuses the
/// program's storage and the compiler's scratch, so compiling a graph the
/// size of an earlier one allocates nothing.
class StepCompiler {
 public:
  /// An unbound compiler, for Compile(machine, model, graph, ...).
  StepCompiler() = default;
  /// A compiler bound to one graph, for the one-shot Compile().
  StepCompiler(const hw::MachineSpec& machine,
               const model::SequentialModel& model,
               const core::TaskGraph& graph,
               model::Optimizer optimizer = model::Optimizer::kAdam);

  /// One-shot lowering of the bound graph. Deterministic: identical inputs
  /// yield an identical program (golden-tested).
  StepProgram Compile();

  /// Lowers `graph` into `*program`, replacing its contents: the same
  /// program Compile() would return, built in the program's own storage.
  void Compile(const hw::MachineSpec& machine,
               const model::SequentialModel& model,
               const core::TaskGraph& graph, model::Optimizer optimizer,
               StepProgram* program);

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
  /// Empties program_ for a new compile, keeping its storage.
  void ResetProgram();

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
    return opt_mult_ * model_->layers[layer].spec.param_bytes;
  }

  /// Interns `key` into the program's catalog, returning its dense id.
  TensorId Id(const TensorKey& key) { return program_.tensors.Intern(key); }
  /// The id of layer `l`'s weights (or gradient) of the task being lowered,
  /// interned on first use: one lookup per task, not one per piece.
  TensorId WeightId(int l);
  TensorId GradId(int l);

  // Bound for one compile (or, by the binding constructor, for Compile()).
  const hw::MachineSpec* machine_ = nullptr;
  const model::SequentialModel* model_ = nullptr;
  const core::TaskGraph* graph_ = nullptr;
  model::Optimizer optimizer_ = model::Optimizer::kAdam;
  std::optional<model::CostModel> cost_;

  // The task being lowered: its device, replica and pack, the ids of its
  // pack layers' weights and gradients (kInvalidTensorId until interned), and
  // the rematerialized stash of the current piece, by pack layer.
  int task_device_ = 0;
  int task_replica_ = 0;
  int task_lo_ = 0;
  std::vector<TensorId> task_weights_, task_grads_, task_stash_;
  /// Binds the task's id caches; `replica` keys its gradients.
  void BeginTask(const core::Task& t, int replica);

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
  /// Per emitted CPU step: host_needs and wait_tasks lengths.
  struct CpuExtent {
    uint32_t needs, waits;
  };
  std::vector<CpuExtent> cpu_extents_;
  core::DepIndex deps_;             // the dependency index, rebuilt in place
  std::vector<int> replicas_;       // CompileCpuUpdate scratch
};

}  // namespace harmony::runtime

#endif  // HARMONY_RUNTIME_STEP_COMPILER_H_
