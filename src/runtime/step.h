#ifndef HARMONY_RUNTIME_STEP_H_
#define HARMONY_RUNTIME_STEP_H_

#include <span>
#include <string>
#include <vector>

#include "common/units.h"
#include "runtime/tensor.h"

namespace harmony::runtime {

/// One tensor a step must have resident before its compute launches.
struct NeedSpec {
  TensorId id = kInvalidTensorId;
  Bytes bytes = 0;
  /// Fetch strictly from the host copy (checkpoint reads use the message-
  /// passing channel, Sec 4.4); never moves a peer GPU's copy.
  bool from_host = false;
};

/// One tensor a step allocates and writes.
struct ProduceSpec {
  TensorId id = kInvalidTensorId;
  Bytes bytes = 0;
};

/// One layer-granularity unit of GPU work, compiled from a Task. The
/// executor issues a step's fetches/allocations, runs its compute on the
/// compute stream, then applies the post actions. Tensors are referenced by
/// the dense TensorId interned at lowering time; the program's catalog maps
/// ids back to structural TensorKeys for diagnostics. The lists are spans
/// into the owning StepProgram's pools (CSR storage), valid while it lives.
struct Step {
  int task = -1;
  TimeSec compute = 0;
  std::span<const NeedSpec> needs;
  std::span<const ProduceSpec> produces;
  std::span<const TensorId> derefs;        // consumed inputs (refcount--)
  std::span<const TensorId> copy_to_host;  // checkpoint / master write-back
  std::span<const TensorId> move_to_host;  // gradient push, optimizer state
  std::span<const TensorId> mark_dirty;
};

/// Names one GPU step of a program: the continuation token the residency
/// layer carries back to the executor when a step's allocation is granted
/// or its tensor arrives.
struct StepToken {
  int device = -1;
  int step = -1;  // index into StepProgram::steps[device]
};

/// CPU-offloaded work (weight updates). Like Step's, the lists are spans into
/// the owning StepProgram's pools.
struct CpuStep {
  int task = -1;
  TimeSec duration = 0;
  std::span<const TensorId> host_needs;  // wait until a valid host copy exists
  std::span<const int> wait_tasks;       // task-completion dependencies
  std::span<const TensorId> host_frees;  // consumed host copies (gradients)
};

/// The compiled form of a TaskGraph: per-device GPU step sequences, per-
/// process CPU step sequences, the tensor catalog interning every TensorKey
/// the program touches, and the consumer reference counts (indexed by
/// TensorId) that drive tensor lifetime. Pure data — executable by the
/// simulator-backed Executor, and inspectable by tests without any
/// simulation at all. A run borrows the program read-only, so one compiled
/// program serves any number of executions.
///
/// Move-only: the steps' spans point into the pools below, which a move
/// carries along but a copy would not. A StepCompiler can compile into an
/// existing program, reusing all of its storage.
struct StepProgram {
  StepProgram() = default;
  StepProgram(StepProgram&&) = default;
  StepProgram& operator=(StepProgram&&) = default;
  StepProgram(const StepProgram&) = delete;
  StepProgram& operator=(const StepProgram&) = delete;

  std::vector<std::vector<Step>> steps;         // per device, in issue order
  std::vector<std::vector<CpuStep>> cpu_steps;  // per process, in order
  TensorCatalog tensors;
  std::vector<int> ref_counts;                  // per TensorId; consumers
  std::vector<int> task_step_counts;            // steps per task (GPU + CPU)
  /// Master weights + optimizer state permanently resident on host.
  Bytes static_host_bytes = 0;
  /// CSR pools behind every Step's lists, in step order (device-major).
  std::vector<NeedSpec> need_pool;
  std::vector<ProduceSpec> produce_pool;
  std::vector<TensorId> id_pool;  // derefs, copy, move, dirty per step
  /// CSR pools behind every CpuStep's lists, in step order (process-major).
  std::vector<TensorId> cpu_id_pool;  // host_needs (= host_frees) per step
  std::vector<int> wait_pool;         // wait_tasks per step

  int64_t num_steps() const {
    int64_t n = 0;
    for (const auto& dev : steps) n += static_cast<int64_t>(dev.size());
    for (const auto& proc : cpu_steps) n += static_cast<int64_t>(proc.size());
    return n;
  }
};

/// Stable one-line renderings for golden tests and deadlock diagnostics.
/// Compute/duration times are intentionally omitted: goldens pin the
/// *structure* (keys, bytes, ordering), not the cost model. The catalog
/// resolves ids back to the key renderings the goldens were recorded with.
std::string DebugString(const Step& step, const TensorCatalog& tensors);
std::string DebugString(const CpuStep& step, const TensorCatalog& tensors);

}  // namespace harmony::runtime

#endif  // HARMONY_RUNTIME_STEP_H_
