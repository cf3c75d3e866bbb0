#ifndef HARMONY_CORE_TASK_GRAPH_H_
#define HARMONY_CORE_TASK_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/config.h"
#include "profile/profiler.h"

namespace harmony::core {

/// The three task types of Sec 4.3.2 (Figure 4).
enum class TaskType { kForward, kBackward, kUpdate };

const char* TaskTypeName(TaskType type);

/// A contiguous range of samples forming one microbatch of a task's group.
/// Sample indices are replica-local (each DP replica owns samples
/// [0, replica_minibatch)).
struct MbPiece {
  int begin = 0;  // first sample index
  int size = 0;   // number of samples

  int end() const { return begin + size; }
  bool Overlaps(const MbPiece& o) const {
    return begin < o.end() && o.begin < end();
  }
};

/// Splits [0, total) into pieces of `u` samples (last may be smaller).
std::vector<MbPiece> SplitMicrobatches(int total, int u);

/// The unit of execution (Sec 4.3.2). A task runs a layer pack for a group
/// of microbatches back-to-back on one execution backend. The Runtime
/// interprets tasks layer-by-layer, so a task whose working set exceeds GPU
/// memory still executes — it just swaps (which is exactly how the per-GPU
/// virtualization baselines behave).
struct Task {
  int id = -1;
  TaskType type = TaskType::kForward;
  Pack pack;
  int device = 0;       // GPU index (kUpdate with on_cpu: the owning process)
  bool on_cpu = false;  // weight update offloaded to CPU
  std::vector<MbPiece> group;

  /// DP replica owning this task; 0 in pipeline mode (single replica).
  int replica = 0;

  /// Backward-task modifier (jit-compute): runs the pack's forward too.
  /// Per-layer stash handling otherwise lives in TaskGraph::stash_policy —
  /// what used to be the scattered `recompute` / `save_full_stash` bools.
  bool fused_forward = false;

  /// Forward tasks: boundary layers b such that the input of layer b (the
  /// output of layer b-1, which this task computes) must be checkpointed to
  /// host for a later backward task.
  std::vector<int> checkpoint_boundaries;

  /// Backward tasks: reads its pack-input checkpoint from host before
  /// recomputing (false for the fused task, whose input streams in).
  bool reads_checkpoint = false;

  bool IsBackwardLike() const { return type == TaskType::kBackward; }
};

/// A complete one-iteration schedule: tasks plus the per-device execution
/// order ("unrolled loop of a single iteration", Sec 4.3.1). Both Harmony
/// modes and all baselines lower to this IR; the Runtime and the Estimator
/// consume it uniformly. Dependencies are structural: producers/consumers
/// match on layer boundaries, sample overlap and replica (DepResolver).
struct TaskGraph {
  std::string name;
  OptimizationFlags flags;
  int num_devices = 1;
  int num_replicas = 1;  // DP replicas (1 for pipeline graphs)
  int num_layers = 0;
  int minibatch = 0;     // global minibatch D
  int u_fwd = 1;
  int u_bwd = 1;

  /// Per-layer stash residency, one entry per layer. Every producer fills
  /// it (the generator resolves an empty Configuration::policy here) and
  /// lowers it into checkpoint boundaries / reads_checkpoint; StepCompiler
  /// and the estimator consult it through policy_at().
  PolicyTable stash_policy;

  std::vector<Task> tasks;
  /// Per-GPU compute-stream execution order (task ids).
  std::vector<std::vector<int>> device_order;
  /// Per-process CPU execution order (offloaded update tasks).
  std::vector<std::vector<int>> cpu_order;

  /// Gradients bounce through host for cross-replica reduction (DP modes
  /// with more than one replica).
  bool grad_reduce_via_host = false;

  /// Bytes permanently reserved per device (e.g. PipeDream-2BW's second
  /// weight version), shrinking the memory available to the manager.
  std::vector<Bytes> device_reserved_bytes;

  const Task& task(int id) const { return tasks.at(id); }
  int num_tasks() const { return static_cast<int>(tasks.size()); }

  /// Layer `l`'s stash policy.
  StashPolicy policy_at(int l) const { return stash_policy.at(l); }
};

/// Which tensor a consumer piece streams in at a layer boundary.
enum class Flow : uint8_t { kActivation, kGradient };

/// Flat (CSR) storage behind a DepResolver. The estimator keeps one per
/// scratch and rebuilds it in place for every graph: the vectors are
/// re-filled, never reallocated once they have grown to the largest graph.
struct DepIndex {
  // List (replica * (num_layers + 1) + boundary) spans
  // tasks[off[list] .. off[list + 1]), task ids ascending.
  std::vector<int> act_off, act_tasks;    // activation producers
  std::vector<int> grad_off, grad_tasks;  // gradient producers (= backward
                                          // tasks keyed by pack.lo)
  std::vector<int> bwd_off, bwd_tasks;    // backward tasks per replica
};

/// Resolves structural dependencies between tasks.
/// Boundary b denotes the tensor between layers b-1 and b: "activation at b"
/// is layer b-1's output (b=0: the data loader), "gradient at b" is the
/// gradient flowing from layer b to b-1. Every task's group must be sorted
/// and disjoint (`group[k].end() <= group[k + 1].begin`, sizes >= 0), as
/// every generator emits it; construction CHECK-fails otherwise.
class DepResolver {
 public:
  explicit DepResolver(const TaskGraph& graph);
  /// Builds the index into caller-owned `storage` (which must outlive the
  /// resolver), reusing its capacity instead of allocating.
  DepResolver(const TaskGraph& graph, DepIndex* storage);
  DepResolver(const DepResolver&) = delete;
  DepResolver& operator=(const DepResolver&) = delete;

  /// Calls fn(task id, piece index) for every producer piece of the `flow`
  /// tensor at `boundary` in `replica` whose sample range overlaps `piece`:
  /// producer tasks in id order, pieces ascending. Activations at b == 0 come
  /// from the data loader and gradients at b == num_layers from the loss, so
  /// neither has producers. This is the one producer-matching routine.
  template <typename Fn>
  void ForEachProducer(Flow flow, int boundary, const MbPiece& piece,
                       int replica, Fn&& fn) const {
    const bool act = flow == Flow::kActivation;
    if (act ? boundary == 0 : boundary > graph_.num_layers - 1) return;
    HARMONY_CHECK(replica >= 0 && replica < graph_.num_replicas &&
                  boundary >= 0 && boundary <= graph_.num_layers)
        << "no producer list for replica " << replica << " boundary "
        << boundary;
    const std::vector<int>& off = act ? ix_->act_off : ix_->grad_off;
    const std::vector<int>& tasks = act ? ix_->act_tasks : ix_->grad_tasks;
    const int list = replica * (graph_.num_layers + 1) + boundary;
    for (int e = off[list]; e < off[list + 1]; ++e) {
      const int tid = tasks[e];
      const std::vector<MbPiece>& group = graph_.tasks[tid].group;
      // Groups are sorted and disjoint (checked at construction): ends
      // ascend, so the first overlap candidate is the first piece ending past
      // piece.begin, and begins ascend, so the matches end at the first piece
      // starting at or after piece.end().
      auto it = group.begin() + FirstPieceEndingAfter(group, piece.begin);
      for (; it != group.end() && it->begin < piece.end(); ++it) {
        if (it->Overlaps(piece)) {
          fn(tid, static_cast<int>(it - group.begin()));
        }
      }
    }
  }

  /// Calls fn(task id) for every backward task computing gradients for the
  /// layers of `pack` in `replica` (update-task inputs), replicas ascending,
  /// task ids ascending; `replica` == -1 matches all replicas.
  template <typename Fn>
  void ForEachBackwardTaskForPack(const Pack& pack, int replica,
                                  Fn&& fn) const {
    for (int r = 0; r < graph_.num_replicas; ++r) {
      if (replica >= 0 && r != replica) continue;
      const int list = r * (graph_.num_layers + 1) + pack.lo;
      for (int e = ix_->grad_off[list]; e < ix_->grad_off[list + 1]; ++e) {
        const int tid = ix_->grad_tasks[e];
        if (graph_.tasks[tid].pack.hi == pack.hi) fn(tid);
      }
    }
  }
  std::vector<int> BackwardTasksForPack(const Pack& pack, int replica) const;

  /// All backward tasks of a replica (used by the no-jit-update ablation:
  /// updates wait for the full backward pass).
  std::span<const int> AllBackwardTasks(int replica) const;

 private:
  /// Index of the first piece of a sorted, disjoint `group` that ends after
  /// sample `begin` (group.size() if none). A run of equal pieces, as
  /// SplitMicrobatches makes, resolves with one division; any other group
  /// falls back to a binary search.
  static size_t FirstPieceEndingAfter(const std::vector<MbPiece>& group,
                                      int begin) {
    const size_t n = group.size();
    if (n > 1 && group[0].size > 0 && begin >= group[0].begin) {
      const size_t k = std::min<size_t>(
          static_cast<size_t>((begin - group[0].begin) / group[0].size),
          n - 1);
      if (group[k].end() > begin && (k == 0 || group[k - 1].end() <= begin)) {
        return k;
      }
    }
    return static_cast<size_t>(
        std::partition_point(
            group.begin(), group.end(),
            [&](const MbPiece& p) { return p.end() <= begin; }) -
        group.begin());
  }

  const TaskGraph& graph_;
  DepIndex owned_;  // storage when the caller supplies none
  DepIndex* const ix_;
};

/// The wrap-around device rule of Algorithm 3 for the `slot`-th F/B task of
/// `replica`: slots count the effective forward packs first, then the
/// backward packs in reverse order; PP binds slot i to GPU[i mod N], DP runs
/// every task of a replica on that replica's GPU. The generator places tasks
/// with it; the search's lane floor (core/estimator.h) groups slots by the
/// same rule, slot i on lane i mod N in PP and one lane per replica in DP.
int HarmonyTaskDevice(HarmonyMode mode, int num_devices, int replica, int slot);

/// Generates the Harmony task graph for a configuration (Algorithm 3):
/// forward tasks for P_F, the fused jit-compute backward task, remaining
/// backward tasks in reverse pack order, and a weight-update task per
/// backward pack — bound to devices with the wrap-around rule
/// Task(P_FB[i]) -> GPU[i mod N] for PP, or replicated per GPU for DP.
/// Optimization flags reshape the graph (grouping off splits groups and
/// interleaves microbatch-major; jit-compute off un-fuses the last pack;
/// jit-update off defers updates to iteration end; ...).
TaskGraph GenerateHarmonyTaskGraph(const Configuration& config, HarmonyMode mode,
                                   int num_devices, int minibatch,
                                   const OptimizationFlags& flags,
                                   const profile::ProfileDb& profiles);
/// The same graph, generated into caller-owned `graph`, whose previous
/// contents are overwritten. Its tasks, groups, checkpoint lists, orders and
/// policy table keep their storage, so with input-batch grouping
/// regenerating a graph no larger than the one it last held allocates
/// nothing (release builds; debug builds validate every graph). The
/// configuration search keeps one such graph per worker.
void GenerateHarmonyTaskGraph(const Configuration& config, HarmonyMode mode,
                              int num_devices, int minibatch,
                              const OptimizationFlags& flags,
                              const profile::ProfileDb& profiles,
                              TaskGraph* graph);

/// Validates structural invariants (layer coverage per pass and replica,
/// wrap-around binding, piece partitioning, order consistency). CHECK-fails
/// on violation; called by the generator and exercised directly in tests.
void ValidateTaskGraph(const TaskGraph& graph);

}  // namespace harmony::core

#endif  // HARMONY_CORE_TASK_GRAPH_H_
