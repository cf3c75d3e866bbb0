#ifndef HARMONY_CORE_ESTIMATOR_H_
#define HARMONY_CORE_ESTIMATOR_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/task_graph.h"
#include "hw/machine.h"
#include "profile/profiler.h"
#include "trace/trace.h"

namespace harmony::core {

/// Reusable working memory for RuntimeEstimator::EstimateIteration: the
/// unit start and end times, the lane heads of its sweep, the dependency
/// index (DepIndex) and the per-task summary and duration cache. The
/// configuration search runs thousands of estimates per second across
/// worker threads, so each worker holds one of these; its vectors are
/// re-filled with capacity retained, and once it has seen the largest graph
/// an estimate allocates nothing.
///
/// Not thread-safe: one scratch per concurrent caller. The contents carry no
/// state between calls; passing a fresh or a reused scratch yields identical
/// estimates.
class EstimatorScratch {
 public:
  EstimatorScratch();
  ~EstimatorScratch();
  EstimatorScratch(EstimatorScratch&&) noexcept;
  EstimatorScratch& operator=(EstimatorScratch&&) noexcept;

 private:
  friend class RuntimeEstimator;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Result of estimating one training iteration.
struct Estimate {
  TimeSec iteration_time = 0;
  /// Aggregate CPU<->GPU traffic the estimate assumed (diagnostics).
  Bytes swap_bytes = 0;
  /// Aggregate GPU<->GPU traffic assumed.
  Bytes p2p_bytes = 0;
};

/// The Scheduler's Runtime Estimator (Algorithm 1 line 11): an event-driven
/// simulation of a single iteration over the profiled per-layer costs,
/// capturing compute, swap and transfer times and their overlap — but *not*
/// the full runtime machinery (memory-manager eviction, time-varying link
/// contention), which is what Fig 14 compares it against.
///
/// Works at (task, microbatch piece) granularity: each device executes its
/// order list sequentially; a piece starts when the device is free, its
/// producers' pieces have arrived (plus transfer time), and the task's
/// weights are fetched (overlapped with the previous task when prefetch is
/// on).
class RuntimeEstimator {
 public:
  RuntimeEstimator(const profile::ProfileDb& profiles,
                   const hw::MachineSpec& machine);

  /// Estimates one iteration. When `trace` is given, the predicted schedule
  /// is replayed onto it as kOpBegin/kOpEnd spans (compute lanes per GPU,
  /// CPU lanes per process), so a predicted timeline can be diffed against
  /// the runtime's traced one (Fig 14's error, event by event).
  ///
  /// `scratch` optionally supplies reusable working memory (one per caller
  /// thread); without it a transient arena is allocated for this call.
  Estimate EstimateIteration(const TaskGraph& graph,
                             trace::TraceBus* trace = nullptr,
                             EstimatorScratch* scratch = nullptr) const;

 private:
  const profile::ProfileDb& profiles_;
  hw::MachineSpec machine_;
};

/// An admissible lower bound, the *lane floor*, on
///   EstimateIteration(GenerateHarmonyTaskGraph(config, mode, num_devices,
///                     minibatch, flags, profiles)).iteration_time,
/// computed from the configuration alone, without building a graph. The
/// configuration search skips every candidate whose floor is above the best
/// estimate it has found (DESIGN.md §8 "Lane floor").
///
/// A GPU lane runs its units one after another, so its last unit ends no
/// earlier than the sum of its piece durations. The floor places F/B tasks
/// with the generator's device rule (HarmonyTaskDevice), charges each piece
/// the terms the estimator's piece duration charges — pack forward time;
/// pack backward time plus the fused forward or the recomputed layers, the
/// swap read-back and the checkpoint read — and takes the largest lane.
/// With input-batch grouping a lane runs its tasks in slot order, so the
/// floor also charges when the lane can start (its first weight fetch and,
/// in PP, the pipeline fill) and the CPU-update tail after it. Other
/// transfers, fetches and updates only add time and are left out. Every
/// range sum is an O(1) read of a prefix table, so one floor costs O(packs).
class LaneFloor {
 public:
  /// The policy-dependent prefix tables for one (policy table, U_B) pair:
  /// the FwdTime of the kRecompute layers at every piece size a backward
  /// task of U_B takes, and the stash bytes of the kSwap layers.
  class Policy {
   private:
    friend class LaneFloor;
    enum class Remat { kNone, kAll, kSome };
    int u_bwd_ = 0;
    PolicyTable table_;  // resolved: an empty table reads as all-kRecompute
    Remat remat_ = Remat::kNone;
    // kSome: remat_prefix_[k * (R + 1) + l] sums the kRecompute layers
    // below l at piece size sizes_[k].
    std::vector<int> sizes_;
    std::vector<double> remat_prefix_;
    std::vector<Bytes> swap_prefix_;  // empty when no layer swaps
  };

  /// Builds the policy-independent prefix sums of FwdTime and BwdTime over
  /// layers for every microbatch size up to `u_max`, the largest U_F or U_B
  /// the caller asks about.
  LaneFloor(const profile::ProfileDb& profiles, const hw::MachineSpec& machine,
            HarmonyMode mode, int num_devices, int minibatch,
            const OptimizationFlags& flags, int u_max);

  /// Prefix tables for `table` at backward microbatch `u_bwd`. An empty
  /// table is the generator's default, recompute everywhere.
  Policy ForPolicy(const PolicyTable& table, int u_bwd) const;

  /// The floor for `config`'s packs and microbatch sizes under the table
  /// `policy` was built for (config.policy is not read; config.u_bwd must
  /// match). Never above the estimate of the graph the generator builds.
  TimeSec Bound(const Configuration& config, const Policy& policy) const;

 private:
  /// Lower bound on the sum over layers [lo, hi] of a prefix row.
  double Range(const double* prefix, const Pack& p) const;
  const double* FwdRow(int u) const;
  const double* BwdRow(int u) const;

  const profile::ProfileDb& profiles_;
  HarmonyMode mode_;
  int num_devices_ = 1;
  bool jit_compute_ = true;
  int num_layers_ = 0;
  int u_max_ = 0;
  double swap_bw_ = 0;
  double cpu_update_bw_ = 0;
  bool grouped_ = true;
  bool cpu_optimizer_ = true;
  // Distinct per-replica minibatch shares, each with one representative
  // replica: one share in PP, at most two in DP.
  std::vector<std::pair<int, int>> shares_;  // (replica, share)
  // Row u holds prefix sums over layers at microbatch size u (row 0 unused).
  std::vector<double> fwd_prefix_;
  std::vector<double> bwd_prefix_;
  std::vector<Bytes> param_prefix_;
  // FP margins; derived in estimator.cc.
  double range_slack_ = 0;
  double lane_margin_ = 0;
};

}  // namespace harmony::core

#endif  // HARMONY_CORE_ESTIMATOR_H_
