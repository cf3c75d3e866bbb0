#ifndef HARMONY_CORE_ESTIMATOR_H_
#define HARMONY_CORE_ESTIMATOR_H_

#include <memory>
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
/// floor also charges:
/// - when the lane can start: its first weight fetch and, in PP, the
///   pipeline fill;
/// - each later task's exposed weight fetch: the part of the fetch its
///   predecessor's span cannot hide with prefetch, the whole fetch without;
/// - the drain after the lane's last unit: the last piece of every later
///   slot, each waiting for the one before, then the CPU-update tail.
/// Transfers, GPU updates and the CPU lane's queue only add time and are
/// left out.
///
/// The floor is built in two stages. A Pass holds one pass's slots (the
/// forward slots of a (U_F, forward packs) pair, or the backward slots of a
/// (backward packs, policy) pair) reduced to per-lane terms: its pieces and
/// in-pass exposures summed by lane residue, and the head and top slot of
/// each residue. Compose joins a forward and a backward Pass in O(lanes):
/// the fill, the forward-to-backward exposures and the drain of lanes whose
/// top slot is a forward slot. The search builds each Pass once and reuses
/// it across every grid point that shares it; Bound composes fresh ones.
/// No call allocates once its storage is warm.
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

  /// One pass's slots reduced to per-lane terms (see the class comment).
  /// Filled by ForwardPass or BackwardPass into reused storage.
  class Pass {
   private:
    friend class LaneFloor;
    // Terms of the pass's slots i with i mod lanes == r, one entry per
    // (share, r). The head is slot r, the top the last such slot.
    struct Lane {
      double sum = 0;         // pieces, plus exposures after in-pass slots
      double head_fetch = 0;  // the head's weight fetch
      double head_piece = 0;  // the head's piece 0
      double top_span = 0;    // upper bound on the top's last-piece span
      double top_drain = 0;   // last pieces after the top, to the pass end
    };
    int slots_ = 0;
    std::vector<Lane> lanes_;      // index share * lanes + r
    std::vector<double> through_;  // per share: every slot's last piece
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

  /// The forward slots at microbatch `u_fwd`: `fwd_packs`, then, without
  /// jit-compute, the forward of `last_bwd`, the last backward pack.
  void ForwardPass(int u_fwd, const PackList& fwd_packs, const Pack& last_bwd,
                   Pass* out) const;
  /// The backward slots of `bwd_packs` (reversed) under the table and U_B
  /// `policy` was built for, with the CPU-update tail after the last one.
  void BackwardPass(const PackList& bwd_packs, const Policy& policy,
                    Pass* out) const;
  /// The floor of the configuration whose forward and backward slots `fwd`
  /// and `bwd` hold. O(lanes); allocates nothing.
  TimeSec Compose(const Pass& fwd, const Pass& bwd) const;

  /// The floor for `config`'s packs and microbatch sizes under the table
  /// `policy` was built for (config.policy is not read; config.u_bwd must
  /// match): both passes built into per-thread storage, then composed.
  /// Never above the estimate of the graph the generator builds.
  TimeSec Bound(const Configuration& config, const Policy& policy) const;

 private:
  /// Lower (upper) bound on the sum over layers [lo, hi] of a prefix row.
  double Range(const double* prefix, const Pack& p) const;
  double RangeUp(const double* prefix, const Pack& p) const;
  const double* FwdRow(int u) const;
  const double* BwdRow(int u) const;
  double Fetch(const Pack& p) const;
  /// Fills `out` from `slots` slots, where piece(i, u, up) bounds one piece
  /// of size u of slot i from below (up: from above) and pack(i) is its
  /// pack; `tail` follows the pass's last slot.
  template <typename PieceFn, typename PackFn>
  void FillPass(int slots, int u, bool backward, double tail,
                PieceFn&& piece, PackFn&& pack, Pass* out) const;

  const profile::ProfileDb& profiles_;
  HarmonyMode mode_;
  int num_devices_ = 1;
  int lanes_ = 1;  // lanes one replica's slots spread over: N in PP, 1 in DP
  bool jit_compute_ = true;
  int num_layers_ = 0;
  int u_max_ = 0;
  double swap_bw_ = 0;
  double cpu_update_bw_ = 0;
  bool grouped_ = true;
  bool cpu_optimizer_ = true;
  bool prefetch_ = true;
  // Without the CPU optimizer and with jit-update a GPU update unit follows
  // each backward task on its lane, so it, not the backward task, is the
  // next backward task's predecessor.
  bool updates_between_ = false;
  // Distinct per-replica minibatch shares: one in PP, at most two in DP.
  std::vector<int> shares_;
  // Row u holds prefix sums over layers at microbatch size u (row 0 unused).
  std::vector<double> fwd_prefix_;
  std::vector<double> bwd_prefix_;
  std::vector<Bytes> param_prefix_;
  // FP margins; derived in estimator.cc.
  double range_slack_ = 0;
  double span_slack_ = 0;
  double lane_margin_ = 0;
};

}  // namespace harmony::core

#endif  // HARMONY_CORE_ESTIMATOR_H_
