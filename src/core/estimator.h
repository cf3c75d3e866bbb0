#ifndef HARMONY_CORE_ESTIMATOR_H_
#define HARMONY_CORE_ESTIMATOR_H_

#include <memory>

#include "core/task_graph.h"
#include "hw/machine.h"
#include "profile/profiler.h"
#include "trace/trace.h"

namespace harmony::core {

/// Reusable working memory for RuntimeEstimator::EstimateIteration: the
/// flat unit arrays, the dependency index (DepIndex), the producer and
/// dependent lists, the ready queue and the per-task duration cache. The
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

}  // namespace harmony::core

#endif  // HARMONY_CORE_ESTIMATOR_H_
