#ifndef HARMONY_RUNTIME_EXECUTOR_H_
#define HARMONY_RUNTIME_EXECUTOR_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/task_graph.h"
#include "fault/chaos.h"
#include "hw/machine.h"
#include "runtime/residency.h"
#include "runtime/runtime.h"
#include "runtime/step.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/stream.h"
#include "trace/metrics_sink.h"
#include "trace/trace.h"

namespace harmony::runtime {

/// The driving layer of the execution pipeline: issues a compiled StepProgram
/// onto the discrete-event simulator. Owns the engine, the five CUDA-like
/// streams per GPU, the issue windows (double-buffered prefetch), the per-step
/// join counters, and the task-completion bookkeeping; delegates every
/// residency decision to the Residency layer. All byte/time accounting flows
/// through the trace bus into MetricsSink, from which the final RunMetrics is
/// folded. The program is borrowed read-only: every piece of run state lives
/// here, so one compiled program can drive any number of executors.
class Executor {
 public:
  Executor(const hw::MachineSpec& machine, const core::TaskGraph& graph,
           const RuntimeOptions& options, const StepProgram& program,
           trace::TraceBus* bus, trace::MetricsSink* metrics);

  /// Runs the program to completion and folds the metrics. Fails with
  /// OutOfMemory when a working set cannot fit, or Internal on a schedule
  /// deadlock — both diagnose the stuck steps and the tensors they wait on.
  Result<RunMetrics> Run();

 private:
  void Fail(Status status);
  void TryIssue(int d);
  void IssueStep(int d, int step_idx);
  /// Residency continuations for one step: an allocation was granted, a
  /// tensor arrived.
  void OnCommitted(StepToken token);
  void OnArrived(StepToken token);
  void FinishStep(int d, int step_idx);
  void AdvanceCpu(int d);
  void OnTaskStepDone(int task);
  void WhenTaskComplete(int task, std::function<void()> fn);

  bool AllWorkDone() const;
  /// Monotone progress measure for the watchdog: completed GPU steps + CPU
  /// updates + transfer-stream ops. Any forward motion bumps it.
  int64_t ProgressCounter() const;
  /// Polls the cancel token; fails the run (Cancelled / DeadlineExceeded)
  /// and returns true when it has tripped.
  bool PollCancel();
  /// Recurring no-progress check; escalates to cancel + Internal with
  /// DescribeStuck() diagnostics, and stops re-arming once the run is over.
  void WatchdogTick();

  /// Names every stuck GPU/CPU step and the tensors or tasks it waits on —
  /// appended to the post-drain failure statuses.
  std::string DescribeStuck();

  const hw::MachineSpec& machine_;
  const core::TaskGraph& graph_;
  RuntimeOptions options_;
  const StepProgram& program_;
  trace::TraceBus* bus_;
  trace::MetricsSink* metrics_;

  sim::Engine engine_;
  sim::Interconnect net_;
  sim::FlowNetwork flows_;

  std::vector<std::unique_ptr<sim::Stream>> compute_, swapin_, swapout_,
      p2pin_, cpu_;
  std::unique_ptr<Residency> residency_;
  // Deque for pointer stability; direct storage — one allocation per deque
  // block, not per step.
  std::deque<sim::Condition> conditions_;

  /// Issue-time join of one GPU step, in a flat array over the program
  /// (index step_base_[d] + step): the step's slot recycles once every
  /// allocation committed, and `ready` (its compute op's dependency) fires
  /// once every tensor arrived. Both counts start at needs + produces + 1;
  /// the +1 is a sentinel the issuer resolves after registering them all.
  struct StepJoin {
    int commits_left = 0;
    int arrivals_left = 0;
    sim::Condition* ready = nullptr;
  };
  std::vector<StepJoin> joins_;
  std::vector<size_t> step_base_;  // per device: first index into joins_

  // Driving state.
  std::vector<size_t> issue_next_, steps_done_;
  std::vector<bool> issue_busy_;
  std::vector<size_t> cpu_next_;
  int issue_window_ = 2;

  std::vector<int> task_steps_remaining_;
  std::vector<std::vector<std::function<void()>>> task_waiters_;

  // Chaos & liveness (null / disarmed unless the options enable them).
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::ChaosDriver> chaos_;
  TimeSec watchdog_interval_ = 0;   // resolved from options; <= 0 disarmed
  int64_t watchdog_progress_ = -1;  // ProgressCounter() at the last tick
  uint32_t cancel_poll_ = 0;

  bool failed_ = false;
  Status failure_;
};

}  // namespace harmony::runtime

#endif  // HARMONY_RUNTIME_EXECUTOR_H_
