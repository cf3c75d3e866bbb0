#ifndef HARMONY_RUNTIME_EXECUTOR_H_
#define HARMONY_RUNTIME_EXECUTOR_H_

#include <deque>
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
#include "trace/filter_sink.h"
#include "trace/metrics_sink.h"
#include "trace/trace.h"

namespace harmony::runtime {

/// The driving layer of the execution pipeline: issues a compiled StepProgram
/// onto the discrete-event simulator. Owns the engine, the five CUDA-like
/// streams per GPU, the issue windows (double-buffered prefetch), the per-step
/// join counters, the task-completion bookkeeping, the trace bus and the
/// MetricsSink the run's accounting is folded into; delegates every residency
/// decision to the Residency layer.
///
/// One executor serves any number of runs, one at a time: Run binds the
/// machine, graph, options and program (all borrowed for the call), resets
/// every table in place, and before returning drops whatever the run left
/// pending (held records of a failed or wedged run are destroyed, never run)
/// and detaches the caller's sinks. Between runs it keeps only storage, sized
/// by the largest run so far, and no reference to anything of the caller's.
class Executor {
 public:
  Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  ~Executor();

  /// Runs `program`, compiled from `graph` for `machine`, to completion and
  /// folds the metrics. Fails with OutOfMemory when a working set cannot fit,
  /// or Internal on a schedule deadlock — both diagnose the stuck steps and
  /// the tensors they wait on.
  Result<RunMetrics> Run(const hw::MachineSpec& machine,
                         const core::TaskGraph& graph,
                         const RuntimeOptions& options,
                         const StepProgram& program);

 private:
  /// Run's body, between binding and EndRun.
  Result<RunMetrics> Drive();
  /// Drops everything the run left pending and unbinds it.
  void EndRun();

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

  size_t FlatStep(StepToken token) const {
    return step_base_[token.device] + static_cast<size_t>(token.step);
  }

  // The engine is declared first: everything below holds records of it.
  sim::Engine engine_;
  sim::Interconnect net_;
  sim::FlowNetwork flows_;
  /// Per device, grown to the most devices any run had.
  std::vector<std::unique_ptr<DeviceStreams>> streams_;
  Residency residency_;
  trace::TraceBus bus_;
  trace::MetricsSink metrics_;
  std::unique_ptr<trace::FilterSink> filter_;  // HARMONY_RUNTIME_TRACE

  // Bound by Run for one run.
  const hw::MachineSpec* machine_ = nullptr;
  const core::TaskGraph* graph_ = nullptr;
  const RuntimeOptions* options_ = nullptr;
  const StepProgram* program_ = nullptr;
  int num_devices_ = 0;

  /// Issue-time join of one GPU step, in a flat array over the program
  /// (FlatStep): the step's slot recycles once every allocation committed,
  /// and its `ready` condition (the compute op's dependency, at the same
  /// flat index) fires once every tensor arrived. Both counts start at
  /// needs + produces + 1; the +1 is a sentinel the issuer resolves after
  /// registering them all.
  struct StepJoin {
    int commits_left = 0;
    int arrivals_left = 0;
  };
  std::vector<StepJoin> joins_;
  // Deque for pointer stability; grown to the most steps any program had,
  // each condition rearmed when its run ends.
  std::deque<sim::Condition> ready_;
  std::vector<size_t> step_base_;  // per device: first flat step index
  std::vector<Bytes> capacities_;  // per device, for the residency layer

  // Driving state.
  std::vector<size_t> issue_next_, steps_done_;
  std::vector<bool> issue_busy_;
  std::vector<size_t> cpu_next_;
  int issue_window_ = 2;

  std::vector<int> task_steps_remaining_;
  /// Per task, grown to the most tasks any graph had: continuations run
  /// once the task's last step completes.
  std::vector<sim::WaiterList> task_waiters_;

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
