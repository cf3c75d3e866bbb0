#include "runtime/executor.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace harmony::runtime {

Executor::Executor()
    : flows_(&engine_, {}),
      residency_([this] {
        Residency::Env env;
        env.engine = &engine_;
        env.flows = &flows_;
        env.net = &net_;
        env.streams = &streams_;
        env.fail = [this](Status status) { Fail(std::move(status)); };
        env.failed = [this]() { return failed_; };
        env.steps_in_flight = [this](int d) {
          return issue_next_[d] - steps_done_[d] > 1;
        };
        env.committed = [this](StepToken token) { OnCommitted(token); };
        env.arrived = [this](StepToken token) { OnArrived(token); };
        return env;
      }()) {}

Executor::~Executor() = default;

void Executor::Fail(Status status) {
  if (failed_) return;
  failed_ = true;
  failure_ = std::move(status);
}

// ---------------------------------------------------------------------------
// Liveness: cancellation + watchdog
// ---------------------------------------------------------------------------

bool Executor::AllWorkDone() const {
  for (int d = 0; d < num_devices_; ++d) {
    if (steps_done_[d] < program_->steps[d].size()) return false;
    if (cpu_next_[d] < program_->cpu_steps[d].size()) return false;
  }
  return true;
}

int64_t Executor::ProgressCounter() const {
  int64_t p = 0;
  for (int d = 0; d < num_devices_; ++d) {
    const DeviceStreams& s = *streams_[d];
    p += static_cast<int64_t>(steps_done_[d]) +
         static_cast<int64_t>(cpu_next_[d]) + s.swapin.ops_completed() +
         s.swapout.ops_completed() + s.p2pin.ops_completed();
  }
  return p;
}

bool Executor::PollCancel() {
  if (failed_) return true;
  if (options_->cancel == nullptr || !options_->cancel->Cancelled()) {
    return false;
  }
  Fail(options_->cancel->DeadlinePassed()
           ? Status::DeadlineExceeded(
                 "run cancelled: deadline passed mid-iteration")
           : Status::Cancelled("run cancelled"));
  return true;
}

void Executor::WatchdogTick() {
  if (failed_ || AllWorkDone()) return;  // run over; stop re-arming
  if (PollCancel()) return;
  const int64_t progress = ProgressCounter();
  if (progress == watchdog_progress_) {
    // No step, CPU update, or transfer completed for a whole interval:
    // escalate. Cancelling the token unwinds any cooperating layers
    // (search, serve) sharing it; the Status names the wedge. The
    // first-tripper check closes a race with graceful shutdown: if another
    // party cancelled the shared token between the PollCancel above and this
    // escalation, the run must surface kCancelled — not an Internal
    // "watchdog: no progress" dressed with DescribeStuck noise. Only the
    // actual tripper pays for (and reports) the wedge diagnostics.
    if (options_->cancel != nullptr && !options_->cancel->Cancel()) {
      PollCancel();
      return;
    }
    Fail(Status::Internal("watchdog: no progress for " +
                          std::to_string(watchdog_interval_) + "s" +
                          DescribeStuck()));
    return;
  }
  watchdog_progress_ = progress;
  engine_.After(watchdog_interval_, [this]() { WatchdogTick(); });
}

// ---------------------------------------------------------------------------
// Task completion bookkeeping
// ---------------------------------------------------------------------------

void Executor::OnTaskStepDone(int task) {
  HARMONY_CHECK_GT(task_steps_remaining_[task], 0);
  if (--task_steps_remaining_[task] == 0) {
    task_waiters_[task].RunAll(&engine_);
  }
}

// ---------------------------------------------------------------------------
// GPU step driving
// ---------------------------------------------------------------------------

void Executor::TryIssue(int d) {
  if (failed_ || issue_busy_[d]) return;
  // Amortized cancel poll: Cancelled() reads a wall clock, so consult it
  // once every 256 issue attempts rather than on the simulator hot path.
  if (options_->cancel != nullptr && (++cancel_poll_ & 0xffu) == 0 &&
      PollCancel()) {
    return;
  }
  if (issue_next_[d] >= program_->steps[d].size()) return;
  const size_t in_flight = issue_next_[d] - steps_done_[d];
  if (in_flight > static_cast<size_t>(issue_window_)) return;
  issue_busy_[d] = true;
  const int idx = static_cast<int>(issue_next_[d]++);
  IssueStep(d, idx);
}

void Executor::IssueStep(int d, int step_idx) {
  const Step& s = program_->steps[d][step_idx];
  const size_t flat = step_base_[d] + static_cast<size_t>(step_idx);
  StepJoin& join = joins_[flat];
  join.commits_left = static_cast<int>(s.needs.size() + s.produces.size()) + 1;
  join.arrivals_left = join.commits_left;

  // Push the compute op first: the sentinel commit below can re-enter
  // TryIssue and push the next step's op, and the compute stream must stay
  // in step order. Labelled "t<task> step<i>".
  streams_[d]
      ->compute.PushTimed({&ready_[flat]}, s.compute, s.task, "step", step_idx)
      ->OnFire([this, d, step_idx]() { FinishStep(d, step_idx); });

  const StepToken token{d, step_idx};
  for (const NeedSpec& n : s.needs) residency_.EnsureResident(n, token);
  for (const ProduceSpec& p : s.produces) {
    residency_.AllocForProduce(p, token);
  }
  // The +1 sentinel resolves immediately (handles empty lists).
  OnCommitted(token);
  OnArrived(token);
}

void Executor::OnCommitted(StepToken token) {
  if (--joins_[FlatStep(token)].commits_left == 0) {
    issue_busy_[token.device] = false;
    TryIssue(token.device);
  }
}

void Executor::OnArrived(StepToken token) {
  const size_t flat = FlatStep(token);
  if (--joins_[flat].arrivals_left == 0) ready_[flat].Fire();
}

void Executor::FinishStep(int d, int step_idx) {
  const Step& s = program_->steps[d][step_idx];

  // 1. Unpin this step's tensors.
  for (const NeedSpec& n : s.needs) residency_.UnpinNeed(d, n.id);
  // 2. Finalize produced tensors.
  for (const ProduceSpec& p : s.produces) residency_.FinalizeProduce(d, p);
  // 3. Dirty marks (gradient accumulation, updated weights).
  for (const TensorId k : s.mark_dirty) residency_.MarkDirty(k);
  // 4. Host copies (checkpoints, master weight write-back).
  for (const TensorId k : s.copy_to_host) residency_.CopyToHost(d, k);
  // 5. Moves to host (gradient push, optimizer state write-back).
  for (const TensorId k : s.move_to_host) residency_.MoveToHost(d, k);
  // 6. Dereference consumed inputs.
  for (const TensorId k : s.derefs) residency_.Deref(k);

  ++steps_done_[d];
  OnTaskStepDone(s.task);
  // Unpins and frees above may unblock queued allocations anywhere.
  residency_.PumpAll();
  TryIssue(d);
}

// ---------------------------------------------------------------------------
// CPU step driving
// ---------------------------------------------------------------------------

void Executor::AdvanceCpu(int d) {
  if (failed_ || cpu_next_[d] >= program_->cpu_steps[d].size()) return;
  const CpuStep& s = program_->cpu_steps[d][cpu_next_[d]];
  auto retry = [this, d]() { AdvanceCpu(d); };

  // Wait for producing (and, without jit, all) backward tasks first; then
  // re-check that every gradient actually has a final host copy — an early
  // eviction can put a *partial* gradient on host, so the host check only
  // counts once the producers are done.
  for (int task : s.wait_tasks) {
    if (task_steps_remaining_[task] != 0) {
      task_waiters_[task].Add(&engine_, retry);
      return;
    }
  }
  for (const TensorId k : s.host_needs) {
    if (!residency_.HostReady(k)) {
      residency_.AddHostWaiter(k, retry);
      return;
    }
  }

  // Labelled "t<task> cpu-update".
  streams_[d]
      ->cpu.PushTimed({}, s.duration, s.task, "cpu-update")
      ->OnFire([this, d]() {
        const CpuStep& step = program_->cpu_steps[d][cpu_next_[d]];
        for (const TensorId k : step.host_frees) {
          residency_.ReleaseHostCopy(k);
        }
        OnTaskStepDone(step.task);
        ++cpu_next_[d];
        AdvanceCpu(d);
      });
}

// ---------------------------------------------------------------------------
// Deadlock diagnostics
// ---------------------------------------------------------------------------

std::string Executor::DescribeStuck() {
  std::string out;
  const StepProgram& program = *program_;
  for (int d = 0; d < num_devices_; ++d) {
    if (steps_done_[d] < program.steps[d].size()) {
      const size_t idx = steps_done_[d];
      const Step& s = program.steps[d][idx];
      out += "; d" + std::to_string(d) + " stuck at step " +
             std::to_string(idx) + "/" +
             std::to_string(program.steps[d].size()) + " (task " +
             std::to_string(s.task) + ") waiting on " +
             residency_.DescribeWait(d, s);
    }
    if (cpu_next_[d] < program.cpu_steps[d].size()) {
      const CpuStep& s = program.cpu_steps[d][cpu_next_[d]];
      std::string waits;
      for (int task : s.wait_tasks) {
        if (task_steps_remaining_[task] == 0) continue;
        if (!waits.empty()) waits += ", ";
        waits += "task " + std::to_string(task);
      }
      for (const TensorId k : s.host_needs) {
        if (residency_.HostReady(k)) continue;
        if (!waits.empty()) waits += ", ";
        waits += program.tensors.key(k).ToString() + " [no host copy]";
      }
      if (waits.empty()) waits = "cpu stream backlog";
      out += "; cpu" + std::to_string(d) + " stuck at update (task " +
             std::to_string(s.task) + ") waiting on " + waits;
    }
  }
  if (chaos_ != nullptr) out += chaos_->DescribeActive();
  return out;
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

Result<RunMetrics> Executor::Run(const hw::MachineSpec& machine,
                                 const core::TaskGraph& graph,
                                 const RuntimeOptions& options,
                                 const StepProgram& program) {
  machine_ = &machine;
  graph_ = &graph;
  options_ = &options;
  program_ = &program;
  num_devices_ = graph.num_devices;
  // Every return path leaves the executor empty for the next run.
  struct RunEnd {
    Executor* executor;
    ~RunEnd() { executor->EndRun(); }
  } run_end{this};
  return Drive();
}

void Executor::EndRun() {
  // Drop, never run, whatever a failed or wedged run left pending: the
  // owners of held records first, then the engine's queue.
  residency_.DropWaiters();
  for (sim::WaiterList& waiters : task_waiters_) waiters.DropAll(&engine_);
  const size_t num_steps = joins_.size();
  for (size_t i = 0; i < num_steps; ++i) ready_[i].Reset();
  for (const auto& s : streams_) {
    s->compute.Reset();
    s->swapin.Reset();
    s->swapout.Reset();
    s->p2pin.Reset();
    s->cpu.Reset();
  }
  flows_.Reset(net_.capacities());
  engine_.Reset();
  chaos_.reset();
  injector_.reset();
  bus_.Clear();
  machine_ = nullptr;
  graph_ = nullptr;
  options_ = nullptr;
  program_ = nullptr;
  num_devices_ = 0;
}

Result<RunMetrics> Executor::Drive() {
  const hw::MachineSpec& machine = *machine_;
  const core::TaskGraph& graph = *graph_;
  const RuntimeOptions& options = *options_;
  const StepProgram& program = *program_;
  const int N = num_devices_;
  HARMONY_CHECK_LE(N, machine.num_gpus);
  HARMONY_CHECK_LE(N, hw::kMaxGpus);
  HARMONY_CHECK_EQ(program.steps.size(), static_cast<size_t>(N))
      << "program compiled for another task graph";
  failed_ = false;
  failure_ = Status::Ok();
  cancel_poll_ = 0;
  metrics_.Reset(N);

  // Static host footprint: master weights + optimizer state (+ scheme
  // overheads like ZeRO staging buffers).
  const Bytes static_host =
      options.host_static_overhead + program.static_host_bytes;
  if (options.enforce_host_capacity && static_host > machine.host_memory) {
    return Status::OutOfMemory(
        "host memory exhausted before training: static state " +
        FormatBytes(static_host) + " exceeds " +
        FormatBytes(machine.host_memory));
  }

  // Observers: the HARMONY_RUNTIME_TRACE filter, then the caller's sinks.
  if (const char* f = trace::FilterSink::EnvFilter()) {
    if (filter_ == nullptr) filter_ = std::make_unique<trace::FilterSink>(f);
    bus_.AddSink(filter_.get());
  }
  for (trace::TraceSink* sink : options.trace_sinks) {
    if (sink != nullptr) bus_.AddSink(sink);
  }
  const bool traced = bus_.active();

  net_.Reset(machine);
  flows_.Reset(net_.capacities());
  if (traced) flows_.BindTrace(&bus_);
  capacities_.clear();
  while (streams_.size() < static_cast<size_t>(N)) {
    streams_.push_back(std::make_unique<DeviceStreams>(&engine_));
  }
  for (int d = 0; d < N; ++d) {
    Bytes reserved = d < static_cast<int>(graph.device_reserved_bytes.size())
                         ? graph.device_reserved_bytes[d]
                         : 0;
    const Bytes capacity = machine.GpuAt(d).usable_memory() - reserved;
    if (capacity <= 0) {
      return Status::OutOfMemory("device reservation exceeds GPU capacity");
    }
    capacities_.push_back(capacity);
    if (traced) {
      DeviceStreams& s = *streams_[d];
      s.compute.BindTrace(&bus_, d, trace::Lane::kCompute);
      s.swapin.BindTrace(&bus_, d, trace::Lane::kSwapIn);
      s.swapout.BindTrace(&bus_, d, trace::Lane::kSwapOut);
      s.p2pin.BindTrace(&bus_, d, trace::Lane::kP2pIn);
      s.cpu.BindTrace(&bus_, d, trace::Lane::kCpu);
    }
  }

  // Fault injection: build the seeded decision oracle and the engine-side
  // chaos driver before the residency layer, which borrows both.
  const fault::FaultPlan& plan = options.fault_plan;
  if (plan.enabled && plan.Any()) {
    injector_ = std::make_unique<fault::FaultInjector>(plan);
    chaos_ = std::make_unique<fault::ChaosDriver>(&engine_, &bus_, &metrics_,
                                                  injector_.get());
    chaos_->SetStopProbe([this]() { return failed_ || AllWorkDone(); });
    chaos_->SetFail([this](Status status) { Fail(std::move(status)); });
  }
  residency_.Reset(graph, program, capacities_, &bus_, &metrics_,
                   injector_.get(),
                   injector_ != nullptr && plan.transfer_failure_rate > 0
                       ? chaos_.get()
                       : nullptr);
  residency_.SetStaticHostBytes(static_host);

  size_t num_steps = 0;
  step_base_.clear();
  for (const auto& dev : program.steps) {
    step_base_.push_back(num_steps);
    num_steps += dev.size();
  }
  joins_.assign(num_steps, {});
  while (ready_.size() < num_steps) ready_.emplace_back(&engine_);
  issue_next_.assign(N, 0);
  steps_done_.assign(N, 0);
  issue_busy_.assign(N, false);
  cpu_next_.assign(N, 0);
  issue_window_ = graph.flags.prefetch ? 2 : 0;

  task_steps_remaining_ = program.task_step_counts;
  if (task_waiters_.size() < static_cast<size_t>(graph.num_tasks())) {
    task_waiters_.resize(graph.num_tasks());
  }

  // Arm the recurring fault schedules (state vectors above are live now, so
  // the driver's stop probe is safe to consult).
  if (chaos_ != nullptr) {
    if (plan.stream_stall_rate > 0 && plan.stream_stall_duration > 0) {
      for (int d = 0; d < N; ++d) {
        DeviceStreams& s = *streams_[d];
        chaos_->AttachStreamStalls(&s.compute, d);
        chaos_->AttachStreamStalls(&s.swapin, d);
        chaos_->AttachStreamStalls(&s.swapout, d);
        chaos_->AttachStreamStalls(&s.p2pin, d);
      }
    }
    if (plan.link_flap_interval > 0 && plan.link_flap_duration > 0) {
      chaos_->ArmLinkFlaps(&flows_, net_.num_links(),
                           [this](int link) { return net_.LinkName(link); });
    }
    if (plan.mem_pressure_interval > 0 && plan.mem_pressure_duration > 0 &&
        plan.mem_pressure_fraction > 0) {
      chaos_->ArmMemoryPressure(
          N,
          [this](int d) {
            return residency_.ApplyFaultPressure(
                d, options_->fault_plan.mem_pressure_fraction);
          },
          [this](int d) { return residency_.ReleaseFaultPressure(d); });
    }
    // Persistent targeted degradations: the machine changes and stays
    // changed. Pressure is applied once and never released — the health
    // monitor upstairs is what turns these into a re-plan.
    if (plan.link_fail_at > 0 && plan.link_fail_link >= 0) {
      if (plan.link_fail_link >= net_.num_links() ||
          plan.link_fail_factor <= 0) {
        return Status::InvalidArgument(
            "fault plan: link-fail link " +
            std::to_string(plan.link_fail_link) + " / factor " +
            std::to_string(plan.link_fail_factor) + " invalid (machine has " +
            std::to_string(net_.num_links()) + " links)");
      }
      chaos_->ArmPersistentLinkFault(&flows_, plan.link_fail_link,
                                     plan.link_fail_factor, plan.link_fail_at);
    }
    if (plan.mem_shrink_at > 0 && plan.mem_shrink_device >= 0 &&
        plan.mem_shrink_fraction > 0) {
      if (plan.mem_shrink_device >= N || plan.mem_shrink_fraction >= 1.0) {
        return Status::InvalidArgument(
            "fault plan: mem-shrink device " +
            std::to_string(plan.mem_shrink_device) + " / fraction " +
            std::to_string(plan.mem_shrink_fraction) + " invalid (" +
            std::to_string(N) + " active devices)");
      }
      chaos_->ArmPersistentMemShrink(
          plan.mem_shrink_device, plan.mem_shrink_at, [this](int d) {
            return residency_.ApplyFaultPressure(
                d, options_->fault_plan.mem_shrink_fraction);
          });
    }
  }
  // Watchdog: explicit interval, or a 60s default whenever chaos or a cancel
  // token makes a wedge survivable-by-diagnosis rather than fatal-by-CHECK.
  watchdog_interval_ = options.watchdog_interval;
  if (watchdog_interval_ == 0 &&
      (chaos_ != nullptr || options.cancel != nullptr)) {
    watchdog_interval_ = 60.0;
  }
  if (watchdog_interval_ > 0) {
    watchdog_progress_ = -1;
    engine_.After(watchdog_interval_, [this]() { WatchdogTick(); });
  }

  for (int d = 0; d < N; ++d) {
    TryIssue(d);
    AdvanceCpu(d);
  }
  engine_.Run();
  // Iteration end is when the last stream op completed, not when the engine's
  // event queue drained: an armed watchdog (or a pending chaos timer) leaves
  // one final no-op tick on the clock past the real work, and the engine's
  // drain time would report that tick as iteration time.
  TimeSec end = 0.0;
  for (int d = 0; d < N; ++d) {
    const DeviceStreams& s = *streams_[d];
    for (const sim::Stream* stream :
         {&s.compute, &s.swapin, &s.swapout, &s.p2pin, &s.cpu}) {
      end = std::max(end, stream->last_completion());
    }
  }

  if (failed_) return failure_;
  for (int d = 0; d < N; ++d) {
    if (steps_done_[d] != program.steps[d].size() ||
        cpu_next_[d] != program.cpu_steps[d].size()) {
      for (int dev = 0; dev < N; ++dev) {
        if (residency_.HasPendingAllocs(dev)) {
          // Stalled with allocations outstanding: the working set cannot fit
          // even with everything evictable gone.
          return Status::OutOfMemory(
              "device " + std::to_string(dev) +
              " wedged on allocation: working set exceeds GPU capacity"
              "; pending: " +
              residency_.DescribePendingAllocs(dev) + DescribeStuck());
        }
      }
      return Status::Internal(
          "device " + std::to_string(d) + " stalled: executed " +
          std::to_string(steps_done_[d]) + "/" +
          std::to_string(program.steps[d].size()) +
          " steps (schedule deadlock)" + DescribeStuck());
    }
  }
  if (options.enforce_host_capacity &&
      metrics_.peak_host_bytes() > machine.host_memory) {
    return Status::OutOfMemory("host memory exhausted during training: peak " +
                               FormatBytes(metrics_.peak_host_bytes()) +
                               " exceeds " + FormatBytes(machine.host_memory));
  }

  RunMetrics metrics;
  metrics.iteration_time = end;
  metrics.swap_in_bytes.assign(metrics_.swap_in_bytes().begin(),
                               metrics_.swap_in_bytes().end());
  metrics.swap_out_bytes.assign(metrics_.swap_out_bytes().begin(),
                                metrics_.swap_out_bytes().end());
  metrics.p2p_bytes.assign(metrics_.p2p_bytes().begin(),
                           metrics_.p2p_bytes().end());
  // Busy time comes from the stream counters, not the trace fold: PushTimed
  // charges each op its profiled duration directly, so the sum is invariant
  // under the time translation injected faults cause — the chaos harness
  // asserts it bit-identical against the fault-free run. (The trace-folded
  // end-minus-begin sum drifts by ulps when op start times shift.)
  for (int d = 0; d < N; ++d) {
    metrics.compute_busy.push_back(streams_[d]->compute.busy_time());
  }
  metrics.peak_device_bytes.assign(metrics_.peak_device_bytes().begin(),
                                   metrics_.peak_device_bytes().end());
  metrics.peak_host_bytes = metrics_.peak_host_bytes();
  metrics.evictions = metrics_.evictions();
  metrics.clean_drops = metrics_.clean_drops();
  metrics.faults_injected = metrics_.faults_injected();
  metrics.faults_recovered = metrics_.faults_recovered();
  metrics.recovery_bytes = metrics_.recovery_bytes();
  return metrics;
}

}  // namespace harmony::runtime
