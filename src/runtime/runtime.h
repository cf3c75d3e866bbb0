#ifndef HARMONY_RUNTIME_RUNTIME_H_
#define HARMONY_RUNTIME_RUNTIME_H_

#include <numeric>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/task_graph.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "model/layer.h"
#include "model/memory.h"
#include "runtime/step.h"

namespace harmony::trace {
class TraceSink;
}  // namespace harmony::trace

namespace harmony::runtime {

/// Measurements from executing one training iteration.
struct RunMetrics {
  TimeSec iteration_time = 0;

  /// CPU->GPU and GPU->CPU traffic per device ("swap load", Fig 10).
  std::vector<Bytes> swap_in_bytes;
  std::vector<Bytes> swap_out_bytes;
  /// GPU->GPU traffic attributed to the receiving device.
  std::vector<Bytes> p2p_bytes;

  std::vector<TimeSec> compute_busy;      // per device compute-stream busy time
  std::vector<Bytes> peak_device_bytes;   // memory-manager high-water mark
  Bytes peak_host_bytes = 0;
  int64_t evictions = 0;    // evictions that required a transfer
  int64_t clean_drops = 0;  // evictions satisfied by dropping a clean copy

  /// Chaos accounting (zero on fault-free runs). Recovery transfers are
  /// *extra* traffic the self-healing paths moved (emergency evictions,
  /// refetches, retried payloads); they are deliberately excluded from the
  /// semantic swap/p2p accounting above, which a survivable fault schedule
  /// must leave bit-identical to the fault-free run.
  int64_t faults_injected = 0;
  int64_t faults_recovered = 0;
  Bytes recovery_bytes = 0;

  Bytes device_swap(int d) const { return swap_in_bytes[d] + swap_out_bytes[d]; }
  Bytes total_swap() const {
    return std::accumulate(swap_in_bytes.begin(), swap_in_bytes.end(), Bytes{0}) +
           std::accumulate(swap_out_bytes.begin(), swap_out_bytes.end(), Bytes{0});
  }
  Bytes max_device_swap() const {
    Bytes m = 0;
    for (size_t d = 0; d < swap_in_bytes.size(); ++d) {
      m = std::max(m, device_swap(static_cast<int>(d)));
    }
    return m;
  }
  /// Samples per second given the iteration's global minibatch.
  double Throughput(int minibatch) const {
    return iteration_time > 0 ? minibatch / iteration_time : 0.0;
  }
};

struct RuntimeOptions {
  model::Optimizer optimizer = model::Optimizer::kAdam;
  /// Extra host bytes the scheme permanently occupies (e.g. ZeRO-Infinity's
  /// pinned staging buffers); counts toward the host-memory capacity check.
  Bytes host_static_overhead = 0;
  /// Abort with OutOfMemory if peak host usage exceeds the machine's host
  /// memory (Fig 15's 40B-parameter wall). Checked before execution from the
  /// static state and during execution from the dynamic peak.
  bool enforce_host_capacity = true;
  /// Extra observers attached to the execution's trace bus (borrowed, e.g. a
  /// ChromeTraceSink); MetricsSink and the HARMONY_RUNTIME_TRACE filter are
  /// always attached. Null entries are ignored.
  std::vector<trace::TraceSink*> trace_sinks;

  /// Deterministic fault injection (chaos runs). Default-constructed =
  /// disabled: the runtime pays one branch per potential injection site.
  fault::FaultPlan fault_plan;

  /// Cooperative cancellation: polled periodically by the executor (and by
  /// the watchdog, when armed), so a wedged or over-deadline run unwinds
  /// with Cancelled / DeadlineExceeded instead of spinning. The watchdog
  /// also *cancels* the token on a no-progress escalation, unwinding any
  /// cooperating layers (search, serve) sharing it. Borrowed.
  common::CancelToken* cancel = nullptr;

  /// Executor watchdog: when armed, a no-progress interval of this many
  /// *simulated* seconds fails the run with DescribeStuck() diagnostics (and
  /// cancels `cancel`, if set) instead of wedging forever. > 0 arms it
  /// explicitly; 0 (default) auto-arms at 60s whenever fault injection or a
  /// cancel token is present; < 0 disables it outright. While armed, the
  /// reported iteration_time may include up to one trailing watchdog tick.
  TimeSec watchdog_interval = 0;
};

/// Harmony's Runtime (Sec 4.4), generalized to execute *any* TaskGraph (the
/// baselines lower to the same IR). One simulated process per GPU, five
/// CUDA-like streams each, a central memory manager with LRU demand paging,
/// double-buffered prefetch, p2p transfers, and CPU-offloaded weight update.
/// Swap behaviour (repeated / unnecessary / unbalanced swaps) emerges from
/// the schedule and memory pressure rather than being scripted.
class Runtime {
 public:
  Runtime(hw::MachineSpec machine, const model::SequentialModel& model);

  /// Executes one training iteration of `graph` and returns its metrics:
  /// lowers it with a StepCompiler, then runs that program (below). Fails
  /// with OutOfMemory when a working set cannot fit even with all evictable
  /// tensors swapped out, or when host memory is exhausted.
  Result<RunMetrics> Execute(const core::TaskGraph& graph,
                             const RuntimeOptions& options = {}) const;

  /// Executes `program`, compiled from `graph` by a StepCompiler on this
  /// runtime's machine and model with `options.optimizer`. The program is
  /// borrowed read-only and left as it was, so a caller that runs one graph
  /// many times (the adaptive runner's iterations) compiles it once.
  Result<RunMetrics> Execute(const core::TaskGraph& graph,
                             const StepProgram& program,
                             const RuntimeOptions& options = {}) const;

 private:
  hw::MachineSpec machine_;
  const model::SequentialModel& model_;
};

}  // namespace harmony::runtime

#endif  // HARMONY_RUNTIME_RUNTIME_H_
