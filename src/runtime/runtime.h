#ifndef HARMONY_RUNTIME_RUNTIME_H_
#define HARMONY_RUNTIME_RUNTIME_H_

#include <algorithm>
#include <array>
#include <initializer_list>
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

/// One value per device: up to kInline stored inline, so the results of a
/// run on the paper's 4- and 8-GPU servers cost no allocation; more spill to
/// the heap. A vector-like subset: indexing, iteration, push_back, assign.
template <typename T>
class PerDevice {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;
  static constexpr size_t kInline = 8;

  PerDevice() = default;
  PerDevice(std::initializer_list<T> values) {
    assign(values.begin(), values.end());
  }

  size_t size() const { return heap_.empty() ? count_ : heap_.size(); }
  bool empty() const { return size() == 0; }
  T* data() { return heap_.empty() ? inline_.data() : heap_.data(); }
  const T* data() const {
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  T& operator[](size_t d) { return data()[d]; }
  const T& operator[](size_t d) const { return data()[d]; }
  T* begin() { return data(); }
  T* end() { return data() + size(); }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }

  void push_back(const T& v) {
    if (heap_.empty() && count_ < kInline) {
      inline_[count_++] = v;
      return;
    }
    if (heap_.empty()) heap_.assign(inline_.begin(), inline_.end());
    heap_.push_back(v);
  }
  template <typename It>
  void assign(It first, It last) {
    count_ = 0;
    heap_.clear();
    for (; first != last; ++first) push_back(*first);
  }

  bool operator==(const PerDevice& o) const {
    return std::equal(begin(), end(), o.begin(), o.end());
  }

 private:
  std::array<T, kInline> inline_{};
  size_t count_ = 0;     // values in inline_, while heap_ is empty
  std::vector<T> heap_;  // every value, once there are more than kInline
};

/// Measurements from executing one training iteration.
struct RunMetrics {
  TimeSec iteration_time = 0;

  /// CPU->GPU and GPU->CPU traffic per device ("swap load", Fig 10).
  PerDevice<Bytes> swap_in_bytes;
  PerDevice<Bytes> swap_out_bytes;
  /// GPU->GPU traffic attributed to the receiving device.
  PerDevice<Bytes> p2p_bytes;

  PerDevice<TimeSec> compute_busy;      // per device compute-stream busy time
  PerDevice<Bytes> peak_device_bytes;   // memory-manager high-water mark
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
  /// Observers attached to the execution's trace bus (borrowed, e.g. a
  /// ChromeTraceSink), after the HARMONY_RUNTIME_TRACE filter when that is
  /// set. RunMetrics is folded without them. Null entries are ignored.
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
///
/// Each thread keeps one execution context (the executor's engine, streams,
/// network, residency tables and metrics, plus a compiled-program buffer)
/// and resets it for every Execute instead of building a new one, so a warm
/// Execute allocates nothing. The context is released after each run: it
/// holds no reference to a caller's graph, program or sinks between runs.
/// An Execute that starts while its thread's context is in use (say, from a
/// trace sink) runs on a fresh context of the same type.
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
