#ifndef HARMONY_RUNTIME_RESIDENCY_H_
#define HARMONY_RUNTIME_RESIDENCY_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/task_graph.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "runtime/memory_manager.h"
#include "runtime/step.h"
#include "runtime/tensor.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/stream.h"
#include "trace/metrics_sink.h"
#include "trace/trace.h"

namespace harmony::runtime {

/// The five CUDA-like streams of one GPU (Sec 4.4). The executor owns them and
/// drives compute and cpu; the residency layer issues transfers on the rest.
struct DeviceStreams {
  explicit DeviceStreams(sim::Engine* engine)
      : compute(engine), swapin(engine), swapout(engine), p2pin(engine),
        cpu(engine) {}
  sim::Stream compute, swapin, swapout, p2pin, cpu;
};

/// The residency layer of the execution pipeline: Harmony's tensor-lifetime
/// state machine (Sec 4.4) over per-device memory. Owns the tensor table, the
/// device memory managers, the allocation queues, and every host<->device /
/// peer transfer decision: demand fetches, just-enough LRU eviction (or
/// LMS-style evict-everything when smart_eviction is off), clean drops of
/// host-backed copies, gradient pushes, and checkpoint write-backs.
///
/// The executor above it only says *what* a step needs and produces; this
/// layer decides *where* the bytes come from and accounts the bytes: swap and
/// p2p volume, evictions, clean drops and memory high-water marks are folded
/// straight into the run's MetricsSink, and published on the trace bus
/// (kSwapIn/OutIssued, kP2pIssued, kEvict, kCleanDrop, kAllocStall,
/// kHostBytes, kDeviceBytes) when a sink is attached.
///
/// All tensors are addressed by the program's dense TensorId; the program's
/// catalog resolves ids back to structural keys for diagnostics only.
///
/// One Residency serves any number of runs: Reset binds the next run and
/// reuses every table, and DropWaiters ends one.
class Residency {
 public:
  /// Services the residency layer borrows from the executor for its whole
  /// lifetime: the simulation clock and transfer machinery, the run-failure
  /// channel, and a probe for "more in-flight steps will unpin tensors soon"
  /// (which turns an empty victim list into a wait instead of an OOM).
  struct Env {
    sim::Engine* engine = nullptr;
    sim::FlowNetwork* flows = nullptr;
    const sim::Interconnect* net = nullptr;
    /// The executor's streams, indexed by device.
    const std::vector<std::unique_ptr<DeviceStreams>>* streams = nullptr;
    std::function<void(Status)> fail;
    std::function<bool()> failed;
    std::function<bool(int)> steps_in_flight;  // >1 outstanding steps on d?
    /// Step continuations: a step's allocation was granted (its issue slot
    /// can recycle), and one of its tensors is resident.
    std::function<void(StepToken)> committed;
    std::function<void(StepToken)> arrived;
  };

  explicit Residency(Env env) : env_(std::move(env)) {}
  Residency(const Residency&) = delete;
  Residency& operator=(const Residency&) = delete;
  ~Residency() { DropWaiters(); }

  /// Binds a run of `program` (compiled from `graph`, both borrowed until
  /// the next Reset) on devices of `capacities` bytes: every tensor starts
  /// unproduced and every device empty. `metrics` folds the byte accounting;
  /// `bus` carries it to attached sinks. `injector` is the fault decision
  /// oracle (null = chaos disabled: every injection site pays one branch);
  /// `reliable`, when set, wraps every transfer in its retry-with-backoff
  /// loop instead of FlowNetwork::StartFlow.
  void Reset(const core::TaskGraph& graph, const StepProgram& program,
             std::span<const Bytes> capacities, trace::TraceBus* bus,
             trace::MetricsSink* metrics, fault::FaultInjector* injector,
             fault::ChaosDriver* reliable);
  /// Drops the continuations of a run that ended with tensors still awaited
  /// (a failed or wedged schedule) without running them.
  void DropWaiters();

  // --- allocation & fetching (issue side) ---------------------------------

  /// Makes `need` usable on the device of `token`'s step: waits for
  /// production if needed, then pins an existing copy or allocates + fetches
  /// one (host swap-in, p2p, or a host bounce when p2p is off). Env::committed
  /// fires for `token` once the allocation is granted, Env::arrived once the
  /// bytes are resident. `need` lives in the borrowed program, so a wait
  /// holds only (need, token).
  void EnsureResident(const NeedSpec& need, StepToken token);

  /// Allocation for a tensor `token`'s step will write: records the size and
  /// queues the allocation (residency is finalized by FinalizeProduce); the
  /// grant commits and arrives for `token`.
  void AllocForProduce(const ProduceSpec& p, StepToken token);

  /// Drains device `d`'s allocation queue as far as memory allows.
  void PumpAllocator(int d);
  /// Re-pumps every device with queued allocations (after unpins/frees that
  /// may unblock any queue). Most steps find every queue empty.
  void PumpAll() {
    for (int d = 0; d < num_devices_; ++d) {
      if (!alloc_queue_[d].empty()) PumpAllocator(d);
    }
  }

  // --- step-completion actions (finish side) ------------------------------

  void UnpinNeed(int d, TensorId id);
  /// Finalizes a produced tensor: residency, dirty bit, refcount seeding,
  /// creation-waiter wakeup, and the immediate free of unconsumed data.
  void FinalizeProduce(int d, const ProduceSpec& p);
  /// Newest data now on GPU; any host copy is stale.
  void MarkDirty(TensorId id);
  /// Checkpoint / master-weight write-back: async copy, GPU copy stays.
  void CopyToHost(int d, TensorId id);
  /// Gradient push / optimizer-state write-back: async move, GPU copy
  /// released on completion (concurrent consumers re-fetch from host).
  void MoveToHost(int d, TensorId id);
  /// Consumer finished with a data tensor; frees it on the last reference.
  void Deref(TensorId id);

  // --- host-side hooks (CPU update steps) ---------------------------------

  /// True when a final host copy of `id` exists.
  bool HostReady(TensorId id);
  /// Runs `fn` when a host copy of `id` next becomes available.
  template <typename F>
  void AddHostWaiter(TensorId id, F&& fn) {
    table_.Get(id).host_waiters.Add(env_.engine, std::forward<F>(fn));
  }
  /// Releases a consumed host copy (gradient applied by the CPU optimizer).
  void ReleaseHostCopy(TensorId id);

  // --- fault hooks --------------------------------------------------------

  /// Injected co-tenant pressure spike: reserves fraction x capacity on
  /// device `d` and emergency-evicts (recovery-classified) resident tensors
  /// until the books balance. Returns the bytes stolen.
  Bytes ApplyFaultPressure(int d, double fraction);
  /// Ends the spike and re-pumps the allocator. Returns the bytes released.
  Bytes ReleaseFaultPressure(int d);

  /// Accounts the permanently-resident host footprint (master weights,
  /// optimizer state, scheme overheads) before execution starts.
  void SetStaticHostBytes(Bytes bytes);
  Bytes host_bytes() const { return host_bytes_; }

  // --- diagnostics --------------------------------------------------------

  bool HasPendingAllocs(int d) const { return !alloc_queue_[d].empty(); }
  /// Queued-but-unserved allocations on `d`, e.g. "W[L3 d0](256.0 MiB)".
  std::string DescribePendingAllocs(int d) const;
  /// One-line status of every unmet need of a stuck step, naming the tensors
  /// it waits on and why ("unproduced", "evicting", "fetch-in-flight", ...).
  std::string DescribeWait(int d, const Step& step);
  /// Structural key for `id` (diagnostics / trace detail).
  const TensorKey& KeyOf(TensorId id) const { return program_->tensors.key(id); }

 private:
  /// One queued allocation: a produce (granted = commit + arrive) or a fetch
  /// from `src` (-1 = host), both on behalf of `token`'s step.
  struct AllocReq {
    TensorId id;
    Bytes bytes;
    StepToken token;
    bool fetch = false;
    int src = -1;
    int fault_attempts = 0;    // injected alloc-failures consumed so far
    bool fault_waiting = false;  // a backoff retry timer owns this slot
  };
  /// One device's allocation FIFO: a vector consumed from a head index, so
  /// its storage is reused for the whole run. push_back compacts the
  /// consumed prefix and may reallocate, so a front() reference does not
  /// survive anything that can queue a request (Grant, StartEviction).
  class AllocQueue {
   public:
    void clear() {
      reqs_.clear();
      head_ = 0;
    }
    bool empty() const { return head_ == reqs_.size(); }
    AllocReq& front() { return reqs_[head_]; }
    void pop_front() { ++head_; }
    void push_back(const AllocReq& req) {
      if (head_ * 2 >= reqs_.size()) {
        reqs_.erase(reqs_.begin(),
                    reqs_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
      reqs_.push_back(req);
    }
    std::vector<AllocReq>::const_iterator begin() const {
      return reqs_.begin() + static_cast<std::ptrdiff_t>(head_);
    }
    std::vector<AllocReq>::const_iterator end() const { return reqs_.end(); }

   private:
    std::vector<AllocReq> reqs_;
    size_t head_ = 0;
  };
  /// Queues `req` on `d`. FIFO per device; triggers eviction on pressure.
  void RequestAlloc(int d, const AllocReq& req);
  /// The allocation of `req` was granted on `d` with the tensor pinned.
  void Grant(int d, const AllocReq& req);
  /// Granted fetch: moves the bytes from `src` (-1 = host) to the device of
  /// `token`'s step.
  void StartFetch(TensorId id, int src, StepToken token);
  /// The fetched copy landed: releases the source and wakes waiters.
  void FinishFetch(TensorId id, int src, StepToken token);
  /// Starts a flow, through the chaos retry wrapper when transfer failures
  /// are armed.
  template <typename F>
  void Transfer(const std::vector<int>& path, Bytes bytes, int device,
                F&& done) {
    if (reliable_ != nullptr) {
      reliable_->StartReliableFlow(env_.flows, path, bytes, device,
                                   std::forward<F>(done));
    } else {
      env_.flows->StartFlow(path, bytes, std::forward<F>(done));
    }
  }

  bool AutoCreate(TensorId id, Bytes bytes);
  /// `fault_recovery` evictions exist only because an injected pressure
  /// spike forced them: they account as kFaultRecovered (not kEvict /
  /// kCleanDrop / kSwapOutIssued) and tag the tensor so the healing refetch
  /// is recovery traffic too.
  void StartEviction(int d, TensorId id, bool fault_recovery = false);
  void HostArrived(TensorId id);
  void AddHostBuffer(TensorState* st);
  void DropHostBuffer(TensorState* st);
  void FreeTensor(TensorId id);
  int RefCount(TensorId id) const { return program_->ref_counts[id]; }

  sim::Stream& swapin(int d) { return (*env_.streams)[d]->swapin; }
  sim::Stream& swapout(int d) { return (*env_.streams)[d]->swapout; }
  sim::Stream& p2pin(int d) { return (*env_.streams)[d]->p2pin; }

  /// Folds an accounting instant into the metrics; publishes it when a sink
  /// is attached.
  void EmitInstant(trace::EventKind kind, trace::Lane lane, int device,
                   Bytes bytes) {
    metrics_->Fold(kind, device, bytes);
    if (traced_) Publish(kind, lane, device, bytes, "");
  }
  void EmitFault(trace::EventKind kind, int device, Bytes bytes,
                 const char* detail) {
    metrics_->Fold(kind, device, bytes);
    if (traced_) Publish(kind, trace::Lane::kAlloc, device, bytes, detail);
  }
  void Publish(trace::EventKind kind, trace::Lane lane, int device,
               Bytes bytes, const char* detail);
  /// A tensor state transition, for sinks that asked for them.
  void TraceTensor(TensorId id, const char* detail, int device) {
    if (tensor_events_) PublishTensor(id, detail, device);
  }
  void PublishTensor(TensorId id, const char* detail, int device);

  Env env_;
  // Bound by Reset for one run.
  const core::TaskGraph* graph_ = nullptr;
  const StepProgram* program_ = nullptr;
  trace::TraceBus* bus_ = nullptr;
  trace::MetricsSink* metrics_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  fault::ChaosDriver* reliable_ = nullptr;
  bool traced_ = false;         // a sink is attached to bus_
  bool tensor_events_ = false;  // ... and one wants kTensor transitions
  int num_devices_ = 0;

  // Per device, grown to the most devices any run had; the first
  // num_devices_ are in use.
  std::vector<DeviceMemory> mem_;
  std::vector<AllocQueue> alloc_queue_;
  std::vector<int> evictions_in_flight_;
  TensorTable table_;

  std::vector<TensorId> victims_;  // PickVictims scratch
  std::string tensor_name_;        // kTensor event name buffer

  Bytes host_bytes_ = 0;
};

}  // namespace harmony::runtime

#endif  // HARMONY_RUNTIME_RESIDENCY_H_
