#ifndef HARMONY_TRACE_TRACE_H_
#define HARMONY_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace harmony::trace {

/// Event taxonomy of the execution pipeline. Everything the paper measures
/// (swap volume Fig 10, idle time, estimator-vs-runtime error Fig 14) derives
/// from these events; RunMetrics is folded from them by MetricsSink.
enum class EventKind : uint8_t {
  // Span events: a stream op occupying a device x lane row. Emitted by
  // sim::Stream (runtime) and by the estimator's lane scheduler, so predicted
  // and simulated timelines can be diffed event-by-event.
  kOpBegin,
  kOpEnd,

  // Byte-accounting instants, emitted where the transfer is committed.
  kSwapInIssued,   // host -> device, `bytes` on `device`
  kSwapOutIssued,  // device -> host, `bytes` from `device`
  kP2pIssued,      // peer -> peer, `bytes` attributed to the receiving device

  // Memory-manager instants.
  kEvict,       // an eviction transfer completed (bytes moved to host)
  kCleanDrop,   // eviction satisfied by dropping a host-backed copy, no bytes
  kAllocStall,  // allocator blocked; `bytes` = unmet deficit on `device`

  // Network-level instants from sim::FlowNetwork.
  kFlowBegin,
  kFlowEnd,

  // Tensor state-machine transition (`name` = tensor key, `detail` = the
  // transition). Only emitted when a sink opted in via WantsTensorEvents().
  kTensor,

  // Counter samples (`bytes` = current total).
  kHostBytes,    // host buffer footprint
  kDeviceBytes,  // device memory in use on `device`

  // Fault-injection instants (src/fault). `detail` names the fault kind;
  // kFaultInjected marks the moment a fault fires (a transfer failing, a link
  // flapping down, pressure landing on a device), kFaultRecovered marks the
  // repair that healed it (a retry succeeding, pressure lifting, an emergency
  // eviction completing). `bytes` carries the recovery transfer size when the
  // repair moved data. These are deliberately NOT folded into the semantic
  // swap/p2p accounting: recovery changes time, never the work a plan does.
  kFaultInjected,
  kFaultRecovered,

  // Serving-layer request lifecycle (src/serve). `task` carries the request
  // id; `time` is real wall-clock seconds since the service started (the
  // planner runs in real time, not simulated time). PlanService serializes
  // its emissions, so single-threaded sinks observe a consistent stream.
  kServeAdmit,        // request admitted to the search queue
  kServeCacheHit,     // served from the plan cache; `bytes` = latency in ns
  kServeSearchBegin,  // a worker started the search (`device` = worker id)
  kServeComplete,     // response ready; `bytes` = end-to-end latency in ns
  kServeReject,       // load-shed (queue full) or refused (draining)

  // Reactor frontend instants (PlanServer's event loops). `device` carries
  // the loop index, `task` the connection fd. kServeConnClose's `detail`
  // names why ("eof", "idle-timeout", "frame-deadline", "error", ...);
  // kServeFastPath marks a request answered from the frontend's byte memo
  // without ever parsing JSON, `bytes` = response payload size.
  kServeConnOpen,
  kServeConnClose,
  kServeFastPath,

  // Cluster cache-tier instants (src/cluster). `task` carries the low 32
  // bits of the request fingerprint; kClusterPeerFill marks a plan fetched
  // from the fingerprint's owner peer instead of searched locally,
  // kClusterDiskHit a plan revived from the disk-backed warm store. `bytes`
  // carries the plan envelope size in both cases.
  kClusterPeerFill,
  kClusterDiskHit,

  // Adaptive re-planning instants (src/adapt), emitted between iterations on
  // the global kNet row. `task` carries the iteration index the decision was
  // made at; `bytes` carries the estimated iteration time in nanoseconds
  // (old plan for kReplanTriggered, new plan for kReplanApplied/kRejected).
  // `detail` names the trigger or rejection reason ("link-degrade",
  // "mem-shrink", "below-margin", ...).
  kReplanTriggered,  // health monitor crossed hysteresis; re-plan requested
  kReplanApplied,    // switchover committed at an iteration boundary
  kReplanRejected,   // candidate plan did not clear the gain margin
};

const char* EventKindName(EventKind kind);

/// The per-device rows of the pipeline: one per CUDA-like stream plus the
/// process-level CPU lane and bookkeeping lanes.
enum class Lane : uint8_t {
  kCompute,
  kSwapIn,
  kSwapOut,
  kP2pIn,
  kCpu,
  kHost,
  kNet,
  kAlloc,
  kServe,  // plan-service request lifecycle rows
};

const char* LaneName(Lane lane);

/// One typed trace event: plain data, so building one costs a few stores.
/// Strings are borrowed, never owned: `detail` is static, and `name` (a
/// kTensor event's tensor key) lives in the emitter's buffer and is valid
/// only during OnEvent, so a sink that keeps events must copy it.
///
/// A stream-op span (kOpBegin) carries its label as ids, formatted only by a
/// sink that prints it (OpLabel): `task`, the static tag in `detail` and
/// `index`, e.g. task 3, "step", 7 reads "t3 step7".
struct Event {
  EventKind kind = EventKind::kOpBegin;
  Lane lane = Lane::kCompute;
  int device = -1;  // GPU index (or process index on the kCpu lane); -1 global
  TimeSec time = 0;
  Bytes bytes = 0;
  int task = -1;            // task id, when the emitter knows it
  const char* detail = "";  // static transition / annotation string
  int index = -1;           // op-label index (see OpLabel); -1 for none
  const char* name = "";    // kTensor: tensor key (valid during OnEvent)
};

/// The label of a span's begin event: "t<task>", then " <detail>" when the
/// tag is non-empty, then the index when it is >= 0. Empty for ops without a
/// task (transfers, delays), which render under their lane's name.
std::string OpLabel(const Event& begin);

/// Receives every event emitted on a bus. Implementations must not mutate
/// simulation state; they observe.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const Event& event) = 0;

  /// True if this sink wants per-tensor state-machine transitions (kTensor),
  /// which are far more frequent than the transfer/step events.
  virtual bool WantsTensorEvents() const { return false; }
};

/// Fan-out of events to registered sinks. Sinks are borrowed, not owned; the
/// bus must not outlive them. Single-threaded, like the simulation it traces.
class TraceBus {
 public:
  void AddSink(TraceSink* sink);
  /// Detaches every sink, keeping the storage for the next run.
  void Clear() {
    sinks_.clear();
    tensor_events_ = false;
  }

  bool active() const { return !sinks_.empty(); }
  bool tensor_events() const { return tensor_events_; }

  void Emit(const Event& event) {
    for (TraceSink* sink : sinks_) sink->OnEvent(event);
  }

 private:
  std::vector<TraceSink*> sinks_;
  bool tensor_events_ = false;
};

}  // namespace harmony::trace

#endif  // HARMONY_TRACE_TRACE_H_
