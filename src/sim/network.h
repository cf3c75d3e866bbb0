#ifndef HARMONY_SIM_NETWORK_H_
#define HARMONY_SIM_NETWORK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "hw/machine.h"
#include "sim/engine.h"
#include "trace/trace.h"

namespace harmony::sim {

/// Fluid-flow model of a set of directed links with max-min fair bandwidth
/// sharing. Concurrent flows traversing a common link split its capacity
/// fairly (progressive filling); rates are recomputed whenever a flow starts
/// or finishes. This is what turns the paper's "bottleneck PCIe link" and
/// "4:1 oversubscription" into emergent slowdowns (Fig 2).
///
/// The implementation is allocation-free on the steady-state path: flows live
/// in reusable slots stored structure-of-arrays (remaining / rate / freeze
/// mark each a dense array indexed by slot), so the integration, fill, and
/// completion-scan hot loops touch compact doubles instead of striding over
/// 100-byte flow structs. Each link keeps a persistent list of the flow slots
/// traversing it, and the progressive-filling pass uses epoch-stamped freeze
/// marks plus per-link residual/count scratch that is reused across
/// recomputes. The projected next-completion time falls out of the fill loop
/// itself (every flow is frozen exactly once per recompute), so no separate
/// scan over the flow population is needed to schedule the next event.
///
/// Wakeup scheduling: a recompute whose projected completion is already
/// covered by a pending (earlier-or-equal) wakeup does not enqueue a new
/// event at all — the pending wakeup fires, notices it is early, and re-arms
/// at the stored absolute projection (the exact double, so drain timestamps
/// are unaffected). Suppressed enqueues are counted in wakeups_suppressed().
class FlowNetwork {
 public:
  FlowNetwork(Engine* engine, const std::vector<BytesPerSec>& link_capacities);
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;
  /// Drops the completions of flows still in flight (a wedged or failed
  /// run) without running them. The engine must outlive the network.
  ~FlowNetwork();

  /// Returns the network to a just-constructed state over `link_capacities`
  /// for a new run, keeping every slot and scratch array: in-flight
  /// completions are dropped unrun, and slots are handed out again lowest
  /// first, as a fresh network would. Unbinds the trace.
  void Reset(const std::vector<BytesPerSec>& link_capacities);

  /// Starts a flow of `bytes` over the directed links in `path`; invokes
  /// `done` when the last byte arrives. Zero-byte flows complete immediately
  /// (as a zero-delay event). `done` is held as an engine record, so the
  /// call allocates nothing once the slot arrays are warm. Returns a flow id
  /// (diagnostics only).
  template <typename F>
  int64_t StartFlow(const std::vector<int>& path, Bytes bytes, F&& done) {
    HARMONY_CHECK_GE(bytes, 0);
    const int64_t id = next_flow_id_++;
    EmitFlow(trace::EventKind::kFlowBegin, bytes);
    if (bytes == 0 || path.empty()) {
      // Completes "immediately" but asynchronously, preserving callback order.
      engine_->After(0.0, [this, bytes, done = std::forward<F>(done)]() mutable {
        EmitFlow(trace::EventKind::kFlowEnd, bytes);
        done();
      });
      return id;
    }
    AddFlow(id, path, bytes, engine_->Hold(std::forward<F>(done)));
    return id;
  }

  /// Emits kFlowBegin/kFlowEnd instants for every flow to `bus`.
  void BindTrace(trace::TraceBus* bus) { bus_ = bus; }

  /// Fault hook: scales `link`'s capacity to `factor` x its construction-time
  /// value (a degraded or flapping link). In-flight progress is integrated at
  /// the old rates first, then rates are recomputed, so degradation takes
  /// effect exactly at the current simulated instant. `factor` is clamped to
  /// a small positive floor — a fluid-flow link never reaches literal zero,
  /// it just becomes arbitrarily slow (and the max-min invariants keep
  /// requiring strictly positive rates). Pass 1.0 to restore the link.
  void SetLinkCapacityFactor(int link, double factor);

  /// Current capacity of a link (diagnostics / tests).
  BytesPerSec link_capacity(int link) const { return capacities_.at(link); }

  /// Total bytes moved over a link since construction.
  double link_bytes(int link) const { return link_bytes_.at(link); }

  int num_active_flows() const { return static_cast<int>(active_.size()); }

  /// Completion-event enqueues skipped because a pending wakeup already
  /// covered the projected completion time.
  int64_t wakeups_suppressed() const { return wakeups_suppressed_; }

 private:
  /// kFlowBegin / kFlowEnd instant, when a bus is bound and active.
  void EmitFlow(trace::EventKind kind, Bytes bytes);
  /// Slots a non-empty flow whose completion is the held record `done`.
  void AddFlow(int64_t id, const std::vector<int>& path, Bytes bytes,
               EventRec* done);
  /// Integrates flow progress from `last_update_` to now.
  void AdvanceToNow();
  /// Max-min fair rate assignment + arms (or suppresses) the next wakeup.
  void RecomputeRates();
  /// Fires when a wakeup lands: early wakeups re-arm at the stored
  /// projection; on-time ones drain finished flows, reassign rates, then fire
  /// callbacks in flow-id order (matching the pre-slot std::map iteration
  /// order).
  void OnWakeup();
  /// Unlinks `slot` from every per-link flow list along its path.
  void RemoveFromLinks(int slot);

  Engine* engine_;
  trace::TraceBus* bus_ = nullptr;
  std::vector<BytesPerSec> capacities_;
  std::vector<BytesPerSec> base_capacities_;  // construction-time values
  std::vector<double> link_bytes_;

  // Slot-based flow storage, structure-of-arrays: all vectors below are
  // indexed by slot. `active_` and every `link_flows_[l]` hold slot indices
  // in ascending flow-id order (new flows always get the largest id, removals
  // preserve order), which keeps freeze/integration/callback order identical
  // to the former id-keyed std::map.
  std::vector<int64_t> flow_id_;
  std::vector<double> flow_remaining_;        // bytes
  std::vector<double> flow_rate_;             // bytes/sec, by RecomputeRates()
  std::vector<std::vector<int>> flow_path_;   // capacity reused across reuse
  std::vector<Bytes> flow_bytes_;             // for the kFlowEnd event
  std::vector<EventRec*> flow_done_;          // held completion records
  std::vector<int> free_slots_;
  std::vector<int> active_;
  // One entry per path traversal. Grows to the most links any run had; only
  // the first capacities_.size() lists are in use.
  std::vector<std::vector<int>> link_flows_;

  // Progressive-filling scratch, reused across recomputes (no per-recompute
  // allocation). `frozen_epoch_[slot] == fill_epoch_` marks a frozen flow;
  // bumping the epoch invalidates all marks in O(1).
  std::vector<double> residual_;
  std::vector<int> nflows_;
  std::vector<uint32_t> frozen_epoch_;
  uint32_t fill_epoch_ = 0;
  // Completions (and their kFlowEnd bytes) drained by one wakeup.
  std::vector<std::pair<EventRec*, Bytes>> done_scratch_;

  int64_t next_flow_id_ = 0;
  TimeSec last_update_ = 0.0;

  // Wakeup bookkeeping. `armed_times_` holds the timestamps of every pending
  // wakeup event, strictly decreasing (a new wakeup is armed only when it is
  // strictly earlier than all pending ones), so the back is both the next to
  // fire and the earliest. `next_completion_time_` is the projection from the
  // most recent recompute (+inf when no flows are active).
  std::vector<TimeSec> armed_times_;
  TimeSec next_completion_time_ = 0.0;
  int64_t wakeups_suppressed_ = 0;
};

/// Maps a MachineSpec's PCIe tree onto FlowNetwork links, using the link ids
/// of MachineSpec's Link* helpers, and provides the canonical paths used by
/// the runtime: host<->GPU swaps (which traverse the shared switch uplinks
/// and host DRAM) and GPU<->GPU p2p (which bypasses host DRAM, and bypasses
/// the uplinks entirely when both GPUs share a switch).
class Interconnect {
 public:
  Interconnect() = default;
  explicit Interconnect(const hw::MachineSpec& machine) { Reset(machine); }

  /// Rebuilds the links and paths for `machine`, reusing the storage.
  void Reset(const hw::MachineSpec& machine);

  int num_links() const { return static_cast<int>(capacities_.size()); }
  const std::vector<BytesPerSec>& capacities() const { return capacities_; }

  /// Paths are built once per Reset; the runtime starts a flow on one per
  /// transfer without copying it.
  const std::vector<int>& SwapInPath(int gpu) const;   // host -> gpu
  const std::vector<int>& SwapOutPath(int gpu) const;  // gpu -> host
  const std::vector<int>& P2pPath(int src_gpu, int dst_gpu) const;

  /// Human-readable link name (tests / diagnostics).
  std::string LinkName(int link) const;

 private:
  std::vector<BytesPerSec> capacities_;
  // Per GPU and [src * num_gpus + dst] (empty when equal); grown to the
  // largest machine, only the first num_gpus_ (squared) in use.
  std::vector<std::vector<int>> swap_in_, swap_out_;
  std::vector<std::vector<int>> p2p_;
  int num_gpus_ = 0;
  int num_switches_ = 0;
};

}  // namespace harmony::sim

#endif  // HARMONY_SIM_NETWORK_H_
