#ifndef HARMONY_FAULT_CHAOS_H_
#define HARMONY_FAULT_CHAOS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "fault/fault.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/stream.h"
#include "trace/metrics_sink.h"
#include "trace/trace.h"

namespace harmony::fault {

/// The engine-side half of fault injection: schedules recurring faults (link
/// flaps, memory-pressure spikes) on the simulation clock, attaches stall
/// probes to streams, and wraps FlowNetwork transfers in the
/// retry-with-jittered-backoff recovery loop. Every fault and every repair is
/// counted into the run's MetricsSink (and so RunMetrics), and published on
/// the trace bus as a typed kFaultInjected / kFaultRecovered instant when a
/// sink is attached, so chrome traces show the injection schedule next to the
/// work it perturbed.
///
/// The driver is owned by the executor for the duration of one run. Recurring
/// faults re-arm themselves until the stop probe reports the run is over
/// (complete or failed), which is what lets the event queue drain.
class ChaosDriver {
 public:
  ChaosDriver(sim::Engine* engine, trace::TraceBus* bus,
              trace::MetricsSink* metrics, FaultInjector* injector);

  /// Recurring faults stop re-arming once this returns true.
  void SetStopProbe(std::function<bool()> probe) {
    stop_probe_ = std::move(probe);
  }
  /// Run-failure channel for unsurvivable schedules (retry budget exhausted).
  void SetFail(std::function<void(Status)> fail) { fail_ = std::move(fail); }

  /// Installs a stall probe on `stream`: each op start consults the injector
  /// and may be delayed by the plan's stall duration. The stall and its
  /// self-healing are traced against `device`.
  void AttachStreamStalls(sim::Stream* stream, int device);

  /// Arms the recurring link-flap schedule: every ~interval, a uniformly
  /// chosen link degrades to the plan's factor for the flap duration, then
  /// restores. `link_name` labels the fault in diagnostics (may be null).
  void ArmLinkFlaps(sim::FlowNetwork* flows, int num_links,
                    std::function<std::string(int)> link_name);

  /// Arms a persistent targeted link failure: at `at`, `link` permanently
  /// degrades to `factor` x its capacity — no recovery event ever follows,
  /// which is exactly the signature the health monitor keys on. The injected
  /// event carries the link id (task) and factor (bytes, ppt-encoded).
  void ArmPersistentLinkFault(sim::FlowNetwork* flows, int link, double factor,
                              TimeSec at);

  /// Arms a persistent memory shrink: at `at`, `apply(device)` permanently
  /// reserves the plan's shrink slice on the victim device (never released).
  void ArmPersistentMemShrink(int device, TimeSec at,
                              std::function<Bytes(int)> apply);

  /// Arms the recurring memory-pressure schedule. `apply` reserves the
  /// pressure slice on a device and returns the bytes stolen; `release`
  /// undoes it and returns the bytes given back. Both are runtime callbacks
  /// (Residency), keeping this layer free of runtime dependencies.
  void ArmMemoryPressure(int num_devices, std::function<Bytes(int)> apply,
                         std::function<Bytes(int)> release);

  /// A FlowNetwork transfer with transfer-failure injection and recovery:
  /// each attempt may fail per the injector; failed attempts retry after a
  /// jittered exponential backoff until the plan's retry budget is spent, at
  /// which point the run fails with a Status naming the injected fault and
  /// seed. `done` fires exactly once, when an attempt succeeds.
  void StartReliableFlow(sim::FlowNetwork* flows, std::vector<int> path,
                         Bytes bytes, int device, std::function<void()> done);

  /// One-line summary of the faults active right now ("link 3 degraded,
  /// device 1 under pressure, 2 transfers in retry") — appended to watchdog
  /// and deadlock diagnostics so a wedged chaos run names its wedge.
  std::string DescribeActive() const;

  int64_t transfers_recovered() const { return transfers_recovered_; }

 private:
  struct FlowAttempt;
  void Emit(trace::EventKind kind, FaultKind fault, int device, Bytes bytes,
            int task = -1);
  void ScheduleFlap(sim::FlowNetwork* flows, int num_links);
  void SchedulePressure(int num_devices);
  void RunFlowAttempt(std::shared_ptr<FlowAttempt> a);
  bool Stopped() const { return stop_probe_ && stop_probe_(); }

  sim::Engine* engine_;
  trace::TraceBus* bus_;
  trace::MetricsSink* metrics_;
  FaultInjector* injector_;
  std::function<bool()> stop_probe_;
  std::function<void(Status)> fail_;
  std::function<std::string(int)> link_name_;
  std::function<Bytes(int)> pressure_apply_, pressure_release_;

  // Active-fault bookkeeping for DescribeActive().
  std::vector<int> degraded_links_;
  std::vector<int> pressured_devices_;
  std::vector<int> failed_links_;      // persistent (never restored)
  std::vector<int> shrunk_devices_;    // persistent (never released)
  int transfers_in_retry_ = 0;
  int64_t transfers_recovered_ = 0;
};

}  // namespace harmony::fault

#endif  // HARMONY_FAULT_CHAOS_H_
