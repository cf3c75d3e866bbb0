#include "fault/chaos.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace harmony::fault {

ChaosDriver::ChaosDriver(sim::Engine* engine, trace::TraceBus* bus,
                         trace::MetricsSink* metrics, FaultInjector* injector)
    : engine_(engine), bus_(bus), metrics_(metrics), injector_(injector) {}

void ChaosDriver::Emit(trace::EventKind kind, FaultKind fault, int device,
                       Bytes bytes, int task) {
  metrics_->Fold(kind, device, bytes);
  if (bus_ == nullptr || !bus_->active()) return;
  trace::Event e;
  e.kind = kind;
  // Faults against a device land on its alloc row; machine-level faults
  // (links) land on the global net row.
  e.lane = device < 0 ? trace::Lane::kNet : trace::Lane::kAlloc;
  e.device = device;
  e.time = engine_->now();
  e.bytes = bytes;
  e.task = task;
  e.detail = FaultKindName(fault);
  bus_->Emit(e);
}

// ---------------------------------------------------------------------------
// Stream stalls
// ---------------------------------------------------------------------------

void ChaosDriver::AttachStreamStalls(sim::Stream* stream, int device) {
  stream->SetStallProbe([this, device]() -> TimeSec {
    if (Stopped()) return 0.0;
    const TimeSec stall = injector_->StreamStall();
    if (stall > 0.0) {
      Emit(trace::EventKind::kFaultInjected, FaultKind::kStreamStall, device,
           0);
      engine_->After(stall, [this, device]() {
        Emit(trace::EventKind::kFaultRecovered, FaultKind::kStreamStall,
             device, 0);
      });
    }
    return stall;
  });
}

// ---------------------------------------------------------------------------
// Link flaps
// ---------------------------------------------------------------------------

void ChaosDriver::ArmLinkFlaps(sim::FlowNetwork* flows, int num_links,
                               std::function<std::string(int)> link_name) {
  HARMONY_CHECK_GT(num_links, 0);
  link_name_ = std::move(link_name);
  ScheduleFlap(flows, num_links);
}

void ChaosDriver::ScheduleFlap(sim::FlowNetwork* flows, int num_links) {
  engine_->After(injector_->NextFlapDelay(), [this, flows, num_links]() {
    if (Stopped()) return;  // run over: stop re-arming, let the queue drain
    const int link = injector_->PickLink(num_links);
    injector_->RecordFlap();
    flows->SetLinkCapacityFactor(link, injector_->plan().link_degrade_factor);
    degraded_links_.push_back(link);
    Emit(trace::EventKind::kFaultInjected, FaultKind::kLinkDegrade, -1,
         EncodeFactorPpt(injector_->plan().link_degrade_factor), link);
    engine_->After(injector_->plan().link_flap_duration, [this, flows,
                                                          link]() {
      // Restore even after the run is over: a no-op for the drained engine,
      // and it keeps DescribeActive() honest while the failure unwinds.
      auto it =
          std::find(degraded_links_.begin(), degraded_links_.end(), link);
      if (it != degraded_links_.end()) degraded_links_.erase(it);
      // Only restore full capacity once no other flap holds this link down.
      if (std::find(degraded_links_.begin(), degraded_links_.end(), link) ==
          degraded_links_.end()) {
        flows->SetLinkCapacityFactor(link, 1.0);
      }
      Emit(trace::EventKind::kFaultRecovered, FaultKind::kLinkDegrade, -1, 0,
           link);
    });
    ScheduleFlap(flows, num_links);
  });
}

// ---------------------------------------------------------------------------
// Persistent targeted degradations
// ---------------------------------------------------------------------------

void ChaosDriver::ArmPersistentLinkFault(sim::FlowNetwork* flows, int link,
                                         double factor, TimeSec at) {
  HARMONY_CHECK_GE(link, 0);
  HARMONY_CHECK_GT(factor, 0.0);
  engine_->After(at, [this, flows, link, factor]() {
    if (Stopped()) return;
    flows->SetLinkCapacityFactor(link, factor);
    failed_links_.push_back(link);
    Emit(trace::EventKind::kFaultInjected, FaultKind::kLinkDegrade, -1,
         EncodeFactorPpt(factor), link);
    // No recovery is ever scheduled: the degradation outlives the run.
  });
}

void ChaosDriver::ArmPersistentMemShrink(int device, TimeSec at,
                                         std::function<Bytes(int)> apply) {
  HARMONY_CHECK_GE(device, 0);
  engine_->After(at, [this, device, apply = std::move(apply)]() {
    if (Stopped()) return;
    const Bytes stolen = apply(device);
    shrunk_devices_.push_back(device);
    Emit(trace::EventKind::kFaultInjected, FaultKind::kMemPressure, device,
         stolen);
  });
}

// ---------------------------------------------------------------------------
// Memory pressure
// ---------------------------------------------------------------------------

void ChaosDriver::ArmMemoryPressure(int num_devices,
                                    std::function<Bytes(int)> apply,
                                    std::function<Bytes(int)> release) {
  HARMONY_CHECK_GT(num_devices, 0);
  pressure_apply_ = std::move(apply);
  pressure_release_ = std::move(release);
  SchedulePressure(num_devices);
}

void ChaosDriver::SchedulePressure(int num_devices) {
  engine_->After(injector_->NextPressureDelay(), [this, num_devices]() {
    if (Stopped()) return;
    const int d = injector_->PickDevice(num_devices);
    // One spike per device at a time: Residency's pressure reserve is a
    // single slice, not a refcounted stack.
    if (std::find(pressured_devices_.begin(), pressured_devices_.end(), d) ==
        pressured_devices_.end()) {
      injector_->RecordPressure();
      const Bytes stolen = pressure_apply_(d);
      pressured_devices_.push_back(d);
      Emit(trace::EventKind::kFaultInjected, FaultKind::kMemPressure, d,
           stolen);
      engine_->After(injector_->plan().mem_pressure_duration, [this, d]() {
        pressure_release_(d);
        auto it = std::find(pressured_devices_.begin(),
                            pressured_devices_.end(), d);
        if (it != pressured_devices_.end()) pressured_devices_.erase(it);
        Emit(trace::EventKind::kFaultRecovered, FaultKind::kMemPressure, d, 0);
      });
    }
    SchedulePressure(num_devices);
  });
}

// ---------------------------------------------------------------------------
// Reliable flows (transfer-failure recovery)
// ---------------------------------------------------------------------------

struct ChaosDriver::FlowAttempt {
  sim::FlowNetwork* flows;
  std::vector<int> path;
  Bytes bytes;
  int device;
  std::function<void()> done;
  int attempts = 0;  // failed attempts so far
};

void ChaosDriver::StartReliableFlow(sim::FlowNetwork* flows,
                                    std::vector<int> path, Bytes bytes,
                                    int device, std::function<void()> done) {
  auto a = std::make_shared<FlowAttempt>();
  a->flows = flows;
  a->path = std::move(path);
  a->bytes = bytes;
  a->device = device;
  a->done = std::move(done);
  RunFlowAttempt(std::move(a));
}

void ChaosDriver::RunFlowAttempt(std::shared_ptr<FlowAttempt> a) {
  // Once the run is over (failed elsewhere), stop injecting: the transfer
  // proceeds for real so the stream op completes and the queue drains.
  if (!Stopped() && injector_->TransferFails()) {
    Emit(trace::EventKind::kFaultInjected, FaultKind::kTransferFailure,
         a->device, a->bytes);
    if (a->attempts == 0) ++transfers_in_retry_;
    if (a->attempts >= injector_->plan().max_transfer_retries) {
      --transfers_in_retry_;
      if (fail_) {
        fail_(Status::Unavailable(
            "injected transfer-failure on device " +
            std::to_string(a->device) + " persisted past " +
            std::to_string(injector_->plan().max_transfer_retries) +
            " retries (" + FormatBytes(a->bytes) + " transfer; chaos " +
            injector_->plan().Describe() + ")"));
      }
      return;  // unsurvivable: the transfer is abandoned, the run failed
    }
    const TimeSec delay = injector_->BackoffDelay(a->attempts);
    ++a->attempts;
    engine_->After(delay, [this, a = std::move(a)]() mutable {
      RunFlowAttempt(std::move(a));
    });
    return;
  }
  sim::FlowNetwork* flows = a->flows;
  const std::vector<int>& path = a->path;
  const Bytes bytes = a->bytes;
  flows->StartFlow(path, bytes, [this, a = std::move(a)]() {
    if (a->attempts > 0) {
      --transfers_in_retry_;
      ++transfers_recovered_;
      Emit(trace::EventKind::kFaultRecovered, FaultKind::kTransferFailure,
           a->device, a->bytes);
    }
    a->done();
  });
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

std::string ChaosDriver::DescribeActive() const {
  std::string out;
  auto sep = [&out]() {
    if (!out.empty()) out += ", ";
  };
  for (const int link : degraded_links_) {
    sep();
    out += "link " +
           (link_name_ ? link_name_(link) : std::to_string(link)) +
           " degraded";
  }
  for (const int d : pressured_devices_) {
    sep();
    out += "device " + std::to_string(d) + " under injected memory pressure";
  }
  for (const int link : failed_links_) {
    sep();
    out += "link " +
           (link_name_ ? link_name_(link) : std::to_string(link)) +
           " persistently degraded";
  }
  for (const int d : shrunk_devices_) {
    sep();
    out += "device " + std::to_string(d) + " permanently shrunk";
  }
  if (transfers_in_retry_ > 0) {
    sep();
    out += std::to_string(transfers_in_retry_) + " transfer(s) in retry";
  }
  if (out.empty()) return out;
  return " [active faults: " + out + "]";
}

}  // namespace harmony::fault
