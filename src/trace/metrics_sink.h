#ifndef HARMONY_TRACE_METRICS_SINK_H_
#define HARMONY_TRACE_METRICS_SINK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trace/trace.h"

namespace harmony::trace {

/// Folds the byte/time accounting that backs runtime::RunMetrics: swap volume
/// (Fig 10), eviction counts, memory high-water marks and fault accounting.
/// The executor keeps no counters of its own; it reads them from here after
/// the simulation drains.
///
/// The emitters fold each accounting event directly (Fold), without building
/// an Event or dispatching through the bus, whose sinks then see only what an
/// attached observer asked for. As a TraceSink it folds the same events from
/// any bus it is attached to.
class MetricsSink : public TraceSink {
 public:
  explicit MetricsSink(int num_devices = 0) { Reset(num_devices); }

  /// Zeroes every counter for a run on `num_devices` devices, keeping the
  /// storage.
  void Reset(int num_devices);

  void OnEvent(const Event& event) override {
    Fold(event.kind, event.device, event.bytes);
  }

  /// Counts one accounting event; kinds outside the fold are ignored.
  void Fold(EventKind kind, int device, Bytes bytes) {
    switch (kind) {
      case EventKind::kSwapInIssued: swap_in_[device] += bytes; break;
      case EventKind::kSwapOutIssued: swap_out_[device] += bytes; break;
      case EventKind::kP2pIssued: p2p_[device] += bytes; break;
      case EventKind::kEvict: ++evictions_; break;
      case EventKind::kCleanDrop: ++clean_drops_; break;
      case EventKind::kFaultInjected: ++faults_injected_; break;
      case EventKind::kFaultRecovered:
        ++faults_recovered_;
        recovery_bytes_ += bytes;
        break;
      case EventKind::kHostBytes:
        peak_host_ = std::max(peak_host_, bytes);
        break;
      case EventKind::kDeviceBytes:
        peak_device_[device] = std::max(peak_device_[device], bytes);
        break;
      default: break;  // not part of the metrics fold
    }
  }

  const std::vector<Bytes>& swap_in_bytes() const { return swap_in_; }
  const std::vector<Bytes>& swap_out_bytes() const { return swap_out_; }
  const std::vector<Bytes>& p2p_bytes() const { return p2p_; }
  const std::vector<Bytes>& peak_device_bytes() const { return peak_device_; }
  Bytes peak_host_bytes() const { return peak_host_; }
  int64_t evictions() const { return evictions_; }
  int64_t clean_drops() const { return clean_drops_; }

  // Fault-injection accounting (kFault* events). Recovery bytes are the
  // transfers recovery performed on top of the plan's semantic work — they
  // never mix into swap_in/swap_out/p2p, which must stay fault-invariant.
  int64_t faults_injected() const { return faults_injected_; }
  int64_t faults_recovered() const { return faults_recovered_; }
  Bytes recovery_bytes() const { return recovery_bytes_; }

 private:
  std::vector<Bytes> swap_in_, swap_out_, p2p_;
  std::vector<Bytes> peak_device_;
  Bytes peak_host_ = 0;
  int64_t evictions_ = 0;
  int64_t clean_drops_ = 0;
  int64_t faults_injected_ = 0;
  int64_t faults_recovered_ = 0;
  Bytes recovery_bytes_ = 0;
};

}  // namespace harmony::trace

#endif  // HARMONY_TRACE_METRICS_SINK_H_
