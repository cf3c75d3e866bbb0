#include "trace/metrics_sink.h"

namespace harmony::trace {

void MetricsSink::Reset(int num_devices) {
  swap_in_.assign(num_devices, 0);
  swap_out_.assign(num_devices, 0);
  p2p_.assign(num_devices, 0);
  peak_device_.assign(num_devices, 0);
  peak_host_ = 0;
  evictions_ = 0;
  clean_drops_ = 0;
  faults_injected_ = 0;
  faults_recovered_ = 0;
  recovery_bytes_ = 0;
}

}  // namespace harmony::trace
