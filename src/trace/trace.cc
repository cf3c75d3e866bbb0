#include "trace/trace.h"

namespace harmony::trace {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kOpBegin: return "op-begin";
    case EventKind::kOpEnd: return "op-end";
    case EventKind::kSwapInIssued: return "swap-in";
    case EventKind::kSwapOutIssued: return "swap-out";
    case EventKind::kP2pIssued: return "p2p";
    case EventKind::kEvict: return "evict";
    case EventKind::kCleanDrop: return "clean-drop";
    case EventKind::kAllocStall: return "alloc-stall";
    case EventKind::kFlowBegin: return "flow-begin";
    case EventKind::kFlowEnd: return "flow-end";
    case EventKind::kTensor: return "tensor";
    case EventKind::kHostBytes: return "host-bytes";
    case EventKind::kDeviceBytes: return "device-bytes";
    case EventKind::kFaultInjected: return "fault-injected";
    case EventKind::kFaultRecovered: return "fault-recovered";
    case EventKind::kServeAdmit: return "serve-admit";
    case EventKind::kServeCacheHit: return "serve-cache-hit";
    case EventKind::kServeSearchBegin: return "serve-search-begin";
    case EventKind::kServeComplete: return "serve-complete";
    case EventKind::kServeReject: return "serve-reject";
    case EventKind::kServeConnOpen: return "serve-conn-open";
    case EventKind::kServeConnClose: return "serve-conn-close";
    case EventKind::kServeFastPath: return "serve-fastpath";
    case EventKind::kClusterPeerFill: return "cluster-peer-fill";
    case EventKind::kClusterDiskHit: return "cluster-disk-hit";
    case EventKind::kReplanTriggered: return "replan-triggered";
    case EventKind::kReplanApplied: return "replan-applied";
    case EventKind::kReplanRejected: return "replan-rejected";
  }
  return "?";
}

const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kCompute: return "compute";
    case Lane::kSwapIn: return "swapin";
    case Lane::kSwapOut: return "swapout";
    case Lane::kP2pIn: return "p2pin";
    case Lane::kCpu: return "cpu";
    case Lane::kHost: return "host";
    case Lane::kNet: return "net";
    case Lane::kAlloc: return "alloc";
    case Lane::kServe: return "serve";
  }
  return "?";
}

std::string OpLabel(const Event& begin) {
  if (begin.task < 0) return {};
  std::string label = "t" + std::to_string(begin.task);
  if (begin.detail[0] != '\0') label += std::string(" ") + begin.detail;
  if (begin.index >= 0) label += std::to_string(begin.index);
  return label;
}

void TraceBus::AddSink(TraceSink* sink) {
  sinks_.push_back(sink);
  tensor_events_ = tensor_events_ || sink->WantsTensorEvents();
}

}  // namespace harmony::trace
