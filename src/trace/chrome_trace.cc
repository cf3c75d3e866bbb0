#include "trace/chrome_trace.h"

#include <fstream>
#include <map>
#include <set>
#include <utility>

namespace harmony::trace {
namespace {

// Devices map to trace pids directly; global (device == -1) events get their
// own "machine" process so network flows and host counters have a home row.
// Serving-layer events land in a dedicated "plan-service" process whose
// thread rows are the pool workers (plus one front-door row for admission
// events that precede worker assignment).
constexpr int kGlobalPid = 1000;
constexpr int kServePid = 2000;
constexpr int kServeFrontDoorTid = 99;

int PidOf(const Event& e) {
  if (e.lane == Lane::kServe) return kServePid;
  return e.device < 0 ? kGlobalPid : e.device;
}

int TidOf(const Event& e) {
  if (e.lane == Lane::kServe) {
    return e.device < 0 ? kServeFrontDoorTid : e.device;
  }
  return static_cast<int>(e.lane);
}

std::string Escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) break;  // drop control chars
        out += c;
    }
  }
  return out;
}

double Us(TimeSec t) { return t * 1e6; }

}  // namespace

void ChromeTraceSink::WriteJson(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) os << ",\n";
    first = false;
    os << line;
  };

  // Begin events waiting for their matching end, per (pid, tid) row. Stream
  // ops are FIFO per lane, so a one-deep slot per row suffices; nested spans
  // never occur on a stream.
  std::map<std::pair<int, int>, Event> open;
  std::set<std::pair<int, int>> rows;  // (pid, tid) seen, for metadata

  for (const Event& e : events_) {
    const int pid = PidOf(e);
    const int tid = TidOf(e);
    char buf[200];
    switch (e.kind) {
      case EventKind::kOpBegin:
        rows.insert({pid, tid});
        open[{pid, tid}] = e;
        break;
      case EventKind::kOpEnd: {
        auto it = open.find({pid, tid});
        if (it == open.end()) break;  // unmatched end: drop
        const Event& b = it->second;
        const std::string label = OpLabel(b);
        const std::string name = label.empty() ? LaneName(e.lane) : Escaped(label);
        snprintf(buf, sizeof(buf),
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":%d,\"tid\":%d",
                 name.c_str(), LaneName(e.lane), Us(b.time),
                 Us(e.time - b.time), pid, tid);
        std::string line(buf);
        if (b.task >= 0) line += ",\"args\":{\"task\":" + std::to_string(b.task) + "}";
        emit(line + "}");
        open.erase(it);
        break;
      }
      case EventKind::kEvict:
      case EventKind::kCleanDrop:
      case EventKind::kAllocStall:
      case EventKind::kFaultInjected:
      case EventKind::kFaultRecovered:
      case EventKind::kReplanTriggered:
      case EventKind::kReplanApplied:
      case EventKind::kReplanRejected:
      case EventKind::kFlowBegin:
      case EventKind::kFlowEnd: {
        rows.insert({pid, tid});
        std::string name = EventKindName(e.kind);
        if (e.detail[0] != '\0') name += std::string(" ") + e.detail;
        snprintf(buf, sizeof(buf),
                 "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,"
                 "\"tid\":%d,\"args\":{\"bytes\":%lld}}",
                 Us(e.time), pid, tid, static_cast<long long>(e.bytes));
        emit("{\"name\":\"" + name + buf);
        break;
      }
      case EventKind::kHostBytes:
      case EventKind::kDeviceBytes: {
        const char* counter =
            e.kind == EventKind::kHostBytes ? "host_bytes" : "device_bytes";
        snprintf(buf, sizeof(buf),
                 "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,"
                 "\"args\":{\"bytes\":%lld}}",
                 counter, Us(e.time), pid, static_cast<long long>(e.bytes));
        emit(buf);
        break;
      }
      case EventKind::kServeAdmit:
      case EventKind::kServeCacheHit:
      case EventKind::kServeSearchBegin:
      case EventKind::kServeComplete:
      case EventKind::kServeReject:
      case EventKind::kServeConnOpen:
      case EventKind::kServeConnClose:
      case EventKind::kServeFastPath:
      case EventKind::kClusterPeerFill:
      case EventKind::kClusterDiskHit: {
        // Instants keyed by request id: the per-request latency breakdown is
        // the gap between a request's admit / search-begin / complete marks.
        rows.insert({pid, tid});
        const std::string name = EventKindName(e.kind);
        snprintf(buf, sizeof(buf),
                 "\",\"ph\":\"i\",\"s\":\"p\",\"ts\":%.3f,\"pid\":%d,"
                 "\"tid\":%d,\"args\":{\"request\":%d,\"latency_ns\":%lld}}",
                 Us(e.time), pid, tid, e.task,
                 static_cast<long long>(e.bytes));
        emit("{\"name\":\"" + name + buf);
        break;
      }
      case EventKind::kSwapInIssued:
      case EventKind::kSwapOutIssued:
      case EventKind::kP2pIssued:
      case EventKind::kTensor:
        break;  // byte accounting / tensor transitions: not rendered
    }
  }

  // Row naming metadata: device processes and lane threads.
  std::set<int> pids;
  for (const auto& [pid, tid] : rows) pids.insert(pid);
  for (int pid : pids) {
    const std::string pname = pid == kGlobalPid    ? "machine"
                              : pid == kServePid   ? "plan-service"
                                                   : "GPU" + std::to_string(pid);
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) + ",\"args\":{\"name\":\"" + pname + "\"}}");
  }
  for (const auto& [pid, tid] : rows) {
    std::string tname;
    if (pid == kServePid) {
      tname = tid == kServeFrontDoorTid ? "requests"
                                        : "worker" + std::to_string(tid);
    } else {
      tname = LaneName(static_cast<Lane>(tid));
    }
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
         ",\"args\":{\"name\":\"" + tname + "\"}}");
  }
  os << "\n]}\n";
}

Status ChromeTraceSink::WriteFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return Status::InvalidArgument("cannot open trace file " + path);
  WriteJson(os);
  return os ? Status::Ok()
            : Status::Internal("short write to trace file " + path);
}

}  // namespace harmony::trace
