#ifndef HARMONY_TRACE_CHROME_TRACE_H_
#define HARMONY_TRACE_CHROME_TRACE_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace/trace.h"

namespace harmony::trace {

/// Records every event and renders chrome://tracing (Perfetto-compatible)
/// "Trace Event Format" JSON: one process per device, one thread row per
/// stream lane, duration slices for stream ops, instants for evictions /
/// clean drops / allocation stalls / network flows, and counter tracks for
/// host and device memory. Load the file via chrome://tracing or
/// https://ui.perfetto.dev.
class ChromeTraceSink : public TraceSink {
 public:
  /// Keeps every rendered event. kTensor transitions (delivered when another
  /// sink asked for them) are not rendered, and their borrowed names would
  /// not outlive the call, so they are not kept.
  void OnEvent(const Event& event) override {
    if (event.kind != EventKind::kTensor) events_.push_back(event);
  }

  int64_t num_events() const { return static_cast<int64_t>(events_.size()); }

  /// Renders the accumulated events as a JSON object {"traceEvents": [...]}.
  void WriteJson(std::ostream& os) const;

  /// Convenience: writes the JSON to `path`.
  Status WriteFile(const std::string& path) const;

 private:
  std::vector<Event> events_;
};

}  // namespace harmony::trace

#endif  // HARMONY_TRACE_CHROME_TRACE_H_
