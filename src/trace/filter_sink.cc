#include "trace/filter_sink.h"

#include <cstdlib>

namespace harmony::trace {

const char* FilterSink::EnvFilter() {
  static const char* filter = std::getenv("HARMONY_RUNTIME_TRACE");
  return filter;
}

void FilterSink::OnEvent(const Event& e) {
  if (e.kind != EventKind::kTensor || filter_ != e.name) return;
  ++matches_;
  std::fprintf(out_, "[runtime-trace] %s %s d%d\n", e.name, e.detail,
               e.device);
}

}  // namespace harmony::trace
