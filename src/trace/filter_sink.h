#ifndef HARMONY_TRACE_FILTER_SINK_H_
#define HARMONY_TRACE_FILTER_SINK_H_

#include <cstdio>
#include <string>

#include "trace/trace.h"

namespace harmony::trace {

/// Per-tensor diagnostic tracing: prints every state transition of one tensor
/// to stderr, subsuming the old HARMONY_RUNTIME_TRACE env-var hack that lived
/// inside the runtime. The environment is read exactly once per process (at
/// first EnvFilter() call), not on every state transition.
class FilterSink : public TraceSink {
 public:
  /// `filter` is a tensor key string, e.g. "A[L5,b2,o0]".
  explicit FilterSink(std::string filter, FILE* out = stderr)
      : filter_(std::move(filter)), out_(out) {}

  /// The HARMONY_RUNTIME_TRACE value, read from the environment exactly once
  /// per process; nullptr when unset.
  static const char* EnvFilter();

  bool WantsTensorEvents() const override { return true; }

  void OnEvent(const Event& event) override;

  int64_t matches() const { return matches_; }

 private:
  std::string filter_;
  FILE* out_;
  int64_t matches_ = 0;
};

}  // namespace harmony::trace

#endif  // HARMONY_TRACE_FILTER_SINK_H_
