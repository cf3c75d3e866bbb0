#include "runtime/runtime.h"

#include <memory>

#include "runtime/executor.h"
#include "runtime/step_compiler.h"
#include "trace/filter_sink.h"
#include "trace/metrics_sink.h"
#include "trace/trace.h"

namespace harmony::runtime {

Runtime::Runtime(hw::MachineSpec machine, const model::SequentialModel& model)
    : machine_(std::move(machine)), model_(model) {}

Result<RunMetrics> Runtime::Execute(const core::TaskGraph& graph,
                                    const RuntimeOptions& options) const {
  // The execution pipeline: compile the task graph to a step program, then
  // drive it on the simulator.
  const StepProgram program =
      StepCompiler(machine_, model_, graph, options.optimizer).Compile();
  return Execute(graph, program, options);
}

Result<RunMetrics> Runtime::Execute(const core::TaskGraph& graph,
                                    const StepProgram& program,
                                    const RuntimeOptions& options) const {
  // Every observation is routed over the trace bus. MetricsSink is always
  // attached — RunMetrics is folded from its events rather than counted ad
  // hoc.
  trace::TraceBus bus;
  trace::MetricsSink metrics(graph.num_devices);
  bus.AddSink(&metrics);
  std::unique_ptr<trace::FilterSink> filter;
  if (const char* f = trace::FilterSink::EnvFilter()) {
    filter = std::make_unique<trace::FilterSink>(f);
    bus.AddSink(filter.get());
  }
  for (trace::TraceSink* sink : options.trace_sinks) {
    if (sink != nullptr) bus.AddSink(sink);
  }

  Executor executor(machine_, graph, options, program, &bus, &metrics);
  return executor.Run();
}

}  // namespace harmony::runtime
