#include "runtime/runtime.h"

#include <memory>

#include "runtime/executor.h"
#include "runtime/step_compiler.h"

namespace harmony::runtime {
namespace {

/// What one Execute runs on: a compiler and a program buffer for
/// Execute(graph), and the executor. Every part is reset per run and keeps
/// its storage, so a thread's warm Execute allocates nothing.
struct ExecutionContext {
  StepCompiler compiler;
  StepProgram program;
  Executor executor;
};

/// The calling thread's execution context, held for one Execute. The thread
/// keeps one context for all its runs, built on first use; an Execute that
/// starts while it is in use gets a fresh context of the same type, used
/// once.
class ContextLease {
 public:
  ContextLease() {
    thread_local ExecutionContext kept;
    thread_local bool kept_in_use = false;
    if (!kept_in_use) {
      kept_in_use = true;
      in_use_ = &kept_in_use;
      context_ = &kept;
    } else {
      fresh_ = std::make_unique<ExecutionContext>();
      context_ = fresh_.get();
    }
  }
  ContextLease(const ContextLease&) = delete;
  ContextLease& operator=(const ContextLease&) = delete;
  ~ContextLease() {
    if (in_use_ != nullptr) *in_use_ = false;
  }

  ExecutionContext* operator->() const { return context_; }

 private:
  ExecutionContext* context_ = nullptr;
  bool* in_use_ = nullptr;  // the kept context's flag, when leased
  std::unique_ptr<ExecutionContext> fresh_;
};

}  // namespace

Runtime::Runtime(hw::MachineSpec machine, const model::SequentialModel& model)
    : machine_(std::move(machine)), model_(model) {}

Result<RunMetrics> Runtime::Execute(const core::TaskGraph& graph,
                                    const RuntimeOptions& options) const {
  // The execution pipeline: compile the task graph to a step program, then
  // drive it on the simulator.
  const ContextLease context;
  context->compiler.Compile(machine_, model_, graph, options.optimizer,
                            &context->program);
  return context->executor.Run(machine_, graph, options, context->program);
}

Result<RunMetrics> Runtime::Execute(const core::TaskGraph& graph,
                                    const StepProgram& program,
                                    const RuntimeOptions& options) const {
  const ContextLease context;
  return context->executor.Run(machine_, graph, options, program);
}

}  // namespace harmony::runtime
