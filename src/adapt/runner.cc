#include "adapt/runner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "core/estimator.h"
#include "core/search.h"
#include "core/task_graph.h"
#include "runtime/step.h"
#include "runtime/step_compiler.h"
#include "runtime/tensor.h"
#include "serve/profiled_model.h"

namespace harmony::adapt {

namespace {

/// Per-device persistent-tensor placement of a program: every weight and
/// optimizer-state tensor a device's steps need, keyed by the tensor's
/// structural key (stable across programs, unlike the dense ids).
using PlacementMap = std::map<std::pair<int, runtime::TensorKey>, Bytes>;

PlacementMap PersistentPlacements(const runtime::StepProgram& program) {
  PlacementMap out;
  for (size_t d = 0; d < program.steps.size(); ++d) {
    for (const runtime::Step& s : program.steps[d]) {
      for (const runtime::NeedSpec& n : s.needs) {
        const runtime::TensorKey& key = program.tensors.key(n.id);
        if (key.kind != runtime::TensorKind::kWeight &&
            key.kind != runtime::TensorKind::kOptState) {
          continue;
        }
        out[{static_cast<int>(d), key}] = n.bytes;
      }
    }
  }
  return out;
}

int64_t EstimateNanos(double seconds) {
  return static_cast<int64_t>(std::llround(seconds * 1e9));
}

}  // namespace

AdaptiveRunner::AdaptiveRunner(hw::MachineSpec machine, serve::ModelSpec model,
                               core::HarmonyMode mode, int minibatch,
                               core::OptimizationFlags flags,
                               core::SearchOptions search, AdaptOptions options)
    : machine_(std::move(machine)),
      model_spec_(std::move(model)),
      mode_(mode),
      minibatch_(minibatch),
      flags_(flags),
      search_(search),
      options_(std::move(options)) {}

void AdaptiveRunner::EmitReplanEvent(trace::EventKind kind, int iteration,
                                     TimeSec at, double estimate_seconds,
                                     const char* detail) {
  trace::Event e;
  e.kind = kind;
  e.lane = trace::Lane::kNet;
  e.device = -1;
  e.time = at;
  e.bytes = EstimateNanos(estimate_seconds);
  e.task = iteration;
  e.detail = detail;
  for (trace::TraceSink* sink : options_.trace_sinks) {
    if (sink != nullptr) sink->OnEvent(e);
  }
}

Result<AdaptResult> AdaptiveRunner::Run() {
  HARMONY_RETURN_IF_ERROR(machine_.Validate());
  // One profile memo for the run, shared by the initial plan, the local
  // replan and the re-estimate: a link fault profiles nothing again.
  serve::ProfileMemo memo;
  const auto nominal = memo.Resolve(model_spec_, machine_.PlanningGpu());
  HARMONY_RETURN_IF_ERROR(nominal.status());
  const serve::ProfiledModel& pm = *nominal.value();
  const model::SequentialModel& model = pm.model;
  const model::Optimizer optimizer = pm.optimizer;

  // Initial plan on the nominal machine.
  auto initial = core::SearchConfiguration(pm.profiles, machine_, mode_,
                                           minibatch_, flags_, search_);
  HARMONY_RETURN_IF_ERROR(initial.status());

  AdaptResult result;
  result.machine = machine_;
  result.config = initial.value().best;
  core::TaskGraph graph =
      core::GenerateHarmonyTaskGraph(result.config, mode_, machine_.num_gpus,
                                     minibatch_, flags_, pm.profiles);
  double current_estimate = initial.value().best_estimate.iteration_time;
  fault::FaultPlan active_faults = options_.fault_plan;

  HealthOptions health = options_.health;
  if (options_.health_window_seconds > 0 && current_estimate > 0) {
    health.hysteresis_iterations = std::max(
        1, static_cast<int>(
               std::ceil(options_.health_window_seconds / current_estimate)));
  }
  HealthMonitor monitor(machine_, health);
  bool decided = false;      // one replan decision per run
  TimeSec clock = 0;         // cumulative simulated time across iterations
  // Each graph is compiled once: every iteration runs the same borrowed
  // program, and a switchover compiles only the new graph.
  runtime::StepProgram program =
      runtime::StepCompiler(result.machine, model, graph, optimizer).Compile();

  for (int i = 0; i < options_.iterations; ++i) {
    const runtime::Runtime rt(result.machine, model);
    runtime::RuntimeOptions ro;
    ro.optimizer = optimizer;
    ro.fault_plan = active_faults;
    ro.trace_sinks = options_.trace_sinks;
    // The monitor only rides along when re-planning is armed: with --replan
    // off the loop is exactly a plain sequence of executions.
    if (options_.replan) ro.trace_sinks.push_back(&monitor);
    auto metrics = rt.Execute(graph, program, ro);
    HARMONY_RETURN_IF_ERROR(metrics.status());
    clock += metrics.value().iteration_time;
    result.iterations.push_back(std::move(metrics).value());

    if (!options_.replan) continue;
    const HealthAssessment assessment = monitor.EndIteration();
    if (decided || !assessment.replan || i + 1 >= options_.iterations) {
      continue;
    }
    decided = true;
    ++result.replans_triggered;
    EmitReplanEvent(trace::EventKind::kReplanTriggered, i, clock,
                    current_estimate, assessment.reason);

    ReplanDecision decision;
    decision.iteration = i;
    decision.reason = assessment.reason;

    // The degraded machine, exactly as the trace implies it.
    hw::MachineSpec degraded = monitor.SynthesizeSpec();
    if (Status v = degraded.Validate(); !v.ok()) {
      decision.reason = "invalid-machine";
      EmitReplanEvent(trace::EventKind::kReplanRejected, i, clock, 0,
                      decision.reason);
      result.decisions.push_back(decision);
      continue;
    }

    // Re-plan on the degraded descriptor: primary planner first (a serve
    // daemon or the cluster tier — the wire round-trips the heterogeneous
    // fields), then the bounded in-process search.
    serve::PlanRequest request;
    request.model = model_spec_;
    request.machine = degraded;
    request.mode = mode_;
    request.minibatch = minibatch_;
    request.flags = flags_;
    request.options = search_;
    LocalSearchPlanner local(&memo, options_.replan_deadline_seconds);
    Planner* planner = options_.planner != nullptr ? options_.planner : &local;
    auto candidate = planner->Plan(request);
    if (!candidate.ok() && planner != &local) {
      planner = &local;
      candidate = local.Plan(request);
    }
    if (!candidate.ok()) {
      decision.planner = planner->name();
      decision.reason = "plan-failed";
      EmitReplanEvent(trace::EventKind::kReplanRejected, i, clock, 0,
                      decision.reason);
      result.decisions.push_back(decision);
      continue;
    }
    decision.planner = planner->name();
    decision.new_estimate_seconds = candidate.value().estimate.iteration_time;

    // Honest comparison: the *old* configuration re-estimated on the
    // *degraded* machine — its nominal estimate undersells the damage.
    // A memo hit when the planning GPU is unchanged or the local replan ran.
    auto on_degraded = memo.Resolve(model_spec_, degraded.PlanningGpu());
    HARMONY_RETURN_IF_ERROR(on_degraded.status());
    const profile::ProfileDb& degraded_profiles = on_degraded.value()->profiles;
    const core::TaskGraph old_graph_on_degraded =
        core::GenerateHarmonyTaskGraph(result.config, mode_, degraded.num_gpus,
                                       minibatch_, flags_, degraded_profiles);
    const core::RuntimeEstimator estimator(degraded_profiles, degraded);
    decision.old_estimate_seconds =
        estimator.EstimateIteration(old_graph_on_degraded).iteration_time;

    const double gain =
        decision.old_estimate_seconds > 0
            ? (decision.old_estimate_seconds - decision.new_estimate_seconds) /
                  decision.old_estimate_seconds
            : 0.0;
    if (gain < options_.replan_margin) {
      decision.reason = "below-margin";
      EmitReplanEvent(trace::EventKind::kReplanRejected, i, clock,
                      decision.new_estimate_seconds, decision.reason);
      result.decisions.push_back(decision);
      continue;
    }

    // Switchover at the boundary: reconcile the persistent-tensor placement
    // of the old program against the new one. Orphans drain to host, new
    // placements prefetch back in; both ride the degraded swap path, which
    // is the modeled downtime of the switch.
    core::TaskGraph new_graph = core::GenerateHarmonyTaskGraph(
        candidate.value().config, mode_, degraded.num_gpus, minibatch_, flags_,
        degraded_profiles);
    runtime::StepProgram new_program =
        runtime::StepCompiler(degraded, model, new_graph, optimizer).Compile();
    const PlacementMap old_placement = PersistentPlacements(program);
    const PlacementMap new_placement = PersistentPlacements(new_program);
    for (const auto& [key, bytes] : old_placement) {
      if (new_placement.find(key) == new_placement.end()) {
        decision.orphan_evict_bytes += bytes;
      }
    }
    for (const auto& [key, bytes] : new_placement) {
      if (old_placement.find(key) == old_placement.end()) {
        decision.prefetch_bytes += bytes;
      }
    }
    const BytesPerSec swap_bw = degraded.EffectiveSwapBw(degraded.num_gpus);
    decision.switchover_seconds =
        swap_bw > 0 ? (static_cast<double>(decision.orphan_evict_bytes) +
                       static_cast<double>(decision.prefetch_bytes)) /
                          swap_bw
                    : 0.0;
    decision.applied = true;
    clock += decision.switchover_seconds;

    result.machine = degraded;
    result.config = candidate.value().config;
    graph = std::move(new_graph);
    program = std::move(new_program);
    current_estimate = decision.new_estimate_seconds;
    // The degradation now lives in the machine descriptor; injecting it
    // again next iteration would double-count the damage.
    active_faults = active_faults.WithoutPersistent();
    result.switched = true;
    result.switch_iteration = i + 1;
    EmitReplanEvent(trace::EventKind::kReplanApplied, i, clock,
                    decision.new_estimate_seconds, decision.reason);
    result.decisions.push_back(decision);
  }
  return result;
}

}  // namespace harmony::adapt
