#ifndef PERFBENCH_ANALYSIS_H_
#define PERFBENCH_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "adapt/runner.h"
#include "report.h"
#include "serve/wire.h"

namespace perfbench {

/// Per-layer numbers taken after a workload's window by calling each layer
/// directly on the workload's own inputs, so every workload reports every
/// layer. Timed work here never overlaps the end-to-end measurements.

/// The plan path on `requests`: each is built, profiled and searched at one
/// and at two threads (core.search.{candidates,feasible_frac,speedup_2t}),
/// its sweep replayed serially through the public layer calls
/// (core.{packing,task_graph,estimator}.{calls,busy_s}), its winner
/// step-compiled and executed under a counting trace sink (runtime.*), and
/// every fourth one run through the adaptive loop with a link failure
/// (adapt.*, fault.injected). A search that differs between thread counts,
/// or from its serial replay, is a correctness error.
void MeasurePlanLayers(const std::vector<harmony::serve::PlanRequest>& requests,
                       uint64_t seed, Report* report);

/// The serve path on `frames` (plan envelopes as sent on the wire):
/// decode, fingerprint, a plan-cache lookup, a PlanService hit and the
/// response encode, each timed per frame; and a cold PlanService::Plan of
/// each distinct request (serve.plan_service.miss_s).
void MeasureServeLayers(const std::vector<std::string>& frames, Report* report);

/// How adaptive runs go: four iterations through a persistent failure of
/// the first switch uplink (down to 2% of its bandwidth a quarter into the
/// first iteration), always switching to the new plan so the whole replan
/// is timed.
harmony::adapt::AdaptOptions AdaptiveRunOptions(const harmony::serve::PlanRequest& r,
                                                uint64_t seed,
                                                double estimated_iteration_s);

}  // namespace perfbench

#endif  // PERFBENCH_ANALYSIS_H_
