#ifndef HARMONY_TESTS_REFERENCE_PLAN_H_
#define HARMONY_TESTS_REFERENCE_PLAN_H_

// The reference the planning tests hold the system against: Profiler ->
// Algorithm 1 -> task graph, run fresh on every call. It never goes through
// serve::ProfileMemo, so a memo that served a wrong profile cannot make a
// replan agree with its own reference.

#include <utility>

#include "common/status.h"
#include "core/search.h"
#include "core/task_graph.h"
#include "hw/machine.h"
#include "model/layer.h"
#include "profile/profiler.h"

namespace harmony::reference {

struct ReferencePlan {
  profile::ProfileDb profiles;
  core::SearchResult search;
  core::TaskGraph graph;
};

/// Profiles `model` on the machine's planning GPU, searches, and generates
/// the chosen configuration's task graph.
inline Result<ReferencePlan> PlanFresh(const model::SequentialModel& model,
                                       const hw::MachineSpec& machine,
                                       core::HarmonyMode mode, int minibatch,
                                       const core::OptimizationFlags& flags = {},
                                       const core::SearchOptions& search = {}) {
  profile::ProfileDb profiles =
      profile::Profiler(machine.PlanningGpu(), {}).Profile(model);
  auto found = core::SearchConfiguration(profiles, machine, mode, minibatch,
                                         flags, search);
  HARMONY_RETURN_IF_ERROR(found.status());
  core::TaskGraph graph = core::GenerateHarmonyTaskGraph(
      found.value().best, mode, machine.num_gpus, minibatch, flags, profiles);
  return ReferencePlan{std::move(profiles), std::move(found).value(),
                       std::move(graph)};
}

}  // namespace harmony::reference

#endif  // HARMONY_TESTS_REFERENCE_PLAN_H_
