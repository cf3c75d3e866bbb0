#include "adapt/planner.h"

#include <chrono>
#include <utility>

#include "common/cancel.h"
#include "core/search.h"

namespace harmony::adapt {

namespace {

PlanOutcome FromResponse(const serve::PlanResponse& r) {
  PlanOutcome out;
  out.config = r.config;
  out.estimate = r.estimate;
  out.search_seconds = r.search_seconds;
  return out;
}

}  // namespace

Result<PlanOutcome> LocalSearchPlanner::Plan(const serve::PlanRequest& request) {
  auto resolved = memo_->Resolve(request.model, request.machine.PlanningGpu());
  HARMONY_RETURN_IF_ERROR(resolved.status());

  common::CancelToken deadline;
  core::SearchOptions options = request.options;
  if (deadline_seconds_ > 0) {
    deadline.SetDeadlineAfter(std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(deadline_seconds_)));
    options.cancel = &deadline;
  }

  auto found = core::SearchConfiguration(resolved.value()->profiles,
                                         request.machine, request.mode,
                                         request.minibatch, request.flags,
                                         options);
  HARMONY_RETURN_IF_ERROR(found.status());
  PlanOutcome out;
  out.config = found.value().best;
  out.estimate = found.value().best_estimate;
  out.search_seconds = found.value().search_wall_seconds;
  return out;
}

Result<PlanOutcome> ServePlanner::Plan(const serve::PlanRequest& request) {
  auto response = client_->PlanWithRetry(request, retry_);
  HARMONY_RETURN_IF_ERROR(response.status());
  HARMONY_RETURN_IF_ERROR(response.value().status);
  return FromResponse(response.value());
}

Result<PlanOutcome> TierPlanner::Plan(const serve::PlanRequest& request) {
  auto response = tier_->Plan(request);
  HARMONY_RETURN_IF_ERROR(response.status());
  HARMONY_RETURN_IF_ERROR(response.value().status);
  return FromResponse(response.value());
}

}  // namespace harmony::adapt
