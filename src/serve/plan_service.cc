#include "serve/plan_service.h"

#include <thread>
#include <utility>

#include "common/logging.h"
#include "core/task_graph.h"
#include "runtime/runtime.h"

namespace harmony::serve {

namespace {

using Clock = std::chrono::steady_clock;

TimeSec Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

}  // namespace

PlanService::PlanService(ServeOptions options)
    : options_(options),
      cache_(options.cache_bytes),
      pool_(options.num_workers),
      epoch_(Clock::now()) {}

PlanService::~PlanService() { Shutdown(/*cancel_inflight=*/false); }

TimeSec PlanService::Now() const { return Seconds(Clock::now() - epoch_); }

void PlanService::EmitEvent(trace::EventKind kind, int request_id,
                            int64_t latency_ns) {
  if (options_.bus == nullptr || !options_.bus->active()) return;
  trace::Event e;
  e.kind = kind;
  e.lane = trace::Lane::kServe;
  e.device = -1;
  e.time = Now();
  e.task = request_id;
  e.bytes = latency_ns;
  std::lock_guard<std::mutex> lock(trace_mu_);
  options_.bus->Emit(e);
}

std::shared_future<PlanResponse> PlanService::Submit(
    const PlanRequest& request) {
  auto state = std::make_shared<std::promise<PlanResponse>>();
  std::shared_future<PlanResponse> future = state->get_future().share();
  SubmitAsync(request, [state = std::move(state)](PlanResponse response) {
    state->set_value(std::move(response));
  });
  return future;
}

void PlanService::SubmitAsync(const PlanRequest& request, PlanCallback done) {
  const auto admit_time = Clock::now();
  // Hash once from the canonical bytes and keep the preimage: cache lookups
  // and single-flight attachment verify the bytes, never the hash alone.
  std::string canonical = CanonicalRequestJson(request);
  const uint64_t fingerprint = json::Fnv1a(canonical);
  // This request's absolute deadline (time_since_epoch count; 0 = none),
  // fixed up front so admission control and the worker agree on it.
  const Clock::time_point deadline =
      request.deadline_ms > 0
          ? Clock::now() + std::chrono::milliseconds(request.deadline_ms)
          : Clock::time_point{};
  const int64_t deadline_count =
      request.deadline_ms > 0 ? deadline.time_since_epoch().count() : 0;

  auto immediate = [&](PlanResponse response) {
    response.fingerprint = fingerprint;
    response.latency_seconds = Seconds(Clock::now() - admit_time);
    done(std::move(response));
  };

  // Fast path: content-addressed hit, no service lock taken.
  if (options_.cache_bytes > 0 && !request.bypass_cache) {
    std::shared_ptr<const HitReply> reply;
    if (std::shared_ptr<const CachedPlan> plan =
            cache_.Lookup(fingerprint, canonical, &reply)) {
      PlanResponse response = PlanResponseFromCache(*plan, fingerprint);
      response.cache_hit = true;
      response.hit_reply = std::move(reply);
      int id;
      {
        std::lock_guard<std::mutex> lock(mu_);
        id = next_request_id_++;
        ++stats_.cache_hits;
        ++stats_.completed;
      }
      EmitEvent(trace::EventKind::kServeCacheHit, id,
                Nanos(Clock::now() - admit_time));
      immediate(std::move(response));
      return;
    }
  }

  std::shared_ptr<Inflight> inflight;
  int id;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (draining_) {
      id = next_request_id_++;
      ++stats_.rejected;
      lock.unlock();
      EmitEvent(trace::EventKind::kServeReject, id, 0);
      PlanResponse response;
      response.status = Status::Unavailable("plan service is shutting down");
      immediate(std::move(response));
      return;
    }

    // Single-flight: identical request already being searched — attach.
    // "Identical" means the canonical bytes match (a fingerprint collision
    // must not share a search), and the in-flight deadline is no earlier
    // than ours: attaching to a shorter-deadline search would hand this
    // caller someone else's DeadlineExceeded. Otherwise admit separately;
    // the new entry replaces the map slot so later arrivals coalesce onto
    // the longer-lived search.
    if (!request.bypass_cache) {
      auto it = inflight_.find(fingerprint);
      if (it != inflight_.end() && it->second->canonical == canonical) {
        const int64_t theirs = it->second->cancel->deadline_count();
        const bool deadline_compatible =
            theirs == 0 || (deadline_count != 0 && theirs >= deadline_count);
        if (deadline_compatible) {
          ++stats_.coalesced;
          it->second->callbacks.push_back(std::move(done));
          return;
        }
      }
    }

    // Admission control: explicit load-shedding over unbounded queueing.
    if (pending_ >= options_.max_pending) {
      id = next_request_id_++;
      ++stats_.rejected;
      lock.unlock();
      EmitEvent(trace::EventKind::kServeReject, id, 0);
      PlanResponse response;
      response.status = Status::ResourceExhausted(
          "admission queue full (" + std::to_string(options_.max_pending) +
          " pending)");
      response.retry_after_ms = options_.retry_after_ms;
      immediate(std::move(response));
      return;
    }

    id = next_request_id_++;
    ++stats_.admitted;
    ++pending_;
    inflight = std::make_shared<Inflight>();
    inflight->callbacks.push_back(std::move(done));
    inflight->cancel = std::make_shared<common::CancelToken>();
    inflight->canonical = canonical;
    if (deadline_count != 0) inflight->cancel->SetDeadline(deadline);
    if (!request.bypass_cache) inflight_[fingerprint] = inflight;
  }

  EmitEvent(trace::EventKind::kServeAdmit, id, 0);
  pool_.Submit([this, request, fingerprint, id, admit_time,
                inflight = std::move(inflight)]() mutable {
    std::shared_ptr<common::CancelToken> cancel = inflight->cancel;
    RunRequest(std::move(request), fingerprint, id, std::move(cancel),
               admit_time, std::move(inflight));
  });
}

PlanResponse PlanService::ComputePlan(const PlanRequest& request,
                                      uint64_t fingerprint,
                                      const common::CancelToken* cancel) {
  PlanResponse response;
  response.fingerprint = fingerprint;

  auto resolved =
      profiles_.Resolve(request.model, request.machine.PlanningGpu());
  if (!resolved.ok()) {
    response.status = resolved.status();
    return response;
  }
  const ProfiledModel& pm = *resolved.value();

  core::SearchOptions search = request.options;
  search.cancel = cancel;
  auto found = core::SearchConfiguration(pm.profiles, request.machine,
                                         request.mode, request.minibatch,
                                         request.flags, search);
  if (!found.ok()) {
    response.status = found.status();
    return response;
  }
  const core::SearchResult& result = found.value();
  response.config = result.best;
  response.estimate = result.best_estimate;
  response.configs_explored = result.configs_explored;
  response.configs_feasible = result.configs_feasible;
  response.search_seconds = result.search_wall_seconds;

  if (request.run_iteration) {
    const core::TaskGraph graph = core::GenerateHarmonyTaskGraph(
        response.config, request.mode, request.machine.num_gpus,
        request.minibatch, request.flags, pm.profiles);
    const runtime::Runtime rt(request.machine, pm.model);
    runtime::RuntimeOptions run_opts;
    run_opts.optimizer = pm.optimizer;
    auto metrics = rt.Execute(graph, run_opts);
    if (!metrics.ok()) {
      response.status = metrics.status();
      return response;
    }
    response.metrics = metrics.value();
    response.has_metrics = true;
  }
  return response;
}

void PlanService::RunRequest(PlanRequest request, uint64_t fingerprint,
                             int request_id,
                             std::shared_ptr<common::CancelToken> cancel,
                             Clock::time_point admit_time,
                             std::shared_ptr<Inflight> inflight) {
  if (options_.stall_for_test > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.stall_for_test));
  }

  PlanResponse response;
  bool searched = false;
  if (cancel->Cancelled()) {
    // Sat in the queue past its deadline (or the service is aborting):
    // don't start a search that would be thrown away.
    response.fingerprint = fingerprint;
    response.status = cancel->DeadlinePassed()
                          ? Status::DeadlineExceeded(
                                "request expired before the search started")
                          : Status::Cancelled("request cancelled");
  } else {
    // Tier fill: a local miss asks the disk store / owner peer for the plan
    // before burning a search. Runs here (on a worker, after single-flight
    // admission) so a stampede of identical requests performs one fill, and
    // the potentially blocking disk/peer I/O never runs on a caller thread.
    std::shared_ptr<const CachedPlan> filled;
    std::string fill_source;
    if (options_.fill != nullptr && !request.bypass_cache) {
      filled = options_.fill->TryFill(fingerprint, inflight->canonical,
                                      request, &fill_source);
    }
    if (filled != nullptr) {
      response = PlanResponseFromCache(*filled, fingerprint);
      response.filled_from = fill_source;
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.filled;
    } else {
      EmitEvent(trace::EventKind::kServeSearchBegin, request_id, 0);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.searches;
      }
      searched = true;
      response = ComputePlan(request, fingerprint, cancel.get());
    }
  }
  response.latency_seconds = Seconds(Clock::now() - admit_time);

  if (response.status.ok() && options_.cache_bytes > 0 &&
      !request.bypass_cache) {
    auto plan = std::make_shared<CachedPlan>();
    plan->canonical_request = inflight->canonical;
    plan->config = response.config;
    plan->estimate = response.estimate;
    plan->configs_explored = response.configs_explored;
    plan->configs_feasible = response.configs_feasible;
    plan->search_seconds = response.search_seconds;
    plan->has_metrics = response.has_metrics;
    if (response.has_metrics) plan->metrics = response.metrics;
    // Fresh local searches are offered to the warm store; tier fills are
    // not — TryFill already persisted what it fetched (and a disk revival
    // must not rewrite its own file).
    if (searched && options_.fill != nullptr) {
      options_.fill->StoreCompleted(fingerprint, plan);
    }
    cache_.Insert(fingerprint, std::move(plan));
  }

  EmitEvent(trace::EventKind::kServeComplete, request_id,
            Nanos(Clock::now() - admit_time));
  // Detach the waiter list under the lock *as* the entry leaves the map: a
  // racing Submit either finds the entry and appends its callback before
  // this move, or finds the cache already populated (Insert above precedes
  // this block). Invoking after unlock keeps callbacks free to re-enter the
  // service.
  std::vector<PlanCallback> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(fingerprint);
    if (it != inflight_.end() && it->second == inflight) inflight_.erase(it);
    callbacks = std::move(inflight->callbacks);
    --pending_;
    ++stats_.completed;
    if (response.status.code() == StatusCode::kDeadlineExceeded) {
      ++stats_.deadline_exceeded;
    }
  }
  drained_.notify_all();
  for (size_t i = 0; i + 1 < callbacks.size(); ++i) callbacks[i](response);
  if (!callbacks.empty()) callbacks.back()(std::move(response));
}

void PlanService::Shutdown(bool cancel_inflight) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    if (cancel_inflight) {
      for (auto& [fp, inflight] : inflight_) inflight->cancel->Cancel();
    }
    drained_.wait(lock, [this]() { return pending_ == 0; });
  }
  pool_.Shutdown();
}

ServiceStats PlanService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace harmony::serve
