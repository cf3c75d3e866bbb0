#include "analysis.h"

#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "common/logging.h"
#include "core/packing.h"
#include "core/search.h"
#include "runtime/runtime.h"
#include "runtime/step_compiler.h"
#include "serve/plan_cache.h"
#include "serve/plan_service.h"
#include "trace/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using harmony::core::Configuration;
using harmony::core::Estimate;
using harmony::serve::PlanRequest;
using harmony::serve::PlanResponse;

class CountingSink : public harmony::trace::TraceSink {
 public:
  void OnEvent(const harmony::trace::Event&) override { ++events_; }
  int64_t events() const { return events_; }

 private:
  int64_t events_ = 0;
};

/// Per-layer work of a serial replay of Algorithm 1's candidate sweep.
struct SweepWork {
  int64_t packing_calls = 0, task_graph_calls = 0, estimator_calls = 0;
  double packing_s = 0, task_graph_s = 0, estimator_s = 0;
};

struct SweepWinner {
  Configuration config;
  Estimate estimate;
};

template <typename F>
auto Timed(int64_t* calls, double* busy, F&& f) {
  const auto t0 = Clock::now();
  auto out = f();
  *busy += SecondsSince(t0);
  ++*calls;
  return out;
}

/// Replays SearchConfiguration's sweep serially through the public layer
/// calls (BackwardPacks, ForwardPacks, GenerateHarmonyTaskGraph,
/// RuntimeEstimator::EstimateIteration), timing each call. Mirrors the
/// search's enumeration, policy tables, capacity gate and tie-break, so its
/// winner must equal the search's bit for bit.
std::optional<SweepWinner> ReplaySweep(const PlanRequest& r,
                                       const harmony::profile::ProfileDb& profiles,
                                       SweepWork* work) {
  using namespace harmony::core;
  const harmony::hw::MachineSpec& machine = r.machine;
  const SearchOptions& options = r.options;
  HARMONY_CHECK(!options.equi_fb);
  const int n = machine.num_gpus;
  const int R = profiles.num_layers();
  int d = r.minibatch;
  if (r.mode == HarmonyMode::kDataParallel) d = std::max(1, r.minibatch / n);
  const int u_fwd_max = std::min(options.u_fwd_max, d);
  const int u_bwd_max = std::min(options.u_bwd_max, d);
  PackingOptions packing;
  packing.capacity = static_cast<harmony::Bytes>(
      static_cast<double>(machine.MinUsableMemory()) * options.capacity_fraction);
  const RuntimeEstimator estimator(profiles, machine);
  EstimatorScratch scratch;

  const double swap_bw = machine.EffectiveSwapBw(n);
  auto tables_for = [&](int u_bwd) -> std::vector<PolicyTable> {
    if (options.policy_mode == PolicyMode::kLegacy) return {PolicyTable()};
    HARMONY_CHECK(options.policy_mode == PolicyMode::kSweep);
    PolicyTable greedy = PolicyTable::Uniform(R, StashPolicy::kKeep);
    for (int l = 0; l < R; ++l) {
      harmony::model::LayerResidencyCost c;
      c.recompute_time = profiles.FwdTime(l, u_bwd);
      c.stash_bytes = static_cast<harmony::Bytes>(u_bwd) *
                      profiles.layer(l).stash_bytes_per_sample;
      c.swap_stall = static_cast<double>(c.stash_bytes) / swap_bw;
      greedy.Set(l, harmony::model::DominantPolicy(c));
    }
    return {PolicyTable::Uniform(R, StashPolicy::kRecompute),
            PolicyTable::Uniform(R, StashPolicy::kSwap), greedy};
  };
  const int share = r.mode == HarmonyMode::kDataParallel ? (r.minibatch + n - 1) / n
                                                         : r.minibatch;
  auto table_fits = [&](const Configuration& config, const PolicyTable& table) {
    if (table.empty()) return true;
    harmony::Bytes kept = 0;
    for (int l = 0; l < R; ++l) {
      if (table.at(l) == StashPolicy::kKeep) {
        kept += static_cast<harmony::Bytes>(share) *
                profiles.layer(l).stash_bytes_per_sample;
      }
    }
    for (const Pack& p : config.fwd_packs) {
      harmony::Bytes transient = 0;
      for (int l = p.lo; l <= p.hi; ++l) {
        if (table.at(l) == StashPolicy::kRecompute) continue;
        transient = std::max(transient, static_cast<harmony::Bytes>(config.u_fwd) *
                                            profiles.layer(l).stash_bytes_per_sample);
      }
      if (profiles.FwdTaskBytes(p.lo, p.hi, config.u_fwd) + kept + transient >
          packing.capacity) {
        return false;
      }
    }
    for (const Pack& p : config.bwd_packs) {
      if (profiles.BwdTaskBytes(p.lo, p.hi, config.u_bwd) + kept > packing.capacity) {
        return false;
      }
    }
    return true;
  };

  std::vector<int> fwd_floors = {1}, bwd_floors = {1};
  if (r.mode == HarmonyMode::kPipelineParallel && n > 1) {
    fwd_floors = {1, n, 2 * n, 4 * n};
    bwd_floors = {1, n};
  }

  std::map<std::tuple<int, int, int>, harmony::Result<PackList>> fwd_memo;
  std::optional<SweepWinner> best;
  std::tuple<int, int, int, int, int> best_key;
  for (int u_bwd = 1; u_bwd <= u_bwd_max; ++u_bwd) {
    const std::vector<PolicyTable> tables = tables_for(u_bwd);
    for (int bwd_floor : bwd_floors) {
      PackingOptions bwd_packing = packing;
      bwd_packing.min_packs = bwd_floor;
      auto bwd = Timed(&work->packing_calls, &work->packing_s,
                       [&] { return BackwardPacks(u_bwd, profiles, bwd_packing); });
      if (!bwd.ok()) continue;
      if (bwd_floor > 1 && static_cast<int>(bwd.value().size()) <= bwd_floor / 2) {
        continue;
      }
      for (int u_fwd = 1; u_fwd <= u_fwd_max; ++u_fwd) {
        for (int fwd_floor : fwd_floors) {
          Configuration config;
          config.u_bwd = u_bwd;
          config.u_fwd = u_fwd;
          config.bwd_packs = bwd.value();
          const int fwd_layers = config.bwd_packs.back().lo;
          PackingOptions fwd_packing = packing;
          fwd_packing.min_packs = std::min(fwd_floor, fwd_layers);
          const auto key = std::make_tuple(u_fwd, fwd_packing.min_packs, fwd_layers);
          auto it = fwd_memo.find(key);
          if (it == fwd_memo.end()) {
            it = fwd_memo
                     .emplace(key, Timed(&work->packing_calls, &work->packing_s, [&] {
                                return ForwardPacks(u_fwd, config.bwd_packs, profiles,
                                                    fwd_packing);
                              }))
                     .first;
          }
          if (!it->second.ok()) continue;
          config.fwd_packs = it->second.value();
          for (int ti = 0; ti < static_cast<int>(tables.size()); ++ti) {
            config.policy = tables[ti];
            if (!table_fits(config, config.policy)) continue;
            const TaskGraph graph =
                Timed(&work->task_graph_calls, &work->task_graph_s, [&] {
                  return GenerateHarmonyTaskGraph(config, r.mode, n, r.minibatch,
                                                  r.flags, profiles);
                });
            const Estimate est = Timed(&work->estimator_calls, &work->estimator_s, [&] {
              return estimator.EstimateIteration(graph, nullptr, &scratch);
            });
            const auto key5 = std::make_tuple(u_bwd, u_fwd, bwd_floor, fwd_floor, ti);
            if (!best || est.iteration_time < best->estimate.iteration_time ||
                (est.iteration_time == best->estimate.iteration_time && key5 < best_key)) {
              best = SweepWinner{config, est};
              best_key = key5;
            }
          }
        }
      }
    }
  }
  return best;
}

}  // namespace

harmony::adapt::AdaptOptions AdaptiveRunOptions(const PlanRequest& r, uint64_t seed,
                                                double estimated_iteration_s) {
  harmony::adapt::AdaptOptions ao;
  ao.iterations = 4;
  ao.replan_margin = -1.0;
  ao.fault_plan.enabled = true;
  ao.fault_plan.seed = seed;
  ao.fault_plan.link_fail_at = 0.25 * estimated_iteration_s;
  ao.fault_plan.link_fail_link = r.machine.LinkSwitchUp(0);
  ao.fault_plan.link_fail_factor = 0.02;
  return ao;
}

void MeasurePlanLayers(const std::vector<PlanRequest>& requests, uint64_t seed,
                       Report* report) {
  SweepWork work;
  double one_thread_s = 0, two_thread_s = 0;
  int64_t candidates = 0, feasible = 0, steps = 0, events = 0, replans = 0, faults = 0;
  std::vector<double> compile_s, execute_s, adapt_s;
  for (size_t i = 0; i < requests.size(); ++i) {
    const PlanRequest& r = requests[i];
    const std::string job = "analysed request " + std::to_string(i);
    Spans off(false);
    const Profiled p = BuildAndProfile(r, &off, static_cast<int64_t>(i));
    harmony::core::SearchOptions one_thread = r.options, two_threads = r.options;
    one_thread.num_threads = 1;
    two_threads.num_threads = 2;
    auto t0 = Clock::now();
    auto one = harmony::core::SearchConfiguration(p.profiles, r.machine, r.mode,
                                                  r.minibatch, r.flags, one_thread);
    one_thread_s += SecondsSince(t0);
    t0 = Clock::now();
    auto two = harmony::core::SearchConfiguration(p.profiles, r.machine, r.mode,
                                                  r.minibatch, r.flags, two_threads);
    two_thread_s += SecondsSince(t0);
    const std::optional<SweepWinner> replay = ReplaySweep(r, p.profiles, &work);
    if (!one.ok() || !two.ok() || !replay) {
      report->Error(job + ": search failed");
      continue;
    }
    const harmony::core::SearchResult& sr = two.value();
    const std::string want = ConfigJson(sr.best);
    if (ConfigJson(one.value().best) != want ||
        one.value().best_estimate.iteration_time != sr.best_estimate.iteration_time) {
      report->Error(job + ": 1- and 2-thread searches differ");
    }
    if (ConfigJson(replay->config) != want ||
        replay->estimate.iteration_time != sr.best_estimate.iteration_time) {
      report->Error(job + ": sweep replay winner differs from the search's");
    }
    candidates += sr.configs_explored;
    feasible += sr.configs_feasible;

    const harmony::core::TaskGraph graph = harmony::core::GenerateHarmonyTaskGraph(
        sr.best, r.mode, r.machine.num_gpus, r.minibatch, r.flags, p.profiles);
    harmony::runtime::RuntimeOptions run_opts;
    run_opts.optimizer = harmony::serve::DefaultOptimizer(r.model);
    CountingSink sink;
    run_opts.trace_sinks.push_back(&sink);
    t0 = Clock::now();
    harmony::runtime::StepCompiler compiler(r.machine, p.model, graph, run_opts.optimizer);
    steps += compiler.Compile().num_steps();
    compile_s.push_back(SecondsSince(t0));
    t0 = Clock::now();
    auto metrics = harmony::runtime::Runtime(r.machine, p.model).Execute(graph, run_opts);
    // Execute compiles the program itself; the layer's own share excludes it.
    execute_s.push_back(std::max(0.0, SecondsSince(t0) - compile_s.back()));
    if (!metrics.ok()) report->Error(job + ": execute: " + metrics.status().ToString());
    events += sink.events();

    if (PlanJobAdapts(static_cast<int>(i))) {
      t0 = Clock::now();
      auto run = harmony::adapt::AdaptiveRunner(
                     r.machine, r.model, r.mode, r.minibatch, r.flags, two_threads,
                     AdaptiveRunOptions(r, seed ^ i, sr.best_estimate.iteration_time))
                     .Run();
      adapt_s.push_back(SecondsSince(t0));
      if (!run.ok()) {
        report->Error(job + ": adapt: " + run.status().ToString());
        continue;
      }
      replans += run.value().replans_triggered;
      for (const auto& it : run.value().iterations) faults += it.faults_injected;
    }
  }
  report->Set("core.search.candidates", static_cast<double>(candidates), "count");
  report->Set("core.search.feasible_frac",
              candidates > 0 ? static_cast<double>(feasible) / static_cast<double>(candidates)
                             : 0.0,
              "ratio");
  report->Set("core.search.speedup_2t",
              two_thread_s > 0 ? one_thread_s / two_thread_s : 0.0, "x");
  report->Set("core.packing.calls", static_cast<double>(work.packing_calls), "count");
  report->Set("core.packing.busy_s", work.packing_s, "s");
  report->Set("core.task_graph.calls", static_cast<double>(work.task_graph_calls), "count");
  report->Set("core.task_graph.busy_s", work.task_graph_s, "s");
  report->Set("core.estimator.calls", static_cast<double>(work.estimator_calls), "count");
  report->Set("core.estimator.busy_s", work.estimator_s, "s");
  report->SetMedian("runtime.step_compile_s", compile_s);
  report->SetMedian("runtime.execute_s", execute_s);
  report->Set("runtime.steps", static_cast<double>(steps), "count");
  report->Set("runtime.trace_events", static_cast<double>(events), "count");
  report->SetMedian("adapt.run_s", adapt_s);
  report->Set("adapt.replans", static_cast<double>(replans), "count");
  report->Set("fault.injected", static_cast<double>(faults), "count");
}

void MeasureServeLayers(const std::vector<std::string>& frames, Report* report) {
  const int n = static_cast<int>(frames.size());
  std::vector<PlanRequest> requests(frames.size());
  report->SetMedian("serve.wire.decode_s", TimeEach(n, [&](int i) {
                      auto env = harmony::json::Parse(frames[i]);
                      HARMONY_CHECK(env.ok());
                      auto req = harmony::serve::PlanRequestFromJson(
                          *env.value().Find("request"));
                      HARMONY_CHECK(req.ok());
                      requests[i] = std::move(req).value();
                    }));
  std::vector<std::string> canonical(frames.size());
  std::vector<uint64_t> fps(frames.size());
  report->SetMedian("serve.wire.fingerprint_s", TimeEach(n, [&](int i) {
                      canonical[i] = harmony::serve::CanonicalRequestJson(requests[i]);
                      fps[i] = harmony::json::Fnv1a(canonical[i]);
                    }));

  // A fresh service: the first request of each fingerprint misses and
  // searches; every frame then hits.
  harmony::serve::ServeOptions so;
  so.num_workers = 2;
  harmony::serve::PlanService service(so);
  harmony::serve::PlanCache cache(64ull << 20);
  std::vector<double> misses;
  for (int i = 0; i < n; ++i) {
    if (cache.Lookup(fps[i], canonical[i]) != nullptr) continue;
    const PlanResponse cold = service.Plan(requests[i]);
    if (!cold.status.ok() || cold.cache_hit) {
      report->Error("serve layers: cold plan failed: " + cold.status.ToString());
      return;
    }
    misses.push_back(cold.latency_seconds);
    auto plan = std::make_shared<harmony::serve::CachedPlan>();
    plan->canonical_request = canonical[i];
    plan->config = cold.config;
    plan->estimate = cold.estimate;
    plan->configs_explored = cold.configs_explored;
    plan->configs_feasible = cold.configs_feasible;
    cache.Insert(fps[i], std::move(plan));
  }
  report->SetMedian("serve.plan_service.miss_s", misses);
  int64_t found = 0;
  report->SetMedian("serve.plan_cache.lookup_s", TimeEach(n, [&](int i) {
                      if (cache.Lookup(fps[i], canonical[i]) != nullptr) ++found;
                    }));
  if (found != n) report->Error("serve layers: in-process cache lookups missed");
  std::vector<PlanResponse> responses(frames.size());
  report->SetMedian("serve.plan_service.hit_s", TimeEach(n, [&](int i) {
                      responses[i] = service.Plan(requests[i]);
                    }));
  for (const PlanResponse& r : responses) {
    if (!r.status.ok() || !r.cache_hit) report->Error("serve layers: in-process hit missed");
  }
  report->SetMedian("serve.wire.encode_s", TimeEach(n, [&](int i) {
                      harmony::json::Value reply = harmony::json::Value::Object();
                      reply.Set("type", "plan");
                      reply.Set("response", harmony::serve::PlanResponseToJson(responses[i]));
                      const std::string bytes = reply.Dump();
                      HARMONY_CHECK(!bytes.empty());
                    }));
}

}  // namespace perfbench
