// harmony_plan: a command-line planner — the front door a practitioner would
// use. Give it a model, a parallelism mode and a minibatch size; it profiles
// the model, searches the configuration space, prints the chosen schedule,
// and (optionally) executes one iteration on the simulated deployment.
//
//   ./build/examples/harmony_plan GPT2 pp 64
//   ./build/examples/harmony_plan ResNet1K dp 32 --gpus=8 --run
//   ./build/examples/harmony_plan GPT2-20B pp 32 --gpus=8 --run
//   ./build/examples/harmony_plan BERT96 pp 8 --trace-out trace.json
//   ./build/examples/harmony_plan BERT96 pp 8 --replan --link-fail=0@0.05/0.25

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>

#include "adapt/runner.h"
#include "bench/bench_common.h"
#include "common/cancel.h"
#include "common/table.h"
#include "core/scheduler.h"
#include "runtime/runtime.h"
#include "trace/chrome_trace.h"

namespace {

int Usage() {
  std::cerr
      << "usage: harmony_plan <model> <dp|pp> <minibatch> [--gpus=N] [--run]\n"
         "                    [--trace-out <file>] [--deadline-ms=N]\n"
         "                    [--policy=<mode>] [--dump-policy]\n"
         "                    [--replan] [--iterations=N] [--replan-margin=F]\n"
         "                    [--health-window-ms=N]\n"
         "                    [--link-fail=LINK@SEC/FACTOR]\n"
         "                    [--mem-shrink=DEV@SEC/FRACTION]\n"
         "  model: BERT-Large | BERT96 | GPT2 | GPT2-Medium | VGG416 |\n"
         "         ResNet1K | GPT2-<n>B\n"
         "  --policy selects the residency-policy search axis: legacy |\n"
         "  recompute | keep | swap | hybrid | sweep (default legacy).\n"
         "  --dump-policy prints the chosen per-layer {keep,swap,recompute}\n"
         "  table with stash bytes and recompute cost per layer run.\n"
         "  --trace-out writes the executed iteration's timeline as Chrome\n"
         "  trace JSON (load in chrome://tracing or Perfetto); implies --run.\n"
         "  --deadline-ms bounds the whole invocation (search + execution)\n"
         "  with a cooperative cancel token; exceeding it exits with\n"
         "  DeadlineExceeded instead of running open-ended.\n"
         "  --replan drives N training iterations (--iterations, default 4)\n"
         "  through the degradation-aware loop: a health monitor watches the\n"
         "  trace bus and, on sustained degradation, re-plans on the damaged\n"
         "  machine and switches plans at the next iteration boundary when\n"
         "  the candidate beats the old plan by --replan-margin (default\n"
         "  0.03). --health-window-ms sets how long (in simulated time) a\n"
         "  degradation must persist before a re-plan fires.\n"
         "  --link-fail / --mem-shrink arm a persistent degradation, e.g.\n"
         "  --link-fail=0@0.05/0.25 drops link 0 to 25% capacity at t=50ms;\n"
         "  --mem-shrink=1@0.05/0.3 permanently steals 30% of GPU 1.\n";
  return 2;
}

/// Parses the "<id>@<seconds>/<value>" grammar of --link-fail/--mem-shrink.
bool ParseTargetedFault(const char* s, int* id, double* at, double* value) {
  char* end = nullptr;
  *id = static_cast<int>(std::strtol(s, &end, 10));
  if (end == s || *end != '@') return false;
  const char* p = end + 1;
  *at = std::strtod(p, &end);
  if (end == p || *end != '/') return false;
  p = end + 1;
  *value = std::strtod(p, &end);
  return end != p && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace harmony;
  if (argc < 4) return Usage();
  const std::string model_name = argv[1];
  const std::string mode_str = argv[2];
  const int minibatch = std::atoi(argv[3]);
  int gpus = 4;
  bool run = false;
  bool dump_policy = false;
  int deadline_ms = 0;
  bool replan = false;
  int iterations = 4;
  double replan_margin = 0.03;
  int health_window_ms = 0;
  fault::FaultPlan fault_plan;
  std::string trace_out;
  core::PolicyMode policy_mode = core::PolicyMode::kLegacy;
  for (int i = 4; i < argc; ++i) {
    if (std::strncmp(argv[i], "--gpus=", 7) == 0) {
      gpus = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      deadline_ms = std::atoi(argv[i] + 14);
    } else if (std::strcmp(argv[i], "--replan") == 0) {
      replan = true;
    } else if (std::strncmp(argv[i], "--iterations=", 13) == 0) {
      iterations = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--replan-margin=", 16) == 0) {
      replan_margin = std::atof(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--health-window-ms=", 19) == 0) {
      health_window_ms = std::atoi(argv[i] + 19);
    } else if (std::strncmp(argv[i], "--link-fail=", 12) == 0) {
      int link;
      double at, factor;
      if (!ParseTargetedFault(argv[i] + 12, &link, &at, &factor)) {
        return Usage();
      }
      fault_plan.enabled = true;
      fault_plan.link_fail_link = link;
      fault_plan.link_fail_at = at;
      fault_plan.link_fail_factor = factor;
    } else if (std::strncmp(argv[i], "--mem-shrink=", 13) == 0) {
      int dev;
      double at, frac;
      if (!ParseTargetedFault(argv[i] + 13, &dev, &at, &frac)) {
        return Usage();
      }
      fault_plan.enabled = true;
      fault_plan.mem_shrink_device = dev;
      fault_plan.mem_shrink_at = at;
      fault_plan.mem_shrink_fraction = frac;
    } else if (std::strncmp(argv[i], "--policy=", 9) == 0) {
      const auto pm = core::PolicyModeFromName(argv[i] + 9);
      if (!pm.ok()) {
        std::cerr << pm.status() << "\n";
        return Usage();
      }
      policy_mode = pm.value();
    } else if (std::strcmp(argv[i], "--dump-policy") == 0) {
      dump_policy = true;
    } else if (std::strcmp(argv[i], "--run") == 0) {
      run = true;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
      run = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
      run = true;
    } else {
      return Usage();
    }
  }
  if (trace_out.empty() && std::getenv("HARMONY_TRACE_OUT") != nullptr) {
    trace_out = std::getenv("HARMONY_TRACE_OUT");
    run = true;
  }
  if (minibatch < 1 || (mode_str != "dp" && mode_str != "pp")) return Usage();
  const auto mode = mode_str == "pp" ? core::HarmonyMode::kPipelineParallel
                                     : core::HarmonyMode::kDataParallel;
  const hw::MachineSpec machine =
      (gpus > 4 ? hw::MachineSpec::Commodity8Gpu()
                : hw::MachineSpec::Commodity4Gpu())
          .WithNumGpus(gpus);

  if (replan) {
    const auto spec = serve::ModelSpec::FromName(model_name);
    if (!spec.ok()) {
      std::cerr << spec.status() << "\n";
      return Usage();
    }
    adapt::AdaptOptions ao;
    ao.iterations = std::max(1, iterations);
    ao.replan_margin = replan_margin;
    ao.health_window_seconds = health_window_ms / 1000.0;
    ao.fault_plan = fault_plan;
    trace::ChromeTraceSink chrome;
    if (!trace_out.empty()) ao.trace_sinks.push_back(&chrome);
    core::SearchOptions so;
    so.policy_mode = policy_mode;
    adapt::AdaptiveRunner runner(machine, spec.value(), mode, minibatch, {},
                                 so, ao);
    std::cout << "Adaptive loop: " << ao.iterations << " iterations, margin "
              << replan_margin << ", " << (fault_plan.Any()
                                               ? fault_plan.Describe()
                                               : std::string("no faults"))
              << "\n";
    const auto result = runner.Run();
    if (!result.ok()) {
      std::cerr << "adaptive run failed: " << result.status() << "\n";
      return 1;
    }
    const auto& ar = result.value();
    for (size_t i = 0; i < ar.iterations.size(); ++i) {
      std::cout << "  iteration " << i << ": "
                << FormatTime(ar.iterations[i].iteration_time) << ", swap "
                << FormatBytes(ar.iterations[i].total_swap())
                << (ar.switched && static_cast<int>(i) >= ar.switch_iteration
                        ? "  [new plan]"
                        : "")
                << "\n";
    }
    for (const auto& d : ar.decisions) {
      std::cout << "  replan @ iteration " << d.iteration << ": "
                << (d.applied ? "applied" : "rejected") << " (" << d.reason
                << ")";
      if (d.old_estimate_seconds > 0) {
        std::cout << ", old est " << FormatTime(d.old_estimate_seconds)
                  << " -> new est " << FormatTime(d.new_estimate_seconds)
                  << " via " << d.planner;
      }
      if (d.applied) {
        std::cout << ", switchover evict "
                  << FormatBytes(d.orphan_evict_bytes) << " + prefetch "
                  << FormatBytes(d.prefetch_bytes) << " ("
                  << FormatTime(d.switchover_seconds) << ")";
      }
      std::cout << "\n";
    }
    if (ar.decisions.empty()) {
      std::cout << "  no re-plan triggered\n";
    }
    std::cout << "  final configuration " << ar.config.ToString() << " on "
              << ar.machine.gpu.name << " x" << ar.machine.num_gpus << "\n";
    if (!trace_out.empty()) {
      const Status st = chrome.WriteFile(trace_out);
      if (!st.ok()) {
        std::cerr << "trace write failed: " << st << "\n";
        return 1;
      }
      std::cout << "  wrote " << chrome.num_events() << " trace events to "
                << trace_out << "\n";
    }
    return 0;
  }

  const bench::PreparedModel pm = bench::Prepare(model_name, machine);
  std::cout << "Model " << pm.name << ": " << pm.model.num_layers()
            << " layers, " << FormatBytes(pm.model.total_param_bytes())
            << " of weights\n"
            << "Deployment: " << gpus << "x " << machine.gpu.name << " ("
            << FormatBytes(machine.gpu.memory_capacity) << " each), "
            << FormatBytes(machine.host_memory) << " host\n\n";

  common::CancelToken cancel;
  if (deadline_ms > 0) {
    cancel.SetDeadlineAfter(std::chrono::milliseconds(deadline_ms));
  }
  core::SearchOptions so;
  so.policy_mode = policy_mode;
  if (deadline_ms > 0) so.cancel = &cancel;
  const auto found = core::SearchConfiguration(pm.profiles, machine, mode,
                                               minibatch, {}, so);
  if (!found.ok()) {
    std::cerr << "no feasible schedule: " << found.status() << "\n";
    return 1;
  }
  const auto& r = found.value();
  std::cout << core::HarmonyModeName(mode) << " configuration "
            << r.best.ToString() << "  (searched " << r.configs_explored
            << " configs, estimated " << r.configs_estimated << ", in "
            << Table::Cell(r.search_wall_seconds) << "s)\n"
            << "  P_F: " << core::PackListToString(r.best.fwd_packs) << "\n"
            << "  P_B: " << core::PackListToString(r.best.bwd_packs) << "\n"
            << "  estimated iteration: "
            << FormatTime(r.best_estimate.iteration_time) << ", swap "
            << FormatBytes(r.best_estimate.swap_bytes) << ", p2p "
            << FormatBytes(r.best_estimate.p2p_bytes) << "\n";

  // The final task graph; its stash_policy is the resolved per-layer table.
  const auto graph = core::GenerateHarmonyTaskGraph(
      r.best, mode, machine.num_gpus, minibatch, {}, pm.profiles);

  if (dump_policy) {
    const int R = pm.profiles.num_layers();
    const core::PolicyTable& pol = graph.stash_policy;
    std::cout << "\nResidency policy (" << (r.best.policy.empty() ? "legacy"
                                                                  : "searched")
              << ", table " << pol.ToString()
              << "), per layer run at U_B=" << r.best.u_bwd << ":\n";
    std::cout << "  layers      policy     stash        recompute\n";
    for (int lo = 0; lo < R;) {
      int hi = lo;
      while (hi + 1 < R && pol.at(hi + 1) == pol.at(lo)) ++hi;
      Bytes stash = 0;
      TimeSec rematerialize = 0;
      for (int l = lo; l <= hi; ++l) {
        stash += static_cast<Bytes>(r.best.u_bwd) *
                 pm.profiles.layer(l).stash_bytes_per_sample;
        rematerialize += pm.profiles.FwdTime(l, r.best.u_bwd);
      }
      std::string range = "L";
      range += std::to_string(lo);
      range += '-';
      range += std::to_string(hi);
      range.resize(std::max<size_t>(range.size() + 2, 12), ' ');
      std::string policy = model::StashPolicyName(pol.at(lo));
      policy.resize(11, ' ');
      std::cout << "  " << range << policy << FormatBytes(stash) << "  "
                << FormatTime(rematerialize) << "\n";
      lo = hi + 1;
    }
  }

  // Show the wrap-around binding of the final task graph.
  std::cout << "\nTask graph (" << graph.num_tasks() << " tasks):\n";
  for (const auto& t : graph.tasks) {
    if (t.id >= 24) {
      std::cout << "  ... (" << graph.num_tasks() - t.id << " more)\n";
      break;
    }
    std::cout << "  task " << t.id << ": " << core::TaskTypeName(t.type)
              << " L" << t.pack.lo << "-" << t.pack.hi << " -> "
              << (t.on_cpu ? "CPU#" : "GPU#") << t.device
              << (t.fused_forward ? "  (jit-compute fused)" : "") << "\n";
  }

  if (!run) return 0;
  std::cout << "\nExecuting one iteration on the simulated deployment...\n";
  const runtime::Runtime rt(machine, pm.model);
  runtime::RuntimeOptions ro;
  ro.optimizer = pm.optimizer;
  if (deadline_ms > 0) ro.cancel = &cancel;
  trace::ChromeTraceSink chrome;
  if (!trace_out.empty()) ro.trace_sinks.push_back(&chrome);
  const auto metrics = rt.Execute(graph, ro);
  if (!metrics.ok()) {
    std::cerr << "execution failed: " << metrics.status() << "\n";
    return 1;
  }
  if (!trace_out.empty()) {
    const Status st = chrome.WriteFile(trace_out);
    if (!st.ok()) {
      std::cerr << "trace write failed: " << st << "\n";
      return 1;
    }
    std::cout << "  wrote " << chrome.num_events() << " trace events to "
              << trace_out << " (chrome://tracing)\n";
  }
  const auto& mm = metrics.value();
  std::cout << "  iteration " << FormatTime(mm.iteration_time) << " ("
            << Table::Cell(mm.Throughput(minibatch)) << " samples/s), swap "
            << FormatBytes(mm.total_swap()) << ", estimator error "
            << Table::Cell(100.0 * (r.best_estimate.iteration_time -
                                    mm.iteration_time) /
                               mm.iteration_time,
                           1)
            << "%\n";
  return 0;
}
