// Fault-machinery overhead baseline: what does carrying the chaos layer cost
// when nobody is injecting anything?
//
// Every hot path in the execution pipeline now hosts an injection site (a
// stall probe per stream op, a failure branch per transfer and allocation
// grant, fault bookkeeping per tensor). With a default — disabled — FaultPlan
// those sites must cost one predictable branch each and nothing more: the
// checked-in BENCH_fault.json pins the fault-off iteration wall-clock, and
// the ctest Bench gate holds it to a 2% leash (scripts/check_bench.py
// --tolerance 0.02), an order of magnitude tighter than the 25% leash on the
// other perf gates.
//
// The armed run (every fault kind at the chaos harness's survivable rates)
// is recorded alongside for scale — it is informational, not gated: recovery
// work is supposed to cost time.
//
// `--json` writes BENCH_fault.json (CWD) in the `benchmark`/`seconds_per_op`
// record format scripts/check_bench.py understands.

// The replan rows measure the adapt loop under a persistent link failure:
// detect -> applied latency (simulated time from the injection to the new
// plan taking over, switchover downtime included) and the post-switchover
// iteration time. Both are pure simulated-time quantities — deterministic to
// the bit from the fault plan — so they ride the same 2% gate as fault_off
// without any scheduler-noise risk.

#include <iostream>
#include <string>
#include <vector>

#include "adapt/runner.h"
#include "bench/bench_common.h"
#include "core/packing.h"
#include "fault/fault.h"
#include "runtime/runtime.h"
#include "serve/wire.h"

namespace {

using namespace harmony;
using bench::JsonObject;

struct Workload {
  hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  model::SequentialModel model;
  core::TaskGraph graph;
};

Workload BuildBert96() {
  Workload w;
  const serve::ProfiledModel pm = bench::Prepare("BERT96", w.machine);
  w.model = pm.model;

  core::PackingOptions opts;
  opts.capacity = static_cast<Bytes>(w.machine.gpu.usable_memory() * 0.85);
  core::Configuration c;
  c.u_fwd = c.u_bwd = 4;
  c.bwd_packs = core::BackwardPacks(4, pm.profiles, opts).value();
  opts.min_packs = 4;
  c.fwd_packs = core::ForwardPacks(4, c.bwd_packs, pm.profiles, opts).value();
  w.graph = core::GenerateHarmonyTaskGraph(c, core::HarmonyMode::kPipelineParallel,
                                           4, 16, core::OptimizationFlags{},
                                           pm.profiles);
  return w;
}

/// Same rates as the chaos harness's SurvivableChaos plan.
fault::FaultPlan ArmedPlan() {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 0xBE7C;
  p.transfer_failure_rate = 0.03;
  p.link_flap_interval = 0.2;
  p.link_flap_duration = 0.05;
  p.link_degrade_factor = 0.25;
  p.mem_pressure_interval = 0.5;
  p.mem_pressure_duration = 0.1;
  p.mem_pressure_fraction = 0.2;
  p.alloc_failure_rate = 0.02;
  p.stream_stall_rate = 0.02;
  p.stream_stall_duration = 0.002;
  return p;
}

double TimeExecute(const Workload& w, const runtime::RuntimeOptions& opts,
                   int reps) {
  const runtime::Runtime rt(w.machine, w.model);
  const auto run = [&]() {
    const auto metrics = rt.Execute(w.graph, opts);
    HARMONY_CHECK(metrics.ok()) << metrics.status();
  };
  run();  // warm the allocator and page cache outside the timed reps
  // A single iteration is ~2 ms — too short for a 2% gate against scheduler
  // noise — so each sample averages a batch of 25 and the gate pins the
  // *minimum* sample: scheduler preemption and frequency ramps only ever add
  // time, so min-of-N converges on the code's true cost where a median still
  // jitters.
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const double s = bench::MedianSecondsPerOp(1, /*iters=*/25, run);
    if (r == 0 || s < best) best = s;
  }
  return best;
}

struct ReplanNumbers {
  double detect_to_applied = 0;   // simulated seconds, injection -> new plan
  double post_switch_iteration = 0;  // simulated seconds under the new plan
};

/// Drives the adapt loop under a persistent uplink failure and reads the
/// detect->applied story off the returned decision log. Simulated time only.
ReplanNumbers MeasureReplan() {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  fault::FaultPlan fp;
  fp.enabled = true;
  fp.seed = 0xBE7C;
  fp.link_fail_at = 0.005;
  fp.link_fail_link = machine.LinkSwitchUp(0);
  fp.link_fail_factor = 0.02;

  adapt::AdaptOptions ao;
  ao.iterations = 4;
  ao.replan_margin = -1.0;  // the row measures mechanics, not the margin
  ao.fault_plan = fp;
  adapt::AdaptiveRunner runner(machine,
                               serve::ModelSpec::FromName("BERT96").value(),
                               core::HarmonyMode::kPipelineParallel, 16, {},
                               {}, ao);
  const auto run = runner.Run();
  HARMONY_CHECK(run.ok()) << run.status();
  const adapt::AdaptResult& ar = run.value();
  HARMONY_CHECK(ar.switched);
  HARMONY_CHECK_EQ(static_cast<int>(ar.decisions.size()), 1);

  ReplanNumbers out;
  // Injection lands at link_fail_at inside the first iteration; the new plan
  // takes over after the decision iteration's boundary plus the reconciling
  // switchover drain/fill.
  for (int i = 0; i <= ar.decisions[0].iteration; ++i) {
    out.detect_to_applied += ar.iterations[i].iteration_time;
  }
  out.detect_to_applied -= fp.link_fail_at;
  out.detect_to_applied += ar.decisions[0].switchover_seconds;
  out.post_switch_iteration =
      ar.iterations[ar.switch_iteration].iteration_time;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool as_json = argc > 1 && std::string(argv[1]) == "--json";
  bench::PrintHeader("Fault-machinery overhead (BERT96 pp mb16 u4)",
                     "chaos layer; injection sites on every hot path");

  const Workload w = BuildBert96();
  constexpr int kReps = 12;

  runtime::RuntimeOptions off;  // default: fault_plan disabled
  const double fault_off = TimeExecute(w, off, kReps);

  runtime::RuntimeOptions armed;
  armed.fault_plan = ArmedPlan();
  const double fault_armed = TimeExecute(w, armed, kReps);

  const ReplanNumbers replan = MeasureReplan();

  std::cout << "  fault off   : " << fault_off * 1e3 << " ms/iteration\n"
            << "  fault armed : " << fault_armed * 1e3 << " ms/iteration ("
            << fault_armed / fault_off << "x, incl. recovery work)\n"
            << "  replan      : detect->applied " << replan.detect_to_applied
            << " s (simulated), post-switchover iteration "
            << replan.post_switch_iteration * 1e3 << " ms\n";

  if (!as_json) return 0;
  std::vector<JsonObject> records;
  records.emplace_back();
  records.back()
      .Set("benchmark", "fault_off_bert96_iteration")
      .Set("seconds_per_op", fault_off);
  records.emplace_back();
  records.back()
      .Set("benchmark", "fault_armed_bert96_iteration")
      .Set("seconds_per_op", fault_armed)
      .Set("armed_over_off", fault_armed / fault_off);
  records.emplace_back();
  records.back()
      .Set("benchmark", "replan_detect_to_applied_bert96")
      .Set("seconds_per_op", replan.detect_to_applied);
  records.emplace_back();
  records.back()
      .Set("benchmark", "replan_post_switchover_bert96_iteration")
      .Set("seconds_per_op", replan.post_switch_iteration);
  return bench::WriteJsonFile("BENCH_fault.json", records) ? 0 : 1;
}
