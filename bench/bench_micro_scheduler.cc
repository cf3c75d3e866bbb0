// Microbenchmarks (google-benchmark) for the Scheduler's hot paths: balanced
// time packing, task graph generation, runtime estimation, the full
// configuration search, one simulated runtime execution, and the fork-join
// fan-out the parallel search runs on (ThreadPool::Run). These back
// Table 1's claim that end-to-end scheduling stays in seconds even for
// 1000-layer CNNs.
//
// `--json` skips google-benchmark and instead times each path manually,
// writing machine-readable per-op baselines to BENCH_runtime.json (compare
// against the checked-in baseline to catch scheduler/runtime regressions).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <vector>

#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "core/packing.h"
#include "core/search.h"
#include "runtime/runtime.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace harmony::bench {
namespace {

const serve::ProfiledModel& Gpt2Model() {
  static const serve::ProfiledModel* pm =
      new serve::ProfiledModel(
          Prepare("GPT2", hw::MachineSpec::Commodity4Gpu()));
  return *pm;
}

const serve::ProfiledModel& ResnetModel() {
  static const serve::ProfiledModel* pm =
      new serve::ProfiledModel(
          Prepare("ResNet1K", hw::MachineSpec::Commodity4Gpu()));
  return *pm;
}

core::PackingOptions Packing() {
  core::PackingOptions opts;
  opts.capacity = static_cast<Bytes>(
      hw::MachineSpec::Commodity4Gpu().gpu.usable_memory() * 0.85);
  return opts;
}

void BM_BalancedTimePacking_Gpt2(benchmark::State& state) {
  const auto& pm = Gpt2Model();
  for (auto _ : state) {
    auto packs = core::BackwardPacks(static_cast<int>(state.range(0)),
                                     pm.profiles, Packing());
    benchmark::DoNotOptimize(packs);
  }
}
BENCHMARK(BM_BalancedTimePacking_Gpt2)->Arg(1)->Arg(4);

void BM_BalancedTimePacking_ResNet1K(benchmark::State& state) {
  const auto& pm = ResnetModel();
  for (auto _ : state) {
    auto packs = core::BackwardPacks(16, pm.profiles, Packing());
    benchmark::DoNotOptimize(packs);
  }
}
BENCHMARK(BM_BalancedTimePacking_ResNet1K);

void BM_TaskGraphGeneration(benchmark::State& state) {
  const auto& pm = Gpt2Model();
  core::Configuration config;
  config.u_fwd = config.u_bwd = 4;
  config.bwd_packs = core::BackwardPacks(4, pm.profiles, Packing()).value();
  config.fwd_packs =
      core::ForwardPacks(4, config.bwd_packs, pm.profiles, Packing()).value();
  for (auto _ : state) {
    auto g = core::GenerateHarmonyTaskGraph(
        config, core::HarmonyMode::kPipelineParallel, 4, 64,
        core::OptimizationFlags{}, pm.profiles);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_TaskGraphGeneration);

void BM_RuntimeEstimation(benchmark::State& state) {
  const auto& pm = Gpt2Model();
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  core::Configuration config;
  config.u_fwd = config.u_bwd = 4;
  config.bwd_packs = core::BackwardPacks(4, pm.profiles, Packing()).value();
  config.fwd_packs =
      core::ForwardPacks(4, config.bwd_packs, pm.profiles, Packing()).value();
  const auto g = core::GenerateHarmonyTaskGraph(
      config, core::HarmonyMode::kPipelineParallel, 4, 64,
      core::OptimizationFlags{}, pm.profiles);
  const core::RuntimeEstimator est(pm.profiles, machine);
  for (auto _ : state) {
    auto e = est.EstimateIteration(g);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_RuntimeEstimation);

void BM_FullConfigurationSearch_Gpt2(benchmark::State& state) {
  const auto& pm = Gpt2Model();
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  core::SearchOptions opts;
  opts.u_fwd_max = static_cast<int>(state.range(0));
  opts.u_bwd_max = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = core::SearchConfiguration(pm.profiles, machine,
                                       core::HarmonyMode::kPipelineParallel, 64,
                                       core::OptimizationFlags{}, opts);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FullConfigurationSearch_Gpt2)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

core::TaskGraph Gpt2Graph(int minibatch) {
  const auto& pm = Gpt2Model();
  core::Configuration config;
  config.u_fwd = config.u_bwd = 4;
  config.bwd_packs = core::BackwardPacks(4, pm.profiles, Packing()).value();
  config.fwd_packs =
      core::ForwardPacks(4, config.bwd_packs, pm.profiles, Packing()).value();
  return core::GenerateHarmonyTaskGraph(
      config, core::HarmonyMode::kPipelineParallel, 4, minibatch,
      core::OptimizationFlags{}, pm.profiles);
}

void BM_RuntimeExecution_Gpt2(benchmark::State& state) {
  const auto& pm = Gpt2Model();
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const auto g = Gpt2Graph(static_cast<int>(state.range(0)));
  const runtime::Runtime rt(machine, pm.model);
  for (auto _ : state) {
    auto m = rt.Execute(g);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_RuntimeExecution_Gpt2)->Arg(16)->Unit(benchmark::kMillisecond);

/// Flow-heavy contention workload: the commodity 8-GPU PCIe tree carrying a
/// steady population of ~40 concurrent flows — per-GPU swap-in + swap-out
/// streams behind 4:1-oversubscribed switch uplinks plus same-switch and
/// cross-switch p2p pairs — where every completion immediately launches a
/// replacement flow. Each of the ~2.4k starts/completions triggers a full
/// max-min recompute over the whole population, which is exactly
/// FlowNetwork's hot path during a swap-saturated Harmony iteration.
void FlowContentionOnce() {
  sim::Engine e;
  const hw::MachineSpec m = hw::MachineSpec::Commodity8Gpu();
  const sim::Interconnect net(m);
  sim::FlowNetwork flows(&e, net.capacities());

  constexpr int kTotalFlows = 2400;
  int launched = 0;
  int drained = 0;
  // Deterministic byte sizes staggered so completions interleave instead of
  // draining in lock-step waves.
  const auto bytes_for = [](int i) { return MiB(24 + 8 * (i % 7)); };

  std::function<void(int)> launch = [&](int slot) {
    if (launched >= kTotalFlows) return;
    const int i = launched++;
    std::vector<int> path;
    switch (slot % 5) {
      case 0: path = net.SwapInPath(i % m.num_gpus); break;
      case 1: path = net.SwapOutPath((i + 3) % m.num_gpus); break;
      case 2: path = net.SwapInPath((i + 5) % m.num_gpus); break;
      case 3:  // same-switch p2p
        path = net.P2pPath(i % 4, (i + 1) % 4);
        break;
      default:  // cross-switch p2p
        path = net.P2pPath(i % 4, 4 + (i + 1) % 4);
        break;
    }
    flows.StartFlow(path, bytes_for(i), [&, slot] {
      ++drained;
      launch(slot);
    });
  };
  constexpr int kConcurrent = 40;
  for (int s = 0; s < kConcurrent; ++s) launch(s);
  e.Run();
  HARMONY_CHECK_EQ(drained, kTotalFlows);
  benchmark::DoNotOptimize(drained);
}

void BM_FlowContention_8Gpu(benchmark::State& state) {
  for (auto _ : state) FlowContentionOnce();
}
BENCHMARK(BM_FlowContention_8Gpu)->Unit(benchmark::kMillisecond);

// Per-call overhead of one fork-join over the process pool: 8 trivial runs
// at a cap of range(0) workers, the shape of one parallel search's fan-out.
void BM_ThreadPoolRun(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  common::ThreadPool& pool = common::ThreadPool::Shared();
  for (auto _ : state) {
    pool.Run(8, threads, [](int run, int) { benchmark::DoNotOptimize(run); });
  }
}
BENCHMARK(BM_ThreadPoolRun)->Arg(1)->Arg(2)->Arg(4);

// --- machine-readable baseline mode (`--json`) -----------------------------

int RunJsonMode() {
  const auto& pm = Gpt2Model();
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  constexpr int kReps = 5;
  std::vector<JsonObject> records;
  auto record = [&records](const char* name, int iters,
                           const std::function<void()>& fn) {
    const double sec = MedianSecondsPerOp(kReps, iters, fn);
    JsonObject o;
    o.Set("benchmark", name)
        .Set("iterations", iters)
        .Set("reps", kReps)
        .Set("seconds_per_op", sec);
    records.push_back(o);
    std::cout << name << ": " << FormatTime(sec) << "/op (median of " << kReps
              << " reps x " << iters << " iters)\n";
  };

  record("balanced_time_packing_gpt2_u4", 20, [&]() {
    auto packs = core::BackwardPacks(4, pm.profiles, Packing());
    benchmark::DoNotOptimize(packs);
  });
  record("task_graph_generation_gpt2_mb64", 20, [&]() {
    auto g = Gpt2Graph(64);
    benchmark::DoNotOptimize(g);
  });
  {
    const auto g = Gpt2Graph(64);
    const core::RuntimeEstimator est(pm.profiles, machine);
    record("runtime_estimation_gpt2_mb64", 20, [&]() {
      auto e = est.EstimateIteration(g);
      benchmark::DoNotOptimize(e);
    });
  }
  {
    core::SearchOptions opts;
    opts.u_fwd_max = opts.u_bwd_max = 8;
    record("full_configuration_search_gpt2_u8", 3, [&]() {
      auto r = core::SearchConfiguration(pm.profiles, machine,
                                         core::HarmonyMode::kPipelineParallel,
                                         64, core::OptimizationFlags{}, opts);
      benchmark::DoNotOptimize(r);
    });
  }
  {
    const auto g = Gpt2Graph(16);
    const runtime::Runtime rt(machine, pm.model);
    record("runtime_execution_gpt2_mb16", 5, [&]() {
      auto m = rt.Execute(g);
      benchmark::DoNotOptimize(m);
    });
  }
  record("flow_contention_8gpu_40flows", 3, FlowContentionOnce);

  return WriteJsonFile("BENCH_runtime.json", records) ? 0 : 1;
}

}  // namespace
}  // namespace harmony::bench

int main(int argc, char** argv) {
  if (harmony::bench::JsonFlag(argc, argv)) {
    // Manual timing mode: google-benchmark never sees the unknown flag.
    return harmony::bench::RunJsonMode();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
