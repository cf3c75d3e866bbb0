// Measures how the parallel configuration search (Algorithm 1 fanned out
// with ThreadPool::Run over the shared process pool) scales with its worker
// cap, on the Table 1 workload (Harmony PP, 4 GPUs, minibatch 64). With
// --json, also emits the machine-readable perf baseline BENCH_search.json:
//   {model, threads, configs_explored, search_wall_seconds,
//    best_iteration_time}
// The chosen configuration is thread-count-invariant by construction (each
// candidate's outcome lands in its own slot and the merge is a deterministic
// serial pass); every multi-threaded row is asserted bit-identical to the
// serial row before it is recorded, so the baseline doubles as a
// determinism regression check.

#include <iostream>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"

namespace harmony::bench {
namespace {

int Run(int argc, char** argv) {
  const bool json = JsonFlag(argc, argv);
  PrintHeader("Configuration-search scaling vs worker threads (Harmony PP, "
              "4 GPUs, minibatch 64)",
              "Table 1 (Scheduler wall time) under the thread-pooled search");
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  std::cout << "Host hardware concurrency: " << cores << "\n\n";

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  // Each (model, threads) point is searched kReps times and reported as the
  // median wall time: single runs jitter by tens of percent under scheduler
  // noise, which would swamp the scaling signal the baseline pins.
  constexpr int kReps = 5;
  std::vector<JsonObject> records;
  bool parity_ok = true;
  bool no_regression = true;

  Table t({"Model", "threads", "configs explored", "search wall (s)",
           "speedup vs 1T", "best est. iter (s)"});
  // "GPT2+policy" is GPT2 searched with the residency-policy sweep
  // (PolicyMode::kSweep): three tables per grid point, so its wall time pins
  // the cost of the enlarged search space relative to the plain GPT2 rows.
  for (const std::string name :
       {"BERT96", "GPT2", "VGG416", "ResNet1K", "GPT2+policy"}) {
    const bool policy_sweep = name.find("+policy") != std::string::npos;
    const serve::ProfiledModel pm = Prepare(
        policy_sweep ? name.substr(0, name.find("+policy")) : name, machine);
    core::SearchResult serial;
    double serial_wall = 0.0;
    for (int threads : thread_counts) {
      core::SearchOptions opts;
      opts.u_fwd_max = 32;
      opts.u_bwd_max = 32;
      opts.num_threads = threads;
      if (policy_sweep) opts.policy_mode = core::PolicyMode::kSweep;
      auto search = [&]() {
        return core::SearchConfiguration(
            pm.profiles, machine, core::HarmonyMode::kPipelineParallel, 64,
            core::OptimizationFlags{}, opts);
      };
      auto result = search();
      if (!result.ok()) {
        t.AddRow({name, Table::Cell(threads), "-", "-", "-",
                  result.status().ToString()});
        continue;
      }
      std::vector<double> walls = {result.value().search_wall_seconds};
      for (int rep = 1; rep < kReps; ++rep) {
        const auto again = search();
        if (again.ok()) walls.push_back(again.value().search_wall_seconds);
      }
      const double wall = Median(std::move(walls));
      const auto& r = result.value();
      if (threads == thread_counts.front()) {
        serial = r;
        serial_wall = wall;
      } else {
        // Determinism guarantee: identical winner at every thread count.
        const bool same =
            r.best.u_fwd == serial.best.u_fwd &&
            r.best.u_bwd == serial.best.u_bwd &&
            r.best.fwd_packs == serial.best.fwd_packs &&
            r.best.bwd_packs == serial.best.bwd_packs &&
            r.best.policy == serial.best.policy &&
            r.best_estimate.iteration_time ==
                serial.best_estimate.iteration_time &&
            r.configs_explored == serial.configs_explored &&
            r.configs_feasible == serial.configs_feasible;
        if (!same) {
          parity_ok = false;
          std::cout << "PARITY VIOLATION: " << name << " at " << threads
                    << " threads diverged from the serial search\n";
        }
      }
      const double speedup = serial_wall > 0 ? serial_wall / wall : 1.0;
      // With more workers than cores the pool only adds scheduling overhead;
      // "no regression" = within 25% of the serial wall time.
      if (threads > 1 && speedup < 0.75) no_regression = false;
      t.AddRow({name, Table::Cell(threads), Table::Cell(r.configs_explored),
                Table::Cell(wall, 4), Table::Cell(speedup),
                Table::Cell(r.best_estimate.iteration_time, 4)});
      records.push_back(
          JsonObject()
              .Set("model", name)
              .Set("threads", threads)
              .Set("reps", kReps)
              .Set("configs_explored", r.configs_explored)
              .Set("search_wall_seconds", wall)
              .Set("best_iteration_time", r.best_estimate.iteration_time));
    }
  }
  t.PrintAscii(&std::cout);

  std::cout << "\nDeterminism (identical best config at all thread counts): "
            << (parity_ok ? "PASS" : "FAIL") << "\n";
  if (cores >= 4) {
    std::cout << "Expectation on this >=4-core host: >=2x speedup at 4 "
                 "threads (see table)\n";
  } else {
    std::cout << "Single/dual-core host: expecting no regression from "
                 "threading overhead: "
              << (no_regression ? "PASS" : "FAIL") << "\n";
  }

  if (json) {
    const std::string path = "BENCH_search.json";
    if (WriteJsonFile(path, records)) {
      std::cout << "Wrote " << records.size() << " records to " << path << "\n";
    }
  }
  return parity_ok ? 0 : 1;
}

}  // namespace
}  // namespace harmony::bench

int main(int argc, char** argv) { return harmony::bench::Run(argc, argv); }
