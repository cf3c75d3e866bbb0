// Microbenchmarks for the simulator core's event queue: schedule + dispatch
// throughput of harmony::sim::Engine under three event mixes, with --json
// emitting the machine-readable baseline BENCH_sim.json (seconds per event)
// that scripts/check_bench.py gates in CI.
//
//   uniform          steady-state: leaders reschedule at jittered deltas, so
//                    the clock advances smoothly and the heap stays small.
//   bursty           dense ties: every leader schedules an 8-event burst at
//                    one exact timestamp (FIFO tie-break stress).
//   far_future_heavy 20% of inserts land ~1e8 s past the clock, so the heap
//                    grows with pending far-future events that drain only
//                    once the near-term chain is spent.
//
// The workloads are seeded and self-contained: identical event counts and
// identical schedules on every run, so the baseline measures the queue, not
// the generator.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "sim/engine.h"

namespace harmony::bench {
namespace {

/// Drives one workload: a chain of "leader" events keeps the queue in steady
/// state, each firing scheduling `burst` no-op followers plus its successor
/// until the event budget is spent. Returns events processed.
class SimCoreDriver {
 public:
  SimCoreDriver(int64_t budget, int burst, double far_fraction)
      : budget_(budget), burst_(burst), far_fraction_(far_fraction) {}

  int64_t Run() {
    Arm();
    engine_.Run();
    return engine_.events_processed();
  }

 private:
  void Arm() {
    if (budget_ <= 0) return;
    const double t = engine_.now() + jitter_(rng_) * 1e-3;
    const int followers =
        static_cast<int>(std::min<int64_t>(burst_ - 1, budget_ - 1));
    for (int b = 0; b < followers; ++b) {
      --budget_;
      if (far_fraction_ > 0 && far_coin_(rng_) < far_fraction_) {
        // Far future: stays pending until the near-term chain is spent.
        engine_.At(engine_.now() + 1.0e8 + jitter_(rng_), [] {});
      } else {
        engine_.At(t, [] {});
      }
    }
    --budget_;
    engine_.At(t, [this] { Arm(); });
  }

  sim::Engine engine_;
  std::mt19937_64 rng_{0x5eedc0de};
  std::uniform_real_distribution<double> jitter_{0.5, 1.5};
  std::uniform_real_distribution<double> far_coin_{0.0, 1.0};
  int64_t budget_;
  int burst_;
  double far_fraction_;
};

struct Workload {
  const char* name;
  int burst;
  double far_fraction;
};

int Run(int argc, char** argv) {
  const bool json = JsonFlag(argc, argv);
  PrintHeader("Simulator core: event queue throughput",
              "engine hot path under uniform / bursty / far-future mixes");

  constexpr int64_t kEvents = 200000;
  constexpr int kReps = 5;
  const std::vector<Workload> workloads = {
      {"sim_core_uniform", 1, 0.0},
      {"sim_core_bursty", 8, 0.0},
      {"sim_core_far_future_heavy", 4, 0.2},
  };

  std::vector<JsonObject> records;
  Table t({"Workload", "events", "ns/event", "Mevents/s"});
  for (const Workload& w : workloads) {
    int64_t events = 0;
    std::vector<double> per_event;
    for (int rep = 0; rep < kReps + 1; ++rep) {
      SimCoreDriver driver(kEvents, w.burst, w.far_fraction);
      const auto start = std::chrono::steady_clock::now();
      events = driver.Run();
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (rep == 0) continue;  // warm-up: page in the arenas
      per_event.push_back(wall / static_cast<double>(events));
    }
    const double sec = Median(std::move(per_event));
    t.AddRow({w.name, Table::Cell(events), Table::Cell(sec * 1e9, 1),
              Table::Cell(1e-6 / sec, 2)});
    records.push_back(JsonObject()
                          .Set("benchmark", w.name)
                          .Set("iterations", static_cast<int64_t>(events))
                          .Set("reps", kReps)
                          .Set("seconds_per_op", sec));
  }
  t.PrintAscii(&std::cout);

  if (json) {
    const std::string path = "BENCH_sim.json";
    if (WriteJsonFile(path, records)) {
      std::cout << "\nWrote " << records.size() << " records to " << path
                << "\n";
    } else {
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace harmony::bench

int main(int argc, char** argv) { return harmony::bench::Run(argc, argv); }
