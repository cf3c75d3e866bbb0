#ifndef HARMONY_BENCH_BENCH_COMMON_H_
#define HARMONY_BENCH_BENCH_COMMON_H_

#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "core/search.h"
#include "core/task_graph.h"
#include "model/memory.h"
#include "model/models.h"
#include "profile/profiler.h"
#include "runtime/runtime.h"
#include "serve/profiled_model.h"

namespace harmony::bench {

/// Builds one of the paper's evaluation models by name ("BERT-Large",
/// "BERT96", "GPT2", "GPT2-Medium", "VGG416", "ResNet1K", or "GPT2-<N>B")
/// and profiles it on the machine's planning GPU.
serve::ProfiledModel Prepare(const std::string& name,
                             const hw::MachineSpec& machine);

/// The result of running one scheme once.
struct SchemeResult {
  std::string scheme;
  bool ok = false;
  std::string error;
  TimeSec iteration_time = 0;
  double throughput = 0;  // samples/s
  runtime::RunMetrics metrics;
  core::Configuration config;        // Harmony/ZeRO configs
  core::SearchResult search;         // populated for Harmony schemes
};

/// All schemes of Fig 9 plus ZeRO-Infinity.
enum class Scheme {
  kDpSwap,
  kGpSwap,
  kGpSwapR,
  k2bwSwap,
  k2bwSwapR,
  kHarmonyDp,
  kHarmonyPp,
  kZeroInfinity,
};

const char* SchemeName(Scheme scheme);

struct RunSchemeOptions {
  int u_max = 16;                      // Harmony search U_FMAX/U_BMAX
  int baseline_u_cap = 16;             // cap for MaxFeasibleMicrobatch
  core::OptimizationFlags flags;       // Harmony optimization toggles
  /// Reuse a previously found Harmony configuration (e.g. ZeRO sharing
  /// Harmony's config per Sec 5.3, or the expert-config ablation).
  std::optional<core::Configuration> fixed_config;
};

/// Schedules (if applicable) and executes one scheme for one iteration on
/// the machine; OOMs and scheduling failures are reported, not fatal.
SchemeResult RunScheme(Scheme scheme, const serve::ProfiledModel& pm,
                       const hw::MachineSpec& machine, int minibatch,
                       const RunSchemeOptions& options = {});

/// Prints a standard header for a figure/table reproduction.
void PrintHeader(const std::string& title, const std::string& paper_ref);

/// One flat JSON object, rendered in insertion order. Just enough JSON for
/// machine-readable perf baselines (BENCH_*.json); not a general serializer.
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, const std::string& value);
  JsonObject& Set(const std::string& key, const char* value);
  JsonObject& Set(const std::string& key, int64_t value);
  JsonObject& Set(const std::string& key, int value);
  JsonObject& Set(const std::string& key, double value);

  std::string ToString() const;

 private:
  JsonObject& SetRaw(const std::string& key, std::string rendered);
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// True when argv contains `--json` — the standard bench flag selecting
/// machine-readable output alongside the human tables.
bool JsonFlag(int argc, char** argv);

/// Standard measurement for `BENCH_*.json` baselines: one untimed warm-up
/// call, then `reps` timed repetitions of `iters` back-to-back iterations
/// each, reporting the *median* seconds-per-op across repetitions. The median
/// rejects one-off scheduler/allocator hiccups that a single timed run (the
/// previous scheme) folded straight into the checked-in baseline.
double MedianSecondsPerOp(int reps, int iters,
                          const std::function<void()>& fn);

/// Median of `samples` (averages the two middle elements for even sizes).
/// Exposed for benches that collect their own wall-time samples.
double Median(std::vector<double> samples);

/// Writes `records` to `path` as a pretty-printed JSON array (one object per
/// line). Returns false (with a message on stderr) if the file can't be
/// written.
bool WriteJsonFile(const std::string& path,
                   const std::vector<JsonObject>& records);

}  // namespace harmony::bench

#endif  // HARMONY_BENCH_BENCH_COMMON_H_
