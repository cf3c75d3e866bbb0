#ifndef HARMONY_CORE_SEARCH_H_
#define HARMONY_CORE_SEARCH_H_

#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/estimator.h"
#include "core/task_graph.h"

namespace harmony::core {

/// How Algorithm 1 treats the per-layer {keep, swap, recompute} stash axis.
enum class PolicyMode {
  /// Empty policy tables, i.e. the paper's default (recompute everywhere):
  /// the search is bit-identical to the pre-policy-axis implementation.
  kLegacy = 0,
  /// Force one uniform table on every candidate.
  kRecomputeAll,
  kKeepAll,
  kSwapAll,
  /// Greedy per-layer dominance at each candidate's U_B: recompute iff the
  /// re-forward is cheaper than the estimated swap stall, else swap
  /// (stash-free layers keep).
  kHybridGreedy,
  /// The policy axis proper: every candidate evaluates recompute-all,
  /// swap-all and the greedy hybrid table, and the estimator arbitrates.
  kSweep,
};

const char* PolicyModeName(PolicyMode mode);
/// Parses the names PolicyModeName emits ("legacy", "recompute", "keep",
/// "swap", "hybrid", "sweep"); used by the wire format and harmony_plan.
Result<PolicyMode> PolicyModeFromName(const std::string& name);

struct SearchOptions {
  /// Maximal microbatch sizes U_FMAX / U_BMAX (Algorithm 1 inputs); further
  /// capped by the per-replica minibatch.
  int u_fwd_max = 32;
  int u_bwd_max = 32;
  /// Fraction of the GPU's usable memory handed to packing as capacity alpha
  /// (the rest is headroom for double-buffered prefetch, Sec 4.4).
  double capacity_fraction = 0.85;
  /// Table 4 ablation: force the forward configuration to equal the backward
  /// one (Equi-FB) instead of searching a distinct four-tuple (Distinct-FB).
  bool equi_fb = false;
  /// Residency-policy axis (see PolicyMode). kLegacy keeps the search — and
  /// its explored/feasible counts, winner and estimate — bit-identical to
  /// the pre-policy implementation; kSweep adds {recompute-all, swap-all,
  /// greedy-hybrid} as a per-candidate Pareto dimension.
  PolicyMode policy_mode = PolicyMode::kLegacy;
  /// Cap on the threads the candidate sweep uses: the calling thread plus
  /// helpers borrowed from common::ThreadPool::Shared(); the search creates
  /// none. 1 runs serially in the calling thread and never starts the
  /// process pool; <= 0 selects the hardware concurrency. The result is
  /// identical for every value (see DESIGN.md "Threading model"):
  /// candidates are enumerated in a canonical order and merged with a
  /// deterministic tie-break, so threading only changes wall time (and
  /// SearchResult::configs_estimated). The daemon caps it at decode
  /// (serve::kMaxRequestThreads).
  int num_threads = 1;
  /// Keep every explored configuration in SearchResult::explored (needed by
  /// the Fig 14 estimator-accuracy experiment). This also estimates every
  /// feasible candidate, in canonical order, instead of skipping those the
  /// lane floor rules out. Off by default: the hot search path only needs
  /// the best configuration.
  bool keep_explored = false;
  /// Optional cooperative cancellation (borrowed; may be armed from another
  /// thread). Polled once per grid point while candidates are prepared and
  /// between candidate evaluations; a tripped token makes the search unwind
  /// promptly and return Cancelled (or DeadlineExceeded when the token
  /// tripped on its deadline) instead of a partial result.
  /// Never affects the returned configuration: a search either completes
  /// bit-identically to an uncancelled run or fails. Used by serve's
  /// PlanService for per-request deadlines and shutdown aborts.
  const common::CancelToken* cancel = nullptr;
};

/// One explored configuration and its estimated iteration time (kept for
/// the Fig 14 estimator-accuracy experiment).
struct ExploredConfig {
  Configuration config;
  Estimate estimate;
};

struct SearchResult {
  Configuration best;
  Estimate best_estimate;
  int configs_explored = 0;
  int configs_feasible = 0;
  /// Estimator calls the search made: the feasible (candidate, policy table)
  /// pairs whose lane floor did not rule them out. Deterministic at one
  /// thread; at more it may vary with timing (a worker can estimate a
  /// candidate before another worker's better incumbent lands), while
  /// `best`, `best_estimate`, `configs_explored`, `configs_feasible` and
  /// `explored` never do. Equals configs_feasible under keep_explored.
  int configs_estimated = 0;
  /// Real wall-clock seconds the search took (Table 1's "Time (s)").
  double search_wall_seconds = 0;
  /// Populated only when SearchOptions::keep_explored is set.
  std::vector<ExploredConfig> explored;
};

/// Algorithm 1: Harmony Configuration Search. Sweeps (U_B, U_F), derives
/// balanced-time packs for each, generates the task graph, estimates its
/// iteration time, and returns the fastest configuration.
///
/// A serial prep pass packs every grid point and prices each feasible
/// (point, policy table) pair with its lane floor (core/estimator.h), an
/// admissible lower bound on its estimate. SearchOptions::num_threads
/// workers then estimate points in ascending-floor order against a shared
/// incumbent and skip every pair whose floor is strictly above it. Winners
/// merge by lowest estimated time, ties broken by lexicographic (u_bwd,
/// u_fwd, bwd_floor, fwd_floor, table), so any thread count returns the
/// same result as the exhaustive sweep, bit for bit (DESIGN.md §3
/// "Threading model").
Result<SearchResult> SearchConfiguration(const profile::ProfileDb& profiles,
                                         const hw::MachineSpec& machine,
                                         HarmonyMode mode, int minibatch,
                                         const OptimizationFlags& flags,
                                         const SearchOptions& options);

}  // namespace harmony::core

#endif  // HARMONY_CORE_SEARCH_H_
