#include "core/search.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_map>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/packing.h"
#include "sim/multirun.h"

namespace harmony::core {

const char* PolicyModeName(PolicyMode mode) {
  switch (mode) {
    case PolicyMode::kLegacy: return "legacy";
    case PolicyMode::kRecomputeAll: return "recompute";
    case PolicyMode::kKeepAll: return "keep";
    case PolicyMode::kSwapAll: return "swap";
    case PolicyMode::kHybridGreedy: return "hybrid";
    case PolicyMode::kSweep: return "sweep";
  }
  return "?";
}

Result<PolicyMode> PolicyModeFromName(const std::string& name) {
  for (PolicyMode m :
       {PolicyMode::kLegacy, PolicyMode::kRecomputeAll, PolicyMode::kKeepAll,
        PolicyMode::kSwapAll, PolicyMode::kHybridGreedy, PolicyMode::kSweep}) {
    if (name == PolicyModeName(m)) return m;
  }
  return Status::InvalidArgument("unknown policy mode '" + name + "'");
}

namespace {

/// One candidate of the four-tuple grid. Backward packs are shared across
/// the whole (U_B, floor) group; `bwd_group` indexes into the group store.
struct GridPoint {
  int u_bwd = 0;
  int bwd_floor = 0;
  int u_fwd = 0;
  int fwd_floor = 0;
  int bwd_group = -1;

  /// The deterministic merge order of the issue statement: candidates with
  /// equal estimated time resolve by this tuple, NOT by enumeration order,
  /// so serial and parallel searches agree bit-for-bit.
  std::tuple<int, int, int, int> TieBreak() const {
    return {u_bwd, u_fwd, bwd_floor, fwd_floor};
  }
};

struct EvalOutcome {
  /// Number of (candidate, policy-table) pairs that were feasible; `config`
  /// and `estimate` describe the best of them (lowest time, then lowest
  /// table index — a deterministic within-candidate tie-break).
  int feasible_count = 0;
  int best_table = 0;
  Configuration config;
  Estimate estimate;
};

/// Thread-safe memo for ForwardPacks keyed by (U_F, min_packs, fwd_layers).
/// ForwardPacks is a pure function of the key (the backward packs only enter
/// through fwd_layers), so a lost insertion race recomputes the same value;
/// the first inserted entry wins and all callers see an identical PackList.
///
/// Sharded by key hash: with one global mutex, every worker serializes on
/// the same lock for every candidate — memo lookups dominate the parallel
/// phase's critical section once ForwardPacks results are mostly cached.
/// Distinct keys now contend only 1/kShards of the time, and each shard is a
/// hash map instead of a red-black tree.
class FwdPackMemo {
 public:
  using Key = std::tuple<int, int, int>;

  const Result<PackList>& Get(const Key& key, int u_fwd, const PackList& bwd,
                              const profile::ProfileDb& profiles,
                              const PackingOptions& packing) {
    Shard& shard = shards_[ShardOf(key)];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.cache.find(key);
      if (it != shard.cache.end()) return *it->second;
    }
    // Compute outside the lock: a duplicate race wastes one recompute but
    // never blocks other shards or other keys of this shard.
    auto computed = std::make_shared<Result<PackList>>(
        ForwardPacks(u_fwd, bwd, profiles, packing));
    std::lock_guard<std::mutex> lock(shard.mu);
    return *shard.cache.emplace(key, std::move(computed)).first->second;
  }

 private:
  static constexpr size_t kShards = 16;

  struct KeyHash {
    size_t operator()(const Key& k) const {
      // FNV-1a over the three ints; good enough to spread shards.
      size_t h = 1469598103934665603ull;
      for (int v : {std::get<0>(k), std::get<1>(k), std::get<2>(k)}) {
        h = (h ^ static_cast<size_t>(v)) * 1099511628211ull;
      }
      return h;
    }
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<Key, std::shared_ptr<Result<PackList>>, KeyHash> cache;
  };

  static size_t ShardOf(const Key& key) { return KeyHash{}(key) % kShards; }

  std::array<Shard, kShards> shards_;
};

}  // namespace

Result<SearchResult> SearchConfiguration(const profile::ProfileDb& profiles,
                                         const hw::MachineSpec& machine,
                                         HarmonyMode mode, int minibatch,
                                         const OptimizationFlags& flags,
                                         const SearchOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  HARMONY_CHECK_GE(minibatch, 1);

  // Effective maximal microbatch sizes (Algorithm 1 lines 1-3).
  int d = minibatch;
  if (mode == HarmonyMode::kDataParallel) {
    d = std::max(1, minibatch / machine.num_gpus);
  }
  const int u_fwd_max = std::min(options.u_fwd_max, d);
  const int u_bwd_max = std::min(options.u_bwd_max, d);

  PackingOptions packing;
  // Heterogeneous fleets pack for the smallest device (every GPU runs the
  // same schedule); identical to machine.gpu on homogeneous machines.
  packing.capacity = static_cast<Bytes>(
      static_cast<double>(machine.MinUsableMemory()) * options.capacity_fraction);
  if (packing.capacity < 1) {
    return Status::InvalidArgument(
        "usable GPU memory x capacity_fraction is below one byte");
  }

  const RuntimeEstimator estimator(profiles, machine);
  const int n = machine.num_gpus;
  const int R = profiles.num_layers();

  // Residency-policy axis. Tables a candidate evaluates depend only on its
  // U_B (the greedy dominance rule compares re-forward time against the
  // swap stall at backward-microbatch granularity, under the same effective
  // per-GPU swap bandwidth the estimator charges).
  const double swap_bw = machine.EffectiveSwapBw(n);
  auto greedy_table = [&](int u_bwd) {
    PolicyTable t = PolicyTable::Uniform(R, StashPolicy::kKeep);
    for (int l = 0; l < R; ++l) {
      model::LayerResidencyCost c;
      c.recompute_time = profiles.FwdTime(l, u_bwd);
      c.stash_bytes = static_cast<Bytes>(u_bwd) *
                      profiles.layer(l).stash_bytes_per_sample;
      c.swap_stall = static_cast<double>(c.stash_bytes) / swap_bw;
      t.Set(l, model::DominantPolicy(c));
    }
    return t;
  };
  auto policy_tables = [&](int u_bwd) -> std::vector<PolicyTable> {
    switch (options.policy_mode) {
      case PolicyMode::kLegacy:
        return {PolicyTable()};  // empty: the generator's default
      case PolicyMode::kRecomputeAll:
        return {PolicyTable::Uniform(R, StashPolicy::kRecompute)};
      case PolicyMode::kKeepAll:
        return {PolicyTable::Uniform(R, StashPolicy::kKeep)};
      case PolicyMode::kSwapAll:
        return {PolicyTable::Uniform(R, StashPolicy::kSwap)};
      case PolicyMode::kHybridGreedy:
        return {greedy_table(u_bwd)};
      case PolicyMode::kSweep:
        return {PolicyTable::Uniform(R, StashPolicy::kRecompute),
                PolicyTable::Uniform(R, StashPolicy::kSwap),
                greedy_table(u_bwd)};
    }
    return {PolicyTable()};
  };
  const int tables_per_point =
      options.policy_mode == PolicyMode::kSweep ? 3 : 1;

  // Capacity gate for tables the balanced-time packing (which models the
  // default always-recompute working set) cannot vet: kept stash must stay
  // resident from forward to backward alongside every task's working set,
  // and swapped stash transits GPU memory before its move completes. The
  // kept term conservatively double-counts the backward pack's own stash
  // (already inside BwdTaskBytes) — a feasible-but-rejected table costs only
  // optimality, never correctness.
  const int share_per_replica =
      mode == HarmonyMode::kDataParallel
          ? (minibatch + machine.num_gpus - 1) / machine.num_gpus
          : minibatch;
  auto policy_feasible = [&](const Configuration& config,
                             const PolicyTable& table) {
    if (table.empty()) return true;  // the default: packing already vetted it
    Bytes kept = 0;
    for (int l = 0; l < R; ++l) {
      if (table.at(l) == StashPolicy::kKeep) {
        kept += static_cast<Bytes>(share_per_replica) *
                profiles.layer(l).stash_bytes_per_sample;
      }
    }
    for (const Pack& p : config.fwd_packs) {
      Bytes transient = 0;
      for (int l = p.lo; l <= p.hi; ++l) {
        if (table.at(l) == StashPolicy::kRecompute) continue;
        transient = std::max(transient,
                             static_cast<Bytes>(config.u_fwd) *
                                 profiles.layer(l).stash_bytes_per_sample);
      }
      if (profiles.FwdTaskBytes(p.lo, p.hi, config.u_fwd) + kept + transient >
          packing.capacity) {
        return false;
      }
    }
    for (const Pack& p : config.bwd_packs) {
      if (profiles.BwdTaskBytes(p.lo, p.hi, config.u_bwd) + kept >
          packing.capacity) {
        return false;
      }
    }
    return true;
  };

  // Pack-count floors explored per pass. Memory alone often permits very
  // coarse packs, but the wrap-around pipeline needs enough tasks to balance
  // GPUs (Fig 7); the estimator arbitrates.
  std::vector<int> fwd_floors = {1};
  std::vector<int> bwd_floors = {1};
  if (mode == HarmonyMode::kPipelineParallel && n > 1) {
    fwd_floors = {1, n, 2 * n, 4 * n};
    bwd_floors = {1, n};
  }

  const common::CancelToken* cancel = options.cancel;
  auto cancelled = [cancel]() { return cancel != nullptr && cancel->Cancelled(); };

  SearchResult result;

  // Phase 1 (serial, cheap): enumerate backward-pack groups — BackwardPacks
  // runs exactly once per (U_B, floor) — and flatten the feasible four-tuple
  // grid into a canonically ordered candidate list.
  std::vector<PackList> bwd_groups;
  std::vector<GridPoint> points;
  for (int u_bwd = 1; u_bwd <= u_bwd_max && !cancelled(); ++u_bwd) {
    for (int bwd_floor : bwd_floors) {
      PackingOptions bwd_packing = packing;
      bwd_packing.min_packs = bwd_floor;
      Result<PackList> bwd = BackwardPacks(u_bwd, profiles, bwd_packing);
      if (!bwd.ok()) continue;  // this U_B cannot fit even single-layer packs
      if (bwd_floor > 1 &&
          static_cast<int>(bwd.value().size()) <= bwd_floor / 2) {
        continue;  // floor had no effect; same packs as a smaller floor
      }
      const int group = static_cast<int>(bwd_groups.size());
      bwd_groups.push_back(std::move(bwd).value());

      for (int u_fwd = 1; u_fwd <= u_fwd_max; ++u_fwd) {
        for (int fwd_floor : fwd_floors) {
          result.configs_explored += tables_per_point;
          if (options.equi_fb &&
              (u_fwd != u_bwd || fwd_floor != fwd_floors.front())) {
            continue;  // explored but outside the Equi-FB slice (Table 4)
          }
          points.push_back(GridPoint{u_bwd, bwd_floor, u_fwd, fwd_floor, group});
        }
      }
    }
  }

  // Candidate tables depend only on U_B, so build them once per microbatch
  // size instead of once per grid point (the greedy table is an O(R) scan —
  // per-point reconstruction dominated sweep-mode search time).
  std::vector<std::vector<PolicyTable>> tables_by_ubwd(u_bwd_max + 1);
  for (int u = 1; u <= u_bwd_max; ++u) tables_by_ubwd[u] = policy_tables(u);

  // Phase 2 (parallel): evaluate every candidate independently. All inputs
  // (profiles, machine, estimator, bwd_groups, tables_by_ubwd) are immutable
  // from here on; the forward-pack memo is the only shared mutable state.
  FwdPackMemo fwd_memo;
  auto evaluate = [&](const GridPoint& pt,
                      EstimatorScratch& scratch) -> EvalOutcome {
    EvalOutcome out;
    const PackList& bwd = bwd_groups[pt.bwd_group];
    Configuration config;
    config.u_bwd = pt.u_bwd;
    config.bwd_packs = bwd;

    if (options.equi_fb) {
      // Equi-FB (Table 4): reuse the backward packs and microbatch size
      // for the forward pass (dropping the fused last pack).
      config.u_fwd = pt.u_bwd;
      config.fwd_packs.assign(bwd.begin(), bwd.end() - 1);
    } else {
      config.u_fwd = pt.u_fwd;
      const int fwd_layers = bwd.back().lo;
      PackingOptions fwd_packing = packing;
      fwd_packing.min_packs = std::min(pt.fwd_floor, fwd_layers);
      const Result<PackList>& fwd = fwd_memo.Get(
          {pt.u_fwd, fwd_packing.min_packs, fwd_layers}, pt.u_fwd, bwd,
          profiles, fwd_packing);
      if (!fwd.ok()) return out;
      config.fwd_packs = fwd.value();
    }

    // Policy axis: evaluate each candidate table on this four-tuple and keep
    // the best (lowest time, then lowest table index). With kLegacy this is
    // one empty table and reproduces the pre-policy evaluation exactly.
    const std::vector<PolicyTable>& tables = tables_by_ubwd[pt.u_bwd];
    for (int ti = 0; ti < static_cast<int>(tables.size()); ++ti) {
      config.policy = tables[ti];
      if (!policy_feasible(config, config.policy)) continue;
      TaskGraph graph = GenerateHarmonyTaskGraph(config, mode, machine.num_gpus,
                                                 minibatch, flags, profiles);
      const Estimate est = estimator.EstimateIteration(graph, nullptr, &scratch);
      ++out.feasible_count;
      if (out.feasible_count == 1 ||
          est.iteration_time < out.estimate.iteration_time) {
        out.estimate = est;
        out.best_table = ti;
        out.config = config;
      }
    }
    return out;
  };

  std::vector<EvalOutcome> outcomes(points.size());
  const int num_threads = options.num_threads <= 0
                              ? common::ThreadPool::DefaultThreadCount()
                              : options.num_threads;
  {
    // Work-stealing fan-out: one run per candidate, one estimator scratch
    // arena per worker (reused across every candidate that worker claims).
    // Each outcome lands in its own slot, so the result is independent of
    // thread count and steal pattern. A tripped cancel token leaves the
    // remaining outcomes infeasible; the cancellation check after the merge
    // discards the partial result.
    sim::MultiRunDriver driver(num_threads);
    std::vector<EstimatorScratch> scratches(
        static_cast<size_t>(driver.num_threads()));
    driver.Run(static_cast<int>(points.size()), [&](int run, int worker) {
      if (cancelled()) return;
      outcomes[run] = evaluate(points[run], scratches[worker]);
    });
  }

  // Phase 3 (serial): deterministic merge. The winner is the feasible
  // candidate with the lowest estimated time, ties broken by lexicographic
  // (u_bwd, u_fwd, bwd_floor, fwd_floor, policy table index) — independent
  // of thread count and of the order workers finished.
  double best_time = -1.0;
  std::tuple<int, int, int, int, int> best_key;
  for (size_t i = 0; i < points.size(); ++i) {
    EvalOutcome& out = outcomes[i];
    if (out.feasible_count == 0) continue;
    result.configs_feasible += out.feasible_count;
    const auto key =
        std::tuple_cat(points[i].TieBreak(), std::make_tuple(out.best_table));
    const bool better =
        best_time < 0 || out.estimate.iteration_time < best_time ||
        (out.estimate.iteration_time == best_time && key < best_key);
    if (better) {
      best_time = out.estimate.iteration_time;
      best_key = key;
      result.best = out.config;
      result.best_estimate = out.estimate;
    }
    if (options.keep_explored) {
      result.explored.push_back(
          ExploredConfig{std::move(out.config), out.estimate});
    }
  }

  result.search_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  if (cancelled()) {
    // Partial sweeps are never returned (and never cached upstream): a
    // cancelled search is indistinguishable from one that never ran.
    if (cancel->DeadlinePassed()) {
      return Status::DeadlineExceeded("configuration search deadline passed");
    }
    return Status::Cancelled("configuration search cancelled");
  }
  if (best_time < 0) {
    return Status::InvalidArgument(
        "no feasible configuration: model layers too large for GPU memory "
        "at every microbatch size");
  }
  // Release builds skip per-candidate structural validation inside
  // GenerateHarmonyTaskGraph; validate the one graph that leaves the search.
  {
    const TaskGraph winner = GenerateHarmonyTaskGraph(
        result.best, mode, machine.num_gpus, minibatch, flags, profiles);
    ValidateTaskGraph(winner);
  }
  return result;
}

}  // namespace harmony::core
