#include "core/search.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <unordered_map>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/packing.h"

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

/// kSweep evaluates three policy tables per grid point; every other mode one.
constexpr int kMaxTablesPerPoint = 3;

/// One candidate of the four-tuple grid, resolved by the serial prep pass.
/// Backward packs are shared across the whole (U_B, floor) group and forward
/// packs across every point with the same forward-packing key, so a point
/// holds pointers into those stores.
struct Candidate {
  int u_bwd = 0;
  int bwd_floor = 0;
  int u_fwd = 0;
  int fwd_floor = 0;
  const PackList* bwd = nullptr;
  const PackList* fwd = nullptr;
  /// Lane floor of each policy table; +inf marks a table the capacity gate
  /// rejected (never estimated, not counted feasible).
  std::array<double, kMaxTablesPerPoint> floor{};
  double min_floor = 0;

  /// The deterministic merge order: candidates with equal estimated time
  /// resolve by this tuple, NOT by evaluation order, so serial, parallel
  /// and pruned searches agree bit-for-bit.
  std::tuple<int, int, int, int> TieBreak() const {
    return {u_bwd, u_fwd, bwd_floor, fwd_floor};
  }
};

struct EvalOutcome {
  /// Number of policy tables estimated; `best_table` and `estimate` describe
  /// the best of them (lowest time, then lowest table index — a
  /// deterministic within-candidate tie-break). Zero = the candidate was
  /// pruned.
  int estimated = 0;
  int best_table = 0;
  Estimate estimate;
};

/// What a search worker reuses across the candidates it claims: the
/// configuration and graph it generates into and the estimator's arena, so
/// a warm worker evaluates a candidate without allocating.
struct Worker {
  Configuration config;
  TaskGraph graph;
  EstimatorScratch scratch;
};

/// The first grid point of the current U_B with given U_F and packs: its
/// packs, its index in the candidate list (-1: no table was feasible) and
/// its number of feasible tables. Later points with equal packs reuse it.
struct DistinctPoint {
  const PackList* bwd = nullptr;
  const PackList* fwd = nullptr;
  int candidate = -1;
  int feasible = 0;
};

/// Memo for ForwardPacks keyed by (U_F, min_packs, fwd_layers), with each
/// entry's forward lane-floor terms. ForwardPacks is a pure function of the
/// key (the backward packs only enter through fwd_layers, and the last
/// backward pack is [fwd_layers, R - 1]). Only the serial prep pass fills
/// it; node-based storage keeps the returned references stable for the
/// workers that read them later.
class FwdPackMemo {
 public:
  using Key = std::tuple<int, int, int>;
  struct Entry {
    Result<PackList> packs;
    LaneFloor::Pass floor;  // set when packs is ok
  };

  const Entry& Get(const Key& key, int u_fwd, const PackList& bwd,
                   const profile::ProfileDb& profiles,
                   const PackingOptions& packing, const LaneFloor& floor) {
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_.emplace(key, Entry{ForwardPacks(u_fwd, bwd, profiles,
                                                  packing),
                                     {}})
               .first;
      Entry& e = it->second;
      if (e.packs.ok()) {
        floor.ForwardPass(u_fwd, e.packs.value(), bwd.back(), &e.floor);
      }
    }
    return it->second;
  }

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // FNV-1a over the three ints.
      size_t h = 1469598103934665603ull;
      for (int v : {std::get<0>(k), std::get<1>(k), std::get<2>(k)}) {
        h = (h ^ static_cast<size_t>(v)) * 1099511628211ull;
      }
      return h;
    }
  };

  std::unordered_map<Key, Entry, KeyHash> cache_;
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
  // The gate splits into loop-invariant parts the prep pass hoists: the
  // kept bytes depend only on the table, the backward check only on the
  // (U_B, floor) group. An empty table is the default, which packing
  // already vetted.
  auto kept_bytes = [&](const PolicyTable& table) {
    Bytes kept = 0;
    for (int l = 0; l < R; ++l) {
      if (table.at(l) == StashPolicy::kKeep) {
        kept += static_cast<Bytes>(share_per_replica) *
                profiles.layer(l).stash_bytes_per_sample;
      }
    }
    return kept;
  };
  auto bwd_fits = [&](const PackList& bwd, int u_bwd, Bytes kept) {
    for (const Pack& p : bwd) {
      if (profiles.BwdTaskBytes(p.lo, p.hi, u_bwd) + kept > packing.capacity) {
        return false;
      }
    }
    return true;
  };
  auto fwd_fits = [&](const PackList& fwd, int u_fwd, const PolicyTable& table,
                      Bytes kept) {
    for (const Pack& p : fwd) {
      Bytes transient = 0;
      for (int l = p.lo; l <= p.hi; ++l) {
        if (table.at(l) == StashPolicy::kRecompute) continue;
        transient = std::max(transient,
                             static_cast<Bytes>(u_fwd) *
                                 profiles.layer(l).stash_bytes_per_sample);
      }
      if (profiles.FwdTaskBytes(p.lo, p.hi, u_fwd) + kept + transient >
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
  // Partial sweeps are never returned (and never cached upstream): a
  // cancelled search is indistinguishable from one that never ran.
  auto cancelled_status = [cancel](const char* phase) {
    if (cancel->DeadlinePassed()) {
      return Status::DeadlineExceeded(
          std::string("configuration search deadline passed while ") + phase);
    }
    return Status::Cancelled(std::string("configuration search cancelled while ") +
                             phase);
  };

  SearchResult result;

  // Candidate tables depend only on U_B, so build them once per microbatch
  // size instead of once per grid point (the greedy table is an O(R) scan).
  std::vector<std::vector<PolicyTable>> tables_by_ubwd(u_bwd_max + 1);
  for (int u = 1; u <= u_bwd_max; ++u) tables_by_ubwd[u] = policy_tables(u);

  // Phase 1 (serial prep pass): enumerate the grid in canonical order —
  // BackwardPacks runs once per (U_B, floor) group, ForwardPacks once per
  // memo key — and resolve each point's packs, its capacity-gate result per
  // policy table, and each feasible table's lane floor. The floor's
  // backward terms are built once per (group, table) and its forward terms
  // once per memo key, so a point's floor is an O(N) composition.
  // configs_feasible is counted here, so it stays exact however much the
  // fan-out prunes.
  const LaneFloor lane_floor(profiles, machine, mode, n, minibatch, flags,
                             std::max({1, u_fwd_max, u_bwd_max}));
  constexpr double kInfeasible = std::numeric_limits<double>::infinity();
  std::deque<PackList> bwd_groups;  // deques keep element addresses stable
  std::deque<PackList> equi_fwd;    // Equi-FB forward packs, one per group
  FwdPackMemo fwd_memo;
  std::array<LaneFloor::Pass, kMaxTablesPerPoint> bwd_terms;
  LaneFloor::Pass equi_terms;
  std::vector<Candidate> candidates;
  // Forward floors often yield the same forward packs (the floor is clamped
  // to the forward layers, or the natural packing already exceeds it), and
  // backward floors the same backward packs. A point whose (U_B, U_F,
  // backward packs, forward packs) equals an earlier point's has the same
  // tables, floors and estimates, and a larger tie-break key, since for a
  // fixed (U_B, U_F) the grid visits floors in ascending order. So it can
  // never win: it counts as explored and feasible like its first copy, and
  // only keep_explored lists (and estimates) it.
  std::vector<std::vector<DistinctPoint>> distinct(u_fwd_max + 1);
  for (int u_bwd = 1; u_bwd <= u_bwd_max; ++u_bwd) {
    for (std::vector<DistinctPoint>& points : distinct) points.clear();
    const std::vector<PolicyTable>& tables = tables_by_ubwd[u_bwd];
    const int num_tables = static_cast<int>(tables.size());
    std::vector<LaneFloor::Policy> floor_tables;
    std::array<Bytes, kMaxTablesPerPoint> kept{};
    for (int ti = 0; ti < num_tables; ++ti) {
      floor_tables.push_back(lane_floor.ForPolicy(tables[ti], u_bwd));
      if (!tables[ti].empty()) kept[ti] = kept_bytes(tables[ti]);
    }
    for (int bwd_floor : bwd_floors) {
      if (cancelled()) return cancelled_status("preparing candidates");
      PackingOptions bwd_packing = packing;
      bwd_packing.min_packs = bwd_floor;
      Result<PackList> bwd = BackwardPacks(u_bwd, profiles, bwd_packing);
      if (!bwd.ok()) continue;  // this U_B cannot fit even single-layer packs
      if (bwd_floor > 1 &&
          static_cast<int>(bwd.value().size()) <= bwd_floor / 2) {
        continue;  // floor had no effect; same packs as a smaller floor
      }
      const PackList& bwd_packs = bwd_groups.emplace_back(std::move(bwd).value());
      if (options.equi_fb) {
        // Equi-FB (Table 4): reuse the backward packs and microbatch size
        // for the forward pass (dropping the fused last pack).
        equi_fwd.emplace_back(bwd_packs.begin(), bwd_packs.end() - 1);
        lane_floor.ForwardPass(u_bwd, equi_fwd.back(), bwd_packs.back(),
                               &equi_terms);
      }

      std::array<bool, kMaxTablesPerPoint> bwd_ok{};
      for (int ti = 0; ti < num_tables; ++ti) {
        bwd_ok[ti] =
            tables[ti].empty() || bwd_fits(bwd_packs, u_bwd, kept[ti]);
        if (bwd_ok[ti]) {
          lane_floor.BackwardPass(bwd_packs, floor_tables[ti], &bwd_terms[ti]);
        }
      }

      for (int u_fwd = 1; u_fwd <= u_fwd_max; ++u_fwd) {
        for (int fwd_floor : fwd_floors) {
          result.configs_explored += tables_per_point;
          if (options.equi_fb &&
              (u_fwd != u_bwd || fwd_floor != fwd_floors.front())) {
            continue;  // explored but outside the Equi-FB slice (Table 4)
          }
          if (cancelled()) return cancelled_status("preparing candidates");
          Candidate c{u_bwd, bwd_floor, u_fwd, fwd_floor, &bwd_packs};
          const LaneFloor::Pass* fwd_terms = &equi_terms;
          if (options.equi_fb) {
            c.fwd = &equi_fwd.back();
          } else {
            const int fwd_layers = bwd_packs.back().lo;
            PackingOptions fwd_packing = packing;
            fwd_packing.min_packs = std::min(fwd_floor, fwd_layers);
            const FwdPackMemo::Entry& fwd = fwd_memo.Get(
                {u_fwd, fwd_packing.min_packs, fwd_layers}, u_fwd, bwd_packs,
                profiles, fwd_packing, lane_floor);
            if (!fwd.packs.ok()) continue;
            c.fwd = &fwd.packs.value();
            fwd_terms = &fwd.floor;
          }
          std::vector<DistinctPoint>& seen = distinct[u_fwd];
          const auto first = std::find_if(
              seen.begin(), seen.end(), [&](const DistinctPoint& p) {
                return *p.bwd == bwd_packs && *p.fwd == *c.fwd;
              });
          if (first != seen.end()) {
            result.configs_feasible += first->feasible;
            if (options.keep_explored && first->candidate >= 0) {
              Candidate copy = candidates[first->candidate];
              copy.bwd_floor = bwd_floor;
              copy.fwd_floor = fwd_floor;
              candidates.push_back(copy);
            }
            continue;
          }
          c.min_floor = kInfeasible;
          DistinctPoint point{&bwd_packs, c.fwd};
          for (int ti = 0; ti < num_tables; ++ti) {
            c.floor[ti] = kInfeasible;
            if (!bwd_ok[ti] ||
                (!tables[ti].empty() &&
                 !fwd_fits(*c.fwd, u_fwd, tables[ti], kept[ti]))) {
              continue;
            }
            ++point.feasible;
            c.floor[ti] = lane_floor.Compose(*fwd_terms, bwd_terms[ti]);
            // The reused group and memo terms must give the floor that
            // Bound builds fresh, bit for bit.
            HARMONY_DCHECK_EQ(
                std::bit_cast<uint64_t>(c.floor[ti]),
                std::bit_cast<uint64_t>(lane_floor.Bound(
                    Configuration{u_fwd, u_bwd, *c.fwd, bwd_packs, {}},
                    floor_tables[ti])));
            c.min_floor = std::min(c.min_floor, c.floor[ti]);
          }
          result.configs_feasible += point.feasible;
          if (c.min_floor != kInfeasible) {
            point.candidate = static_cast<int>(candidates.size());
            candidates.push_back(c);
          }
          seen.push_back(point);
        }
      }
    }
  }

  // Best-first order: ascending min floor, ties by canonical index.
  // keep_explored estimates everything in canonical order instead, which
  // keeps Fig 14 exhaustive and gives tests an unpruned reference.
  const bool bounded = !options.keep_explored;
  std::vector<int> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  if (bounded) {
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (candidates[a].min_floor != candidates[b].min_floor) {
        return candidates[a].min_floor < candidates[b].min_floor;
      }
      return a < b;
    });
  }

  // Phase 2 (parallel): estimate candidates against a shared incumbent, the
  // best estimate found so far. A table whose floor is strictly above the
  // incumbent cannot win or tie (estimate >= floor > incumbent >= final
  // best), so it is skipped; a worker stops once the point it claims has a
  // min floor above the incumbent, since every later point's is at least as
  // large. A table whose estimate equals the final best has floor <= best
  // <= incumbent, so it is always estimated, whatever the thread count or
  // timing. Inputs (profiles, machine, estimator, candidates and the pack
  // stores) are immutable from here on; the cursor and the incumbent are
  // the only shared mutable state.
  std::atomic<double> incumbent{kInfeasible};
  auto lower_incumbent = [&incumbent](double t) {
    double cur = incumbent.load(std::memory_order_relaxed);
    while (t < cur &&
           !incumbent.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
    }
  };
  auto evaluate = [&](const Candidate& c, Worker& w) -> EvalOutcome {
    EvalOutcome out;
    Configuration& config = w.config;
    config.u_bwd = c.u_bwd;
    config.u_fwd = c.u_fwd;
    config.bwd_packs = *c.bwd;
    config.fwd_packs = *c.fwd;
    // Policy axis: evaluate each candidate table on this four-tuple and keep
    // the best (lowest time, then lowest table index). With kLegacy this is
    // one empty table and reproduces the pre-policy evaluation exactly.
    const std::vector<PolicyTable>& tables = tables_by_ubwd[c.u_bwd];
    for (int ti = 0; ti < static_cast<int>(tables.size()); ++ti) {
      if (c.floor[ti] == kInfeasible) continue;
      if (bounded && c.floor[ti] > incumbent.load(std::memory_order_relaxed)) {
        continue;
      }
      config.policy = tables[ti];
      GenerateHarmonyTaskGraph(config, mode, machine.num_gpus, minibatch,
                               flags, profiles, &w.graph);
      const Estimate est =
          estimator.EstimateIteration(w.graph, nullptr, &w.scratch);
      HARMONY_DCHECK_LE(c.floor[ti], est.iteration_time);
      ++out.estimated;
      lower_incumbent(est.iteration_time);
      if (out.estimated == 1 ||
          est.iteration_time < out.estimate.iteration_time) {
        out.estimate = est;
        out.best_table = ti;
      }
    }
    return out;
  };

  std::vector<EvalOutcome> outcomes(candidates.size());
  const int num_threads = options.num_threads <= 0
                              ? common::ThreadPool::DefaultThreadCount()
                              : options.num_threads;
  const int workers =
      static_cast<int>(std::min<size_t>(num_threads, candidates.size()));
  if (workers > 0) {
    // One fan-out: the caller and up to workers - 1 helpers borrowed from
    // the process pool claim the next point from the cursor, each with its
    // own Worker state, reused across every candidate that worker claims.
    // Each outcome lands in its canonical slot. A tripped cancel token stops
    // the workers; the check after the merge discards the partial result. A
    // serial search runs inline and never starts the process pool.
    std::vector<Worker> worker_state(static_cast<size_t>(workers));
    std::atomic<size_t> cursor{0};
    auto sweep = [&](int, int worker) {
      for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
           i < order.size() && !cancelled();
           i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        const Candidate& c = candidates[order[i]];
        if (bounded &&
            c.min_floor > incumbent.load(std::memory_order_relaxed)) {
          return;
        }
        outcomes[order[i]] = evaluate(c, worker_state[worker]);
      }
    };
    if (workers == 1) {
      sweep(0, 0);
    } else {
      common::ThreadPool::Shared().Run(workers, workers, sweep);
    }
  }

  // Phase 3 (serial): deterministic merge. The winner is the feasible
  // candidate with the lowest estimated time, ties broken by lexicographic
  // (u_bwd, u_fwd, bwd_floor, fwd_floor, policy table index) — independent
  // of thread count, of the order workers finished, and of what was pruned.
  auto config_of = [&](size_t i) {
    const Candidate& c = candidates[i];
    Configuration config;
    config.u_bwd = c.u_bwd;
    config.u_fwd = c.u_fwd;
    config.bwd_packs = *c.bwd;
    config.fwd_packs = *c.fwd;
    config.policy = tables_by_ubwd[c.u_bwd][outcomes[i].best_table];
    return config;
  };
  double best_time = -1.0;
  std::tuple<int, int, int, int, int> best_key;
  size_t best_index = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const EvalOutcome& out = outcomes[i];
    if (out.estimated == 0) continue;
    result.configs_estimated += out.estimated;
    const auto key = std::tuple_cat(candidates[i].TieBreak(),
                                    std::make_tuple(out.best_table));
    const bool better =
        best_time < 0 || out.estimate.iteration_time < best_time ||
        (out.estimate.iteration_time == best_time && key < best_key);
    if (better) {
      best_time = out.estimate.iteration_time;
      best_key = key;
      best_index = i;
      result.best_estimate = out.estimate;
    }
    if (options.keep_explored) {
      result.explored.push_back(ExploredConfig{config_of(i), out.estimate});
    }
  }
  if (best_time >= 0) result.best = config_of(best_index);

  result.search_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  if (cancelled()) return cancelled_status("estimating candidates");
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
