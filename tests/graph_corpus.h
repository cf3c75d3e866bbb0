#ifndef HARMONY_TESTS_GRAPH_CORPUS_H_
#define HARMONY_TESTS_GRAPH_CORPUS_H_

// A seeded corpus of task graphs shared by the estimator golden and the
// dependency-matching property tests. It crosses every task-graph producer
// with the axes the estimator branches on: PP and DP (uneven DP shares),
// ragged microbatch remainders, each OptimizationFlags ablation, every
// PolicyMode's table (plus a random mixed table), and every baseline
// generator. The draw order is part of the golden: append, never reorder.

#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "common/rng.h"
#include "core/packing.h"
#include "core/task_graph.h"
#include "hw/machine.h"
#include "model/policy.h"
#include "profile/profiler.h"

namespace harmony::core::corpus {

struct CorpusGraph {
  std::string name;
  TaskGraph graph;
  /// The GenerateHarmonyTaskGraph inputs behind `graph`; unset (false) for
  /// the baseline graphs.
  bool harmony = false;
  Configuration config{};
  HarmonyMode mode = HarmonyMode::kPipelineParallel;
  int devices = 1;
  int minibatch = 1;
  OptimizationFlags flags{};
};

/// The same greedy per-layer dominance table SearchConfiguration builds for
/// PolicyMode::kHybridGreedy at `u_bwd`.
inline PolicyTable GreedyTable(const profile::ProfileDb& db,
                               const hw::MachineSpec& machine, int u_bwd) {
  const int R = db.num_layers();
  const double swap_bw = machine.EffectiveSwapBw(machine.num_gpus);
  PolicyTable t = PolicyTable::Uniform(R, StashPolicy::kKeep);
  for (int l = 0; l < R; ++l) {
    model::LayerResidencyCost c;
    c.recompute_time = db.FwdTime(l, u_bwd);
    c.stash_bytes =
        static_cast<Bytes>(u_bwd) * db.layer(l).stash_bytes_per_sample;
    c.swap_stall = static_cast<double>(c.stash_bytes) / swap_bw;
    t.Set(l, model::DominantPolicy(c));
  }
  return t;
}

/// Balanced-time packs for (u_fwd, u_bwd); the capacity doubles until the
/// backward packing fits, so every draw yields a configuration.
inline Configuration PackedConfig(const profile::ProfileDb& db, int u_fwd,
                                  int u_bwd, Bytes capacity, int min_packs) {
  PackingOptions opts;
  opts.capacity = capacity;
  Configuration c;
  c.u_fwd = u_fwd;
  c.u_bwd = u_bwd;
  auto bwd = BackwardPacks(u_bwd, db, opts);
  while (!bwd.ok()) {
    opts.capacity *= 2;
    bwd = BackwardPacks(u_bwd, db, opts);
  }
  c.bwd_packs = bwd.value();
  opts.min_packs = min_packs;
  auto fwd = ForwardPacks(u_fwd, c.bwd_packs, db, opts);
  while (!fwd.ok()) {
    opts.capacity *= 2;
    fwd = ForwardPacks(u_fwd, c.bwd_packs, db, opts);
  }
  c.fwd_packs = fwd.value();
  return c;
}

/// 288 Harmony graphs (6 policy tables x 8 flag variants x {PP, DP} x 3
/// seeded shapes) followed by 24 baseline graphs. Harmony graphs draw their
/// device count from [1, max_devices].
inline std::vector<CorpusGraph> SeededGraphCorpus(
    const profile::ProfileDb& db, const hw::MachineSpec& machine,
    uint64_t seed = 17, int max_devices = 4) {
  Rng rng(seed);
  const int R = db.num_layers();
  std::vector<CorpusGraph> out;

  const char* const kFlagNames[] = {"all_on",      "no_grouping", "no_jit_compute",
                                    "no_jit_update", "no_prefetch", "no_p2p",
                                    "no_cpu_optimizer", "random_flags"};
  const char* const kPolicyNames[] = {"legacy", "recompute", "keep",
                                      "swap",   "hybrid",    "mixed"};
  for (int policy = 0; policy < 6; ++policy) {
    for (int variant = 0; variant < 8; ++variant) {
      for (int dp = 0; dp < 2; ++dp) {
        for (int rep = 0; rep < 3; ++rep) {
          const int devices = static_cast<int>(rng.NextInt(1, max_devices));
          const int minibatch = static_cast<int>(rng.NextInt(devices, 24));
          const int u_bwd = static_cast<int>(rng.NextInt(1, 6));
          const int u_fwd = rng.NextInt(0, 5) == 0
                                ? u_bwd
                                : static_cast<int>(rng.NextInt(1, 6));
          const Bytes capacity = MiB(128) << rng.NextInt(0, 3);
          const int min_packs = static_cast<int>(rng.NextInt(1, 5));
          Configuration c = PackedConfig(db, u_fwd, u_bwd, capacity, min_packs);

          OptimizationFlags flags;
          switch (variant) {
            case 1: flags.input_batch_grouping = false; break;
            case 2: flags.jit_compute = false; break;
            case 3: flags.jit_update = false; break;
            case 4: flags.prefetch = false; break;
            case 5: flags.p2p_transfers = false; break;
            case 6: flags.cpu_optimizer = false; break;
            case 7:
              flags.input_batch_grouping = rng.NextInt(0, 1) == 1;
              flags.jit_compute = rng.NextInt(0, 1) == 1;
              flags.jit_update = rng.NextInt(0, 1) == 1;
              flags.prefetch = rng.NextInt(0, 1) == 1;
              flags.p2p_transfers = rng.NextInt(0, 1) == 1;
              flags.cpu_optimizer = rng.NextInt(0, 1) == 1;
              break;
            default: break;
          }
          switch (policy) {
            case 0: break;  // empty: the generator's default
            case 1: c.policy = PolicyTable::Uniform(R, StashPolicy::kRecompute); break;
            case 2: c.policy = PolicyTable::Uniform(R, StashPolicy::kKeep); break;
            case 3: c.policy = PolicyTable::Uniform(R, StashPolicy::kSwap); break;
            case 4: c.policy = GreedyTable(db, machine, u_bwd); break;
            default:
              c.policy = PolicyTable::Uniform(R, StashPolicy::kKeep);
              for (int l = 0; l < R; ++l) {
                c.policy.Set(l, static_cast<StashPolicy>(rng.NextInt(0, 2)));
              }
              break;
          }
          const HarmonyMode mode = dp == 1 ? HarmonyMode::kDataParallel
                                           : HarmonyMode::kPipelineParallel;
          std::string name = std::string(kPolicyNames[policy]) + "/" +
                             kFlagNames[variant] + "/" +
                             (dp == 1 ? "dp" : "pp") + "/n" +
                             std::to_string(devices) + "_mb" +
                             std::to_string(minibatch) + "_uf" +
                             std::to_string(u_fwd) + "_ub" +
                             std::to_string(u_bwd);
          TaskGraph graph =
              GenerateHarmonyTaskGraph(c, mode, devices, minibatch, flags, db);
          out.push_back(CorpusGraph{std::move(name), std::move(graph), true,
                                    std::move(c), mode, devices, minibatch,
                                    flags});
        }
      }
    }
  }

  for (int i = 0; i < 24; ++i) {
    const int devices = static_cast<int>(rng.NextInt(1, 4));
    const int minibatch = static_cast<int>(rng.NextInt(devices, 16));
    const int micro = static_cast<int>(rng.NextInt(1, 5));
    const std::string shape = "/n" + std::to_string(devices) + "_mb" +
                              std::to_string(minibatch) + "_u" +
                              std::to_string(micro);
    switch (i % 6) {
      case 0:
        out.push_back({"dp_swap" + shape,
                       baselines::DpSwap(db, devices, minibatch, micro)});
        break;
      case 1:
      case 2:
        out.push_back({(i % 6 == 2 ? "gpipe_r" : "gpipe") + shape,
                       baselines::GpipeSwap(db, devices, minibatch, micro,
                                            i % 6 == 2)});
        break;
      case 3:
      case 4:
        out.push_back({(i % 6 == 4 ? "2bw_r" : "2bw") + shape,
                       baselines::PipeDream2bwSwap(db, devices, minibatch,
                                                   micro, i % 6 == 4)});
        break;
      default: {
        const Configuration c = PackedConfig(db, micro, micro, MiB(512), 2);
        out.push_back({"zero_infinity" + shape,
                       baselines::ZeroInfinity(db, c, devices, minibatch)});
        break;
      }
    }
  }
  return out;
}

}  // namespace harmony::core::corpus

#endif  // HARMONY_TESTS_GRAPH_CORPUS_H_
