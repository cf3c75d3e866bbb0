#include "baselines/baselines.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace harmony::baselines {

using core::Configuration;
using core::HarmonyMode;
using core::MbPiece;
using core::OptimizationFlags;
using core::Pack;
using core::PackList;
using core::SplitMicrobatches;
using core::Task;
using core::TaskGraph;
using core::TaskType;

namespace {

/// LMS-style virtualization flags shared by the per-GPU-swap baselines.
OptimizationFlags LmsFlags() {
  OptimizationFlags f;
  f.input_batch_grouping = false;
  f.jit_update = false;
  f.jit_compute = false;
  f.p2p_transfers = true;  // pipeline baselines move activations over NCCL p2p
  // LMS virtualizes memory with demand paging: a miss blocks the stream until
  // the tensor arrives, so fetches serialize with compute instead of being
  // prefetched ahead (the "excessive swapping overhead" of Sec 1).
  f.prefetch = false;
  f.cpu_optimizer = false;
  f.smart_eviction = false;  // LMS always transfers evicted tensors
  return f;
}

/// Builds the per-stage pipeline tasks shared by GpipeSwap and
/// PipeDream2bwSwap; `one_f_one_b` selects the interleaved 1F1B order.
TaskGraph BuildPipeline(const std::string& name,
                        const profile::ProfileDb& profiles, int num_devices,
                        int minibatch, int microbatch, bool recompute,
                        bool one_f_one_b) {
  HARMONY_CHECK_GE(num_devices, 1);
  const int R = profiles.num_layers();
  const PackList stages = BalancedStages(num_devices, microbatch, profiles);
  const auto pieces = SplitMicrobatches(minibatch, microbatch);
  const int m = static_cast<int>(pieces.size());

  TaskGraph g;
  g.name = name;
  g.flags = LmsFlags();
  // Baselines are global-policy by construction: all-recompute ("R"
  // variants) or all-keep (full-stash variants, LMS-style demand paging).
  g.stash_policy = core::PolicyTable::Uniform(
      R, recompute ? core::StashPolicy::kRecompute : core::StashPolicy::kKeep);
  g.num_devices = num_devices;
  g.num_replicas = 1;
  g.num_layers = R;
  g.minibatch = minibatch;
  g.u_fwd = microbatch;
  g.u_bwd = microbatch;
  g.device_reserved_bytes.assign(num_devices, 0);

  auto add_task = [&g](Task t) {
    t.id = g.num_tasks();
    g.tasks.push_back(std::move(t));
    return g.tasks.back().id;
  };

  // fwd_ids[stage][mb], bwd_ids[stage][mb]
  std::vector<std::vector<int>> fwd_ids(num_devices), bwd_ids(num_devices);
  for (int s = 0; s < num_devices; ++s) {
    for (int k = 0; k < m; ++k) {
      Task t;
      t.type = TaskType::kForward;
      t.pack = stages[s];
      t.device = s;
      t.group = {pieces[k]};
      if (recompute && stages[s].lo > 0) {
        t.checkpoint_boundaries.push_back(stages[s].lo);
      }
      fwd_ids[s].push_back(add_task(std::move(t)));
    }
  }
  for (int s = num_devices - 1; s >= 0; --s) {
    for (int k = 0; k < m; ++k) {
      Task t;
      t.type = TaskType::kBackward;
      t.pack = stages[s];
      t.device = s;
      t.group = {pieces[k]};
      t.reads_checkpoint = recompute && stages[s].lo > 0;
      bwd_ids[s].push_back(add_task(std::move(t)));
    }
  }
  // Weight update at iteration end, on the GPU owning the stage.
  for (int s = 0; s < num_devices; ++s) {
    Task t;
    t.type = TaskType::kUpdate;
    t.pack = stages[s];
    t.device = s;
    t.on_cpu = false;
    t.replica = 0;
    add_task(std::move(t));
  }

  // Per-device execution order.
  g.device_order.assign(num_devices, {});
  g.cpu_order.assign(num_devices, {});
  for (int s = 0; s < num_devices; ++s) {
    auto& order = g.device_order[s];
    if (!one_f_one_b) {
      // GPipe: all forwards, flush, all backwards.
      for (int k = 0; k < m; ++k) order.push_back(fwd_ids[s][k]);
      for (int k = 0; k < m; ++k) order.push_back(bwd_ids[s][k]);
    } else {
      // 1F1B: warm up with (num_devices - s) forwards, then alternate.
      const int warmup = std::min(m, num_devices - s);
      for (int k = 0; k < warmup; ++k) order.push_back(fwd_ids[s][k]);
      for (int k = 0; k < m; ++k) {
        order.push_back(bwd_ids[s][k]);
        if (warmup + k < m) order.push_back(fwd_ids[s][warmup + k]);
      }
    }
  }
  for (const Task& t : g.tasks) {
    if (t.type == TaskType::kUpdate) g.device_order[t.device].push_back(t.id);
  }

  if (one_f_one_b) {
    // PipeDream-2BW keeps a second weight version resident per stage.
    for (int s = 0; s < num_devices; ++s) {
      g.device_reserved_bytes[s] =
          profiles.PackParamBytes(stages[s].lo, stages[s].hi);
    }
  }

  core::ValidateTaskGraph(g);
  return g;
}

}  // namespace

PackList BalancedStages(int num_stages, int microbatch,
                        const profile::ProfileDb& profiles) {
  const int R = profiles.num_layers();
  HARMONY_CHECK_GE(num_stages, 1);
  HARMONY_CHECK_LE(num_stages, R);
  std::vector<double> prefix(R + 1, 0.0);
  for (int l = 0; l < R; ++l) {
    prefix[l + 1] = prefix[l] + profiles.FwdTime(l, microbatch) +
                    profiles.BwdTime(l, microbatch);
  }
  // Linear partition DP: cost[s][j] = min over i of max(cost[s-1][i],
  // prefix[j]-prefix[i]).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> cost(num_stages + 1,
                                        std::vector<double>(R + 1, kInf));
  std::vector<std::vector<int>> split(num_stages + 1, std::vector<int>(R + 1, 0));
  cost[0][0] = 0.0;
  for (int s = 1; s <= num_stages; ++s) {
    for (int j = s; j <= R; ++j) {
      for (int i = s - 1; i < j; ++i) {
        if (cost[s - 1][i] == kInf) continue;
        const double c = std::max(cost[s - 1][i], prefix[j] - prefix[i]);
        if (c < cost[s][j]) {
          cost[s][j] = c;
          split[s][j] = i;
        }
      }
    }
  }
  PackList stages(num_stages);
  int j = R;
  for (int s = num_stages; s >= 1; --s) {
    const int i = split[s][j];
    stages[s - 1] = Pack{i, j - 1};
    j = i;
  }
  return stages;
}

TaskGraph DpSwap(const profile::ProfileDb& profiles, int num_devices,
                 int minibatch, int microbatch) {
  // Expressed through the shared generator: a single fused pack covering the
  // whole model yields per-microbatch forward+backward (gradient
  // accumulation); LMS flags disable every Harmony optimization, and the
  // whole stash stays resident (LMS-style demand paging, no recompute).
  Configuration config;
  config.u_fwd = microbatch;
  config.u_bwd = microbatch;
  config.bwd_packs = {Pack{0, profiles.num_layers() - 1}};
  config.policy = core::PolicyTable::Uniform(profiles.num_layers(),
                                             core::StashPolicy::kKeep);
  OptimizationFlags flags = LmsFlags();
  flags.jit_compute = true;  // fused per-microbatch fwd+bwd = vanilla autograd
  flags.p2p_transfers = false;  // DP GPUs exchange nothing but gradients
  TaskGraph g = core::GenerateHarmonyTaskGraph(
      config, HarmonyMode::kDataParallel, num_devices, minibatch, flags,
      profiles);
  g.name = "DP Swap";
  return g;
}

TaskGraph GpipeSwap(const profile::ProfileDb& profiles, int num_devices,
                    int minibatch, int microbatch, bool recompute) {
  return BuildPipeline(recompute ? "GP Swap (R)" : "GP Swap", profiles,
                       num_devices, minibatch, microbatch, recompute,
                       /*one_f_one_b=*/false);
}

TaskGraph PipeDream2bwSwap(const profile::ProfileDb& profiles, int num_devices,
                           int minibatch, int microbatch, bool recompute) {
  return BuildPipeline(recompute ? "2BW Swap (R)" : "2BW Swap", profiles,
                       num_devices, minibatch, microbatch, recompute,
                       /*one_f_one_b=*/true);
}

TaskGraph ZeroInfinity(const profile::ProfileDb& profiles,
                       const Configuration& harmony_config, int num_devices,
                       int minibatch) {
  // ZeRO-Infinity shares Harmony's configuration (Sec 5.3) and its CPU
  // optimizer + recompute, but lacks input-batch grouping: weights stream in
  // per layer per microbatch, partial gradients push to host per microbatch.
  OptimizationFlags flags;
  flags.input_batch_grouping = false;
  flags.jit_update = true;       // ZeRO updates as gradient buckets arrive
  flags.jit_compute = true;
  flags.p2p_transfers = false;   // state moves via host staging buffers
  flags.prefetch = true;         // overlap-centric design
  flags.cpu_optimizer = true;    // optimizer offloaded to CPU
  flags.smart_eviction = true;   // gathered weights are freed, not written back
  TaskGraph g = core::GenerateHarmonyTaskGraph(harmony_config,
                                               HarmonyMode::kDataParallel,
                                               num_devices, minibatch, flags,
                                               profiles);
  g.name = "ZeRO-Infinity";
  return g;
}

Bytes ZeroInfinityHostOverhead(const model::SequentialModel& model) {
  // Pinned contiguous staging for parameter gather + gradient reduce.
  return 2 * model.total_param_bytes();
}

int MaxFeasibleMicrobatch(const profile::ProfileDb& profiles,
                          const hw::MachineSpec& machine,
                          int concurrent_stash_replicas, int cap) {
  // Half of usable memory: the live working set of adjacent layers (plus
  // double-buffered prefetch) must fit even when everything else swaps. The
  // stash transits through memory whether or not it is recomputed later.
  const Bytes budget = static_cast<Bytes>(
      static_cast<double>(machine.gpu.usable_memory()) * 0.5);

  Bytes params = 0, stash_per_sample = 0;
  for (int l = 0; l < profiles.num_layers(); ++l) {
    params += profiles.layer(l).param_bytes;
    stash_per_sample += profiles.layer(l).stash_bytes_per_sample;
  }
  // Host budget for spilled in-flight stash: everything beyond master
  // weights + optimizer state (+ safety margin).
  const Bytes host_budget = static_cast<Bytes>(
      0.85 * static_cast<double>(machine.host_memory - 4 * params));

  int best = 1;
  for (int u = 1; u <= cap; ++u) {
    Bytes worst = 0;
    for (int l = 0; l < profiles.num_layers(); ++l) {
      const profile::LayerProfile& p = profiles.layer(l);
      const Bytes working =
          2 * p.param_bytes + p.workspace_bytes +
          static_cast<Bytes>(u) * (2 * p.input_bytes_per_sample +
                                   2 * p.output_bytes_per_sample +
                                   2 * p.stash_bytes_per_sample);
      worst = std::max(worst, working);
    }
    if (worst > budget) break;
    const Bytes host_stash = static_cast<Bytes>(u) * stash_per_sample *
                             std::max(1, concurrent_stash_replicas);
    if (host_stash > host_budget) break;
    best = u;
  }
  return best;
}

}  // namespace harmony::baselines
