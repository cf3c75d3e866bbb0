#ifndef HARMONY_CORE_CONFIG_H_
#define HARMONY_CORE_CONFIG_H_

#include <string>
#include <vector>

#include "common/units.h"
#include "model/policy.h"

namespace harmony::core {

/// The per-layer stash residency axis lives in harmony::model (the planning
/// stack below core needs it too); core aliases it as its own vocabulary.
using model::PolicyTable;
using model::StashPolicy;

/// Harmony's two modes of parallel execution (Sec 3).
enum class HarmonyMode {
  kDataParallel,      // Harmony DP
  kPipelineParallel,  // Harmony PP (Wrap-Around Pipeline)
};

const char* HarmonyModeName(HarmonyMode mode);

/// A contiguous layer pack [lo, hi] (inclusive).
struct Pack {
  int lo = 0;
  int hi = -1;

  int num_layers() const { return hi - lo + 1; }
  bool operator==(const Pack& o) const { return lo == o.lo && hi == o.hi; }
};

using PackList = std::vector<Pack>;

std::string PackListToString(const PackList& packs);

/// The training configuration four-tuple of Sec 4.3.1:
/// (forward microbatch size U_F, forward layer packs P_F,
///  backward microbatch size U_B, backward layer packs P_B).
/// P_F excludes the last backward pack's layers — that pack's forward runs
/// fused with the first backward task (jit-compute, Alg 2 line 2).
struct Configuration {
  int u_fwd = 1;
  int u_bwd = 1;
  PackList fwd_packs;
  PackList bwd_packs;
  /// Per-layer stash residency. Empty = the paper's default, which the
  /// task-graph generator resolves to all-kRecompute.
  PolicyTable policy;

  std::string ToString() const;
};

/// Harmony's runtime/scheduling optimizations (Sec 3, ablated in Fig 13).
/// All on by default; each can be disabled in isolation.
struct OptimizationFlags {
  /// Input-batch grouping: a task runs its whole group of microbatches
  /// back-to-back before the device moves to the next task.
  bool input_batch_grouping = true;
  /// Just-in-time weight update: update tasks run right after the backward
  /// task that produces their gradients, instead of at iteration end.
  bool jit_update = true;
  /// Just-in-time compute: fuse the last pack's forward with its backward
  /// (avoids rematerialization for the last pack).
  bool jit_compute = true;
  /// Direct GPU-GPU transfers for cross-device activations; when off, such
  /// tensors bounce through host memory as two swaps.
  bool p2p_transfers = true;
  /// Overlap the next task's tensor fetches with current compute
  /// (double-buffered prefetch, Sec 4.4).
  bool prefetch = true;
  /// Offload weight update (optimizer step) to the CPU.
  bool cpu_optimizer = true;
  /// Harmony's memory-manager tensor state machine: clean host-backed
  /// tensors are dropped on eviction without a copy-out. (Per-GPU-swap
  /// baselines, which lack this context, always transfer on eviction.)
  bool smart_eviction = true;
};

}  // namespace harmony::core

#endif  // HARMONY_CORE_CONFIG_H_
