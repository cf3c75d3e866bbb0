#ifndef HARMONY_MODEL_POLICY_H_
#define HARMONY_MODEL_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/units.h"
#include "model/cost_model.h"
#include "model/layer.h"

namespace harmony::model {

/// What happens to a layer's stashed activations between its forward and its
/// backward pass (the residency-policy axis, which generalizes the paper's
/// recompute-everything choice to one policy per layer):
///   kKeep      — stay GPU-resident; the memory manager may still evict them
///                under pressure, but the planner charges nothing for them.
///   kSwap      — proactively moved to host after the forward, fetched back
///                for the backward (vDNN-style offload).
///   kRecompute — dropped; the backward rematerializes them from the pack's
///                checkpointed input (Harmony's Sec 4.3.1 default).
enum class StashPolicy : uint8_t { kKeep = 0, kSwap = 1, kRecompute = 2 };

const char* StashPolicyName(StashPolicy p);  // "keep" / "swap" / "recompute"
char StashPolicyCode(StashPolicy p);         // 'k' / 's' / 'r'

/// Per-layer residency policy table. An *empty* table means the paper's
/// default, recompute everywhere (Sec 4.3.1); core::GenerateHarmonyTaskGraph
/// is the one place that resolves it to Uniform(R, kRecompute).
class PolicyTable {
 public:
  PolicyTable() = default;

  static PolicyTable Uniform(int num_layers, StashPolicy fill);
  /// Makes this table Uniform(num_layers, fill) in place, reusing storage.
  void AssignUniform(int num_layers, StashPolicy fill);

  bool empty() const { return entries_.empty(); }
  int num_layers() const { return static_cast<int>(entries_.size()); }
  // Inline: the estimator queries this per layer inside its scheduling loop.
  StashPolicy at(int layer) const {
    HARMONY_CHECK_GE(layer, 0);
    HARMONY_CHECK_LT(layer, num_layers());
    return entries_[layer];
  }
  void Set(int layer, StashPolicy p);
  /// True iff non-empty and every layer uses `p`.
  bool IsUniform(StashPolicy p) const;
  int Count(StashPolicy p) const;

  bool operator==(const PolicyTable& o) const { return entries_ == o.entries_; }
  bool operator!=(const PolicyTable& o) const { return !(*this == o); }

  /// Run-length rendering, e.g. "k0-3,s4,r5-95"; "" for the empty table.
  std::string ToString() const;
  /// Parses ToString output (round-trip exact). "" yields the empty table.
  static Result<PolicyTable> FromString(const std::string& s);

 private:
  std::vector<StashPolicy> entries_;
};

/// Per-layer cost accounting behind the policy choice: what the backward pass
/// pays to rematerialize this layer's stash versus swapping it through the
/// host link at `swap_bw` bytes/s (the effective per-GPU share).
struct LayerResidencyCost {
  TimeSec recompute_time = 0;  // forward re-execution of the layer at u
  Bytes stash_bytes = 0;       // bytes a microbatch of u must stash
  TimeSec swap_stall = 0;      // stash_bytes / swap_bw
};

LayerResidencyCost ResidencyCost(const CostModel& cost, const LayerSpec& layer,
                                 int u, double swap_bw);

/// Greedy per-layer dominance rule (Algorithm 1's policy axis seed):
/// stash-free layers keep (nothing to store), otherwise recompute iff the
/// re-forward is cheaper than the estimated swap stall.
StashPolicy DominantPolicy(const LayerResidencyCost& cost);

}  // namespace harmony::model

#endif  // HARMONY_MODEL_POLICY_H_
