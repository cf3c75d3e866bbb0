#ifndef HARMONY_RUNTIME_TENSOR_H_
#define HARMONY_RUNTIME_TENSOR_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"

namespace harmony::runtime {

/// The tensor classes the Runtime's state machine tracks (Fig 5a).
enum class TensorKind : uint8_t {
  kWeight,      // per-device cached copy of a layer's weights (host master)
  kGrad,        // weight-gradient accumulation buffer, per replica
  kOptState,    // optimizer state (momentum / Adam moments), per device copy
  kActivation,  // boundary activation tensor, keyed by boundary layer + piece
  kGradAct,     // boundary activation gradient
  kStash,       // per-layer stashed intermediate activations
};

const char* TensorKindName(TensorKind kind);

/// Identity of a tensor instance. `layer` is a layer index (kWeight, kGrad,
/// kOptState, kStash) or a boundary index (kActivation, kGradAct: the tensor
/// between layers `layer-1` and `layer`). `begin` is the piece's first sample
/// (-1 for state tensors). `owner` is the caching device (kWeight, kOptState)
/// or the replica (everything else).
struct TensorKey {
  TensorKind kind = TensorKind::kWeight;
  int layer = 0;
  int begin = -1;
  int owner = 0;

  auto Tie() const { return std::tie(kind, layer, begin, owner); }
  bool operator<(const TensorKey& o) const { return Tie() < o.Tie(); }
  bool operator==(const TensorKey& o) const { return Tie() == o.Tie(); }

  std::string ToString() const;
};

/// Dense handle for a tensor instance, assigned by the StepCompiler when it
/// interns every TensorKey appearing in a program. All hot-path state
/// (residency, memory accounting, reference counts) is indexed by TensorId;
/// the structural TensorKey survives only in the catalog, for diagnostics
/// and golden renderings.
using TensorId = int32_t;
inline constexpr TensorId kInvalidTensorId = -1;

/// Bidirectional TensorKey <-> TensorId mapping for one compiled program.
/// Ids are dense, assigned in first-intern order — so the id assignment is
/// a function of the intern call sequence alone, independent of the index
/// container's internal ordering.
class TensorCatalog {
 public:
  TensorId Intern(const TensorKey& key) {
    if (2 * (keys_.size() + 1) > slots_.size()) Rehash();
    TensorId& slot = slots_[Probe(key)];
    if (slot == kInvalidTensorId) {
      slot = static_cast<TensorId>(keys_.size());
      keys_.push_back(key);
    }
    return slot;
  }
  /// kInvalidTensorId when `key` was never interned.
  TensorId Find(const TensorKey& key) const {
    return slots_.empty() ? kInvalidTensorId : slots_[Probe(key)];
  }
  const TensorKey& key(TensorId id) const { return keys_[id]; }
  int size() const { return static_cast<int>(keys_.size()); }

  /// Forgets every key, keeping the storage.
  void Clear() {
    keys_.clear();
    std::fill(slots_.begin(), slots_.end(), kInvalidTensorId);
  }

 private:
  /// The compiler interns the same key many times (once per consuming step),
  /// so the index is a flat open-addressing table of ids (linear probing,
  /// at most half full): an O(1) repeat lookup that allocates only when the
  /// table doubles, never per key.
  static size_t Hash(const TensorKey& k) {
    uint64_t h = (static_cast<uint64_t>(static_cast<uint8_t>(k.kind)) << 56) ^
                 (static_cast<uint64_t>(static_cast<uint32_t>(k.owner)) << 40) ^
                 (static_cast<uint64_t>(static_cast<uint32_t>(k.begin)) << 20) ^
                 static_cast<uint64_t>(static_cast<uint32_t>(k.layer));
    // splitmix64 finalizer: spreads the packed fields across all bits.
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<size_t>(h);
  }
  /// Index of the slot holding `key`'s id, or of the empty slot where it
  /// would go.
  size_t Probe(const TensorKey& key) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == kInvalidTensorId || keys_[slots_[i]] == key) return i;
    }
  }
  void Rehash() {
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), kInvalidTensorId);
    for (size_t id = 0; id < keys_.size(); ++id) {
      slots_[Probe(keys_[id])] = static_cast<TensorId>(id);
    }
  }

  std::vector<TensorKey> keys_;
  std::vector<TensorId> slots_;  // power-of-two size
};

/// Where a tensor's bytes live and how they may move. A tensor has at most
/// one GPU-resident copy per device; `on_host` records whether a valid host
/// copy exists, so a clean eviction can drop the GPU copy without a transfer
/// — the tensor-lifetime state machine of Harmony's memory manager (Sec 4.4).
/// Device sets are bitmasks (bit d = device d), bounding the runtime to 32
/// GPUs per machine — far above the paper's 4/8-GPU commodity servers.
struct TensorState {
  Bytes bytes = 0;
  bool exists = false;        // has been produced (or auto-created host state)
  bool on_host = false;       // valid copy in host memory
  uint32_t resident_gpus = 0;  // GPUs holding a copy
  uint32_t evicting_gpus = 0;  // copies with an eviction/move in progress
  bool gpu_dirty = false;     // newest data is on a GPU (host copy stale/absent)
  /// Chaos bookkeeping: devices whose copy an injected fault (memory
  /// pressure) emergency-evicted. A refetch back to such a device is
  /// recovery traffic — accounted as kFaultRecovered, not semantic swap/p2p
  /// bytes — because the fault-free run would have hit in device memory.
  /// Cleared per device as copies are healed or semantically released.
  uint32_t fault_evicted_gpus = 0;
  /// True while the only host copy exists because a fault eviction wrote it
  /// (the fault-free run has no host copy): fetches on *other* devices then
  /// account the transfer the fault-free run would have made (p2p or host
  /// bounce from the evicted device) instead of the physical host swap-in.
  bool fault_host_copy = false;
  bool fetch_in_flight = false;

  bool FaultEvictedOn(int d) const { return (fault_evicted_gpus >> d) & 1u; }
  void SetFaultEvicted(int d, bool v) {
    fault_evicted_gpus =
        v ? fault_evicted_gpus | (1u << d) : fault_evicted_gpus & ~(1u << d);
  }
  int inflight_dst = -1;
  int refs_remaining = 0;     // consumers yet to use it (data tensors)

  bool ResidentOn(int d) const { return (resident_gpus >> d) & 1u; }
  bool EvictingOn(int d) const { return (evicting_gpus >> d) & 1u; }
  void SetResident(int d, bool v) {
    resident_gpus = v ? resident_gpus | (1u << d) : resident_gpus & ~(1u << d);
  }
  void SetEvicting(int d, bool v) {
    evicting_gpus = v ? evicting_gpus | (1u << d) : evicting_gpus & ~(1u << d);
  }
  int NumResident() const { return std::popcount(resident_gpus); }

  bool UsableOn(int d) const { return ResidentOn(d) && !EvictingOn(d); }
  /// A GPU that currently holds a stable copy (-1 if none). Lowest device
  /// first, matching the former std::set<int> iteration order.
  int StableGpu() const {
    const uint32_t stable = resident_gpus & ~evicting_gpus;
    return stable == 0 ? -1 : std::countr_zero(stable);
  }

  /// Continuations: fired (and cleared) on production, on GPU arrival, and on
  /// host-copy availability, respectively. Held records of the run's engine;
  /// the residency layer drops any left over when the run ends.
  sim::WaiterList creation_waiters;
  sim::WaiterList arrival_waiters;
  sim::WaiterList host_waiters;
};

/// Registry of all tensor instances in a run, indexed by TensorId. Every id
/// of the program's catalog has a (lazily meaningful) slot from the start;
/// `exists` distinguishes produced tensors.
class TensorTable {
 public:
  /// Fresh states for `num_tensors` ids, reusing the storage. Every waiter
  /// of the previous run must have been run or dropped.
  void Reset(int num_tensors) {
    states_.clear();
    states_.resize(num_tensors);
  }

  TensorState& Get(TensorId id) { return states_[id]; }
  const TensorState& Get(TensorId id) const { return states_[id]; }
  int size() const { return static_cast<int>(states_.size()); }

 private:
  std::vector<TensorState> states_;
};

}  // namespace harmony::runtime

#endif  // HARMONY_RUNTIME_TENSOR_H_
