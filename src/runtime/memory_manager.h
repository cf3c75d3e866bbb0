#ifndef HARMONY_RUNTIME_MEMORY_MANAGER_H_
#define HARMONY_RUNTIME_MEMORY_MANAGER_H_

#include <utility>
#include <vector>

#include "common/units.h"
#include "runtime/tensor.h"

namespace harmony::runtime {

/// Per-GPU memory accounting with LRU selection of eviction victims: the
/// bookkeeping half of the Runtime's central memory manager (Sec 4.4). The
/// executor owns the transfer side (issuing swap-out flows for victims).
///
/// Tensors are addressed by the program's dense TensorId: all per-tensor
/// state lives in an id-indexed array (no tree lookups on the hot path), and
/// a compact list of resident ids backs the eviction scans.
class DeviceMemory {
 public:
  DeviceMemory() = default;
  /// `num_tensors` is the program catalog size; ids passed to every other
  /// method must be < num_tensors.
  DeviceMemory(Bytes capacity, int num_tensors) { Reset(capacity, num_tensors); }

  /// Empties the device for a run of a program with `num_tensors` tensors,
  /// keeping the id-indexed table: it grows to the largest catalog seen, and
  /// only the entries left resident are cleared. Every other entry is
  /// already non-resident, and AddResident rewrites an entry before anything
  /// else reads it.
  void Reset(Bytes capacity, int num_tensors);

  Bytes capacity() const { return capacity_; }
  Bytes used() const { return used_; }
  /// Bytes available for new allocations. Negative while an injected
  /// pressure spike overlaps already-resident tensors — the allocator then
  /// evicts (recovery-classified) until the books balance again.
  Bytes free_bytes() const { return capacity_ - pressure_ - used_; }
  Bytes peak_used() const { return peak_used_; }

  /// Fault hook: reserves `bytes` of capacity for an injected co-tenant
  /// pressure spike (0 clears it). Purely an accounting change; the
  /// residency layer reacts through free_bytes() going down (or negative).
  void SetPressure(Bytes bytes) { pressure_ = bytes; }
  Bytes pressure() const { return pressure_; }

  /// Marks `id` resident, consuming `bytes`. Requires free_bytes() >= bytes.
  void AddResident(TensorId id, Bytes bytes);

  /// Removes a resident tensor, releasing its bytes.
  void RemoveResident(TensorId id);

  bool IsResident(TensorId id) const { return entries_[id].resident; }
  Bytes ResidentBytes(TensorId id) const {
    return entries_[id].resident ? entries_[id].bytes : 0;
  }

  /// LRU bump.
  void Touch(TensorId id);

  void Pin(TensorId id);
  void Unpin(TensorId id);
  bool IsPinned(TensorId id) const {
    return entries_[id].resident && entries_[id].pins > 0;
  }

  /// Fills `victims` with the least-recently-used unpinned tensors whose
  /// combined size reaches `needed` bytes (fewer if not enough are
  /// evictable). Does not remove them — the residency layer removes each
  /// once its swap-out completes.
  void PickVictims(Bytes needed, std::vector<TensorId>* victims);

  /// Sum of evictable (unpinned resident) bytes.
  Bytes EvictableBytes() const;

  int num_resident() const { return static_cast<int>(resident_list_.size()); }

 private:
  struct Entry {
    Bytes bytes = 0;
    int pins = 0;
    int64_t lru = 0;
    bool resident = false;
    int list_pos = -1;  // index into resident_list_ (swap-remove)
  };

  Bytes capacity_ = 0;
  Bytes used_ = 0;
  Bytes pressure_ = 0;  // injected-fault capacity reserve
  Bytes peak_used_ = 0;
  int64_t clock_ = 0;
  std::vector<Entry> entries_;         // indexed by TensorId
  std::vector<TensorId> resident_list_;  // compact; order arbitrary
  std::vector<std::pair<int64_t, TensorId>> candidates_;  // PickVictims scratch
};

}  // namespace harmony::runtime

#endif  // HARMONY_RUNTIME_MEMORY_MANAGER_H_
