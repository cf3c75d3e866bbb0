#include "runtime/memory_manager.h"

#include <algorithm>

#include "common/logging.h"

namespace harmony::runtime {

const char* TensorKindName(TensorKind kind) {
  switch (kind) {
    case TensorKind::kWeight: return "W";
    case TensorKind::kGrad: return "G";
    case TensorKind::kOptState: return "O";
    case TensorKind::kActivation: return "A";
    case TensorKind::kGradAct: return "dA";
    case TensorKind::kStash: return "S";
  }
  return "?";
}

std::string TensorKey::ToString() const {
  std::string s = TensorKindName(kind);
  s += "[L" + std::to_string(layer);
  if (begin >= 0) s += ",b" + std::to_string(begin);
  s += ",o" + std::to_string(owner) + "]";
  return s;
}

void DeviceMemory::Reset(Bytes capacity, int num_tensors) {
  HARMONY_CHECK_GT(capacity, 0);
  capacity_ = capacity;
  used_ = 0;
  pressure_ = 0;
  peak_used_ = 0;
  clock_ = 0;
  for (TensorId id : resident_list_) {
    entries_[id].resident = false;
    entries_[id].list_pos = -1;
  }
  resident_list_.clear();
  if (entries_.size() < static_cast<size_t>(num_tensors)) {
    entries_.resize(num_tensors);
  }
}

void DeviceMemory::AddResident(TensorId id, Bytes bytes) {
  HARMONY_CHECK_GE(bytes, 0);
  Entry& e = entries_[id];
  HARMONY_CHECK(!e.resident) << "tensor " << id << " already resident";
  HARMONY_CHECK_LE(bytes, free_bytes())
      << "allocation without space for tensor " << id;
  e.bytes = bytes;
  e.pins = 0;
  e.lru = ++clock_;
  e.resident = true;
  e.list_pos = static_cast<int>(resident_list_.size());
  resident_list_.push_back(id);
  used_ += bytes;
  peak_used_ = std::max(peak_used_, used_);
}

void DeviceMemory::RemoveResident(TensorId id) {
  Entry& e = entries_[id];
  HARMONY_CHECK(e.resident) << "tensor " << id << " not resident";
  used_ -= e.bytes;
  // Swap-remove from the compact list; fix the moved entry's back-pointer.
  const int pos = e.list_pos;
  const TensorId moved = resident_list_.back();
  resident_list_[pos] = moved;
  entries_[moved].list_pos = pos;
  resident_list_.pop_back();
  e.resident = false;
  e.list_pos = -1;
}

void DeviceMemory::Touch(TensorId id) {
  Entry& e = entries_[id];
  HARMONY_CHECK(e.resident) << "touch of non-resident tensor " << id;
  e.lru = ++clock_;
}

void DeviceMemory::Pin(TensorId id) {
  Entry& e = entries_[id];
  HARMONY_CHECK(e.resident) << "pin of non-resident tensor " << id;
  ++e.pins;
}

void DeviceMemory::Unpin(TensorId id) {
  Entry& e = entries_[id];
  HARMONY_CHECK(e.resident) << "unpin of non-resident tensor " << id;
  HARMONY_CHECK_GT(e.pins, 0) << "unpin of unpinned tensor " << id;
  --e.pins;
}

void DeviceMemory::PickVictims(Bytes needed, std::vector<TensorId>* victims) {
  candidates_.clear();
  for (TensorId id : resident_list_) {
    if (entries_[id].pins == 0) candidates_.emplace_back(entries_[id].lru, id);
  }
  // The lru clock is a unique monotone counter, so this order is
  // deterministic regardless of resident_list_'s (arbitrary) order.
  std::sort(candidates_.begin(), candidates_.end());
  victims->clear();
  Bytes reclaimed = 0;
  for (const auto& [lru, id] : candidates_) {
    if (reclaimed >= needed) break;
    victims->push_back(id);
    reclaimed += entries_[id].bytes;
  }
}

Bytes DeviceMemory::EvictableBytes() const {
  Bytes total = 0;
  for (TensorId id : resident_list_) {
    if (entries_[id].pins == 0) total += entries_[id].bytes;
  }
  return total;
}

}  // namespace harmony::runtime
