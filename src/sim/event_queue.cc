#include "sim/event_queue.h"

#include <algorithm>
#include <cstring>

namespace harmony::sim {
namespace {

/// (time, seq) ascending — the determinism contract's total order.
inline bool EarlierThan(const EventRec& a, const EventRec& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

/// std::push_heap/pop_heap comparator for a min-heap of record pointers.
struct LaterPtr {
  bool operator()(const EventRec* a, const EventRec* b) const {
    return EarlierThan(*b, *a);
  }
};

constexpr std::size_t kMinSpillClass = 64;

std::size_t SpillClassOf(std::size_t bytes) {
  std::size_t cls = 0;
  std::size_t size = kMinSpillClass;
  while (size < bytes) {
    size <<= 1;
    ++cls;
  }
  return cls;
}

}  // namespace

EventRec* EventQueue::Acquire() {
  if (free_ != nullptr) {
    EventRec* rec = free_;
    free_ = rec->next;
    return rec;
  }
  if (chunk_used_ == kRecordsPerChunk) {
    chunks_.push_back(std::make_unique<EventRec[]>(kRecordsPerChunk));
    chunk_used_ = 0;
  }
  return &chunks_.back()[chunk_used_++];
}

void EventQueue::Release(EventRec* rec) {
  rec->next = free_;
  free_ = rec;
}

void* EventQueue::AcquireSpill(std::size_t bytes) {
  const std::size_t cls = SpillClassOf(bytes);
  const std::size_t block = kMinSpillClass << cls;
  if (spill_free_.size() <= cls) spill_free_.resize(cls + 1, nullptr);
  if (spill_free_[cls] != nullptr) {
    void* p = spill_free_[cls];
    std::memcpy(&spill_free_[cls], p, sizeof(void*));
    return p;
  }
  // Carve a fresh chunk into blocks of this class; keep one, list the rest.
  const std::size_t chunk_bytes = std::max(kSpillChunkBytes, block);
  spill_chunks_.push_back(std::make_unique<unsigned char[]>(chunk_bytes));
  unsigned char* base = spill_chunks_.back().get();
  for (std::size_t off = block; off + block <= chunk_bytes; off += block) {
    void* p = base + off;
    std::memcpy(p, &spill_free_[cls], sizeof(void*));
    spill_free_[cls] = p;
  }
  return base;
}

void EventQueue::ReleaseSpill(void* block, std::size_t bytes) {
  const std::size_t cls = SpillClassOf(bytes);
  std::memcpy(block, &spill_free_[cls], sizeof(void*));
  spill_free_[cls] = block;
}

void EventQueue::Push(EventRec* rec) {
  heap_.push_back(rec);
  std::push_heap(heap_.begin(), heap_.end(), LaterPtr{});
}

EventRec* EventQueue::PopMin() {
  if (heap_.empty()) return nullptr;
  std::pop_heap(heap_.begin(), heap_.end(), LaterPtr{});
  EventRec* rec = heap_.back();
  heap_.pop_back();
  return rec;
}

}  // namespace harmony::sim
