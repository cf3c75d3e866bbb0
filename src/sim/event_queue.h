#ifndef HARMONY_SIM_EVENT_QUEUE_H_
#define HARMONY_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"

namespace harmony::sim {

/// One pending event. Fixed-size and arena-pooled by EventQueue: the
/// 32-byte header (time / FIFO sequence / free-list link / trampoline) is
/// followed by 32 bytes of inline callback storage, making the whole record
/// exactly one cache line. Callables larger than the inline buffer spill to
/// the queue's spill arena (see EventQueue::AcquireSpill) — never to
/// operator new.
///
/// A *held* record is the same thing without a time: a callback parked on a
/// Condition, a flow or a stream op (Engine::Hold) instead of in the heap.
/// Held records never enter the heap, so `time` and `seq` are free; a
/// WhenAll join counts its outstanding arrivals in them, and a waiter list
/// links its records through `next`.
struct EventRec {
  static constexpr std::size_t kInlineBytes = 32;

  TimeSec time = 0.0;
  int64_t seq = 0;
  EventRec* next = nullptr;
  /// Trampoline installed by the scheduler: runs (when `run`) and destroys
  /// the payload, then returns the record (and any spill block) to the
  /// arena. `ctx` is the owning engine.
  void (*op)(EventRec* rec, void* ctx, bool run) = nullptr;
  alignas(std::max_align_t) unsigned char payload[kInlineBytes];
};

/// A binary min-heap of arena-allocated event records, ordered by
/// (time, seq) — the engine's determinism contract.
///
/// Memory: records come from a chunked free-list arena owned by the queue;
/// oversized callbacks draw from a size-classed spill arena. Neither path
/// touches the global allocator after warm-up, and nothing is returned to
/// the OS until the queue is destroyed.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Takes a record from the arena. Caller fills time/seq/op/payload and
  /// must either Push it or Release it.
  EventRec* Acquire();
  /// Returns a record whose payload has already been destroyed.
  void Release(EventRec* rec);

  /// Allocates `bytes` of spill storage for an oversized callback.
  void* AcquireSpill(std::size_t bytes);
  void ReleaseSpill(void* block, std::size_t bytes);

  /// Inserts an acquired record.
  void Push(EventRec* rec);

  /// Removes and returns the minimum record by (time, seq); nullptr when
  /// empty. The caller owns the record until it calls Release.
  EventRec* PopMin();

 private:
  // Min-heap (std::push_heap/pop_heap over record pointers).
  std::vector<EventRec*> heap_;

  // Record arena: chunked storage + free list threaded through `next`.
  static constexpr std::size_t kRecordsPerChunk = 512;
  std::vector<std::unique_ptr<EventRec[]>> chunks_;
  std::size_t chunk_used_ = kRecordsPerChunk;  // forces first-chunk alloc
  EventRec* free_ = nullptr;

  // Spill arena: power-of-two size classes from 64 B up, free lists
  // threaded through the first 8 bytes of each block.
  static constexpr std::size_t kSpillChunkBytes = 32 * 1024;
  std::vector<std::unique_ptr<unsigned char[]>> spill_chunks_;
  std::vector<void*> spill_free_;  // one list head per size class
};

}  // namespace harmony::sim

#endif  // HARMONY_SIM_EVENT_QUEUE_H_
