#ifndef HARMONY_SIM_ENGINE_H_
#define HARMONY_SIM_ENGINE_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "sim/event_queue.h"

namespace harmony::sim {

/// Discrete-event simulation engine. Deterministic: events at equal timestamps
/// run in insertion order (FIFO tie-break by sequence number).
///
/// Events live in a binary min-heap on (time, seq) as fixed-size arena
/// records. Callables up to 32 bytes (which covers std::function and almost
/// every capture lambda in the codebase) are stored inline in the record;
/// larger ones spill to the queue's size-classed spill arena. No per-event
/// heap allocation on either path.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  TimeSec now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t`. Scheduling in the past is a
  /// causality error: debug builds abort (HARMONY_DCHECK); release builds
  /// clamp to now() — the event still runs, after everything already pending
  /// at now() — and count the violation in causality_clamps().
  template <typename F>
  void At(TimeSec t, F&& fn) {
    if (t < now_) {
      HARMONY_DCHECK_GE(t, now_) << "Engine::At scheduled in the past";
      t = now_;
      ++causality_clamps_;
    }
    using Fn = std::decay_t<F>;
    EventRec* rec = queue_.Acquire();
    rec->time = t;
    rec->seq = next_seq_++;
    if constexpr (sizeof(Fn) <= EventRec::kInlineBytes) {
      static_assert(alignof(Fn) <= alignof(std::max_align_t));
      ::new (static_cast<void*>(rec->payload)) Fn(std::forward<F>(fn));
      rec->op = &InlineOp<Fn>;
    } else {
      static_assert(alignof(Fn) <= alignof(std::max_align_t));
      void* block = queue_.AcquireSpill(sizeof(Fn));
      ::new (block) Fn(std::forward<F>(fn));
      std::memcpy(rec->payload, &block, sizeof(void*));
      rec->op = &SpillOp<Fn>;
    }
    queue_.Push(rec);
  }

  /// Schedules `fn` to run `dt` seconds from now.
  template <typename F>
  void After(TimeSec dt, F&& fn) {
    At(now_ + dt, std::forward<F>(fn));
  }

  /// Runs until the event queue drains. Returns the final simulated time.
  TimeSec Run();

  /// Number of events processed so far (diagnostics / loop guards in tests).
  int64_t events_processed() const { return events_processed_; }
  /// Times a release build clamped a past-scheduled event to now().
  int64_t causality_clamps() const { return causality_clamps_; }

 private:
  /// Trampoline for callables stored inline in the record payload.
  template <typename Fn>
  static void InlineOp(EventRec* rec, void* ctx, bool run) {
    auto* engine = static_cast<Engine*>(ctx);
    Fn* fn = std::launder(reinterpret_cast<Fn*>(rec->payload));
    if (run) (*fn)();
    fn->~Fn();
    engine->queue_.Release(rec);
  }

  /// Trampoline for callables spilled to the arena; the payload holds the
  /// block pointer.
  template <typename Fn>
  static void SpillOp(EventRec* rec, void* ctx, bool run) {
    auto* engine = static_cast<Engine*>(ctx);
    void* block;
    std::memcpy(&block, rec->payload, sizeof(void*));
    Fn* fn = std::launder(reinterpret_cast<Fn*>(block));
    if (run) (*fn)();
    fn->~Fn();
    engine->queue_.ReleaseSpill(block, sizeof(Fn));
    engine->queue_.Release(rec);
  }

  TimeSec now_ = 0.0;
  int64_t next_seq_ = 0;
  int64_t events_processed_ = 0;
  int64_t causality_clamps_ = 0;
  EventQueue queue_;
};

/// One-shot synchronization flag, analogous to a CUDA event: consumers
/// register callbacks that run when (or immediately if) the condition fires.
class Condition {
 public:
  Condition() = default;
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  bool fired() const { return fired_; }

  /// Fires the condition; runs pending callbacks synchronously (they execute
  /// within the current event, at the current simulated time). Firing twice
  /// is a programming error.
  void Fire();

  /// Runs `fn` when the condition fires; immediately if already fired.
  void OnFire(std::function<void()> fn);

 private:
  bool fired_ = false;
  std::vector<std::function<void()>> waiters_;
};

/// Fires `done` once every condition in `deps` has fired (all may already be
/// fired, in which case `done` runs immediately). `deps` may contain nulls,
/// which are ignored. The returned guard must stay alive until completion;
/// ownership is internal (self-deleting), callers just call the function.
void WhenAll(const std::vector<Condition*>& deps, std::function<void()> done);

}  // namespace harmony::sim

#endif  // HARMONY_SIM_ENGINE_H_
