#ifndef HARMONY_SIM_ENGINE_H_
#define HARMONY_SIM_ENGINE_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

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
/// heap allocation on either path. The same records, held instead of queued,
/// carry every other simulator callback: condition waiters, WhenAll joins,
/// flow completions and stream-op bodies (see Hold).
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Returns the engine to its just-constructed state for a new run, keeping
  /// the record arenas: pending events are destroyed unrun. Held records
  /// belong to their owners, which drop them first.
  void Reset();

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
    EventRec* rec = Hold(std::forward<F>(fn));
    rec->time = t;
    rec->seq = next_seq_++;
    queue_.Push(rec);
  }

  /// Schedules `fn` to run `dt` seconds from now.
  template <typename F>
  void After(TimeSec dt, F&& fn) {
    At(now_ + dt, std::forward<F>(fn));
  }

  /// Stores `fn` in an arena record that is not scheduled: a callback held
  /// until its owner calls RunHeld or DropHeld — exactly one of them, once,
  /// before the engine is destroyed.
  template <typename F>
  EventRec* Hold(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    EventRec* rec = queue_.Acquire();
    if constexpr (sizeof(Fn) <= EventRec::kInlineBytes) {
      ::new (static_cast<void*>(rec->payload)) Fn(std::forward<F>(fn));
      rec->op = &InlineOp<Fn>;
    } else {
      void* block = queue_.AcquireSpill(sizeof(Fn));
      ::new (block) Fn(std::forward<F>(fn));
      std::memcpy(rec->payload, &block, sizeof(void*));
      rec->op = &SpillOp<Fn>;
    }
    return rec;
  }
  /// Runs a held callback, then returns its record to the arena.
  void RunHeld(EventRec* rec) { rec->op(rec, this, /*run=*/true); }
  /// Destroys a held callback without running it (a run that wedged or
  /// failed before the callback's trigger), returning its record.
  void DropHeld(EventRec* rec) { rec->op(rec, this, /*run=*/false); }

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

/// A FIFO of held callbacks linked through EventRec::next: the waiters of a
/// Condition, or of a tensor in the runtime. It stores no engine pointer, so
/// the owner passes its engine and must RunAll or DropAll every waiter before
/// that engine is destroyed.
class WaiterList {
 public:
  WaiterList() = default;
  /// Moving detaches: the source is left empty, so callbacks registered
  /// while the moved-out list runs land in the source for a later pass.
  WaiterList(WaiterList&& other) noexcept
      : head_(std::exchange(other.head_, nullptr)),
        tail_(std::exchange(other.tail_, nullptr)) {}
  WaiterList& operator=(WaiterList&&) = delete;
  /// Without an engine the list cannot release records itself: its owner
  /// runs or drops every waiter first.
  ~WaiterList() { HARMONY_DCHECK(empty()) << "waiters left undrained"; }

  bool empty() const { return head_ == nullptr; }

  template <typename F>
  void Add(Engine* engine, F&& fn) {
    EventRec* rec = engine->Hold(std::forward<F>(fn));
    rec->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = rec;
    tail_ = rec;
  }

  /// Detaches the list, then runs each waiter in registration order.
  void RunAll(Engine* engine) {
    if (!empty()) Drain(engine, /*run=*/true);
  }
  /// Destroys every waiter without running it.
  void DropAll(Engine* engine) {
    if (!empty()) Drain(engine, /*run=*/false);
  }

 private:
  void Drain(Engine* engine, bool run);

  EventRec* head_ = nullptr;
  EventRec* tail_ = nullptr;
};

/// One-shot synchronization flag, analogous to a CUDA event: consumers
/// register callbacks that run when (or immediately if) the condition fires.
/// Waiters are held records of `engine`, which must outlive the condition;
/// a condition destroyed unfired (a wedged schedule) drops them unrun.
class Condition {
 public:
  explicit Condition(Engine* engine) : engine_(engine) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;
  ~Condition() { waiters_.DropAll(engine_); }

  bool fired() const { return fired_; }
  Engine* engine() const { return engine_; }

  /// Rearms the condition for reuse: pending waiters are dropped unrun.
  void Reset() {
    waiters_.DropAll(engine_);
    fired_ = false;
  }

  /// Fires the condition; runs pending callbacks synchronously, in
  /// registration order (they execute within the current event, at the
  /// current simulated time). Firing twice is a programming error.
  void Fire();

  /// Runs `fn` when the condition fires; immediately if already fired.
  template <typename F>
  void OnFire(F&& fn) {
    if (fired_) {
      fn();
    } else {
      waiters_.Add(engine_, std::forward<F>(fn));
    }
  }

 private:
  Engine* engine_;
  bool fired_ = false;
  WaiterList waiters_;
};

/// One dependency's arrival at a WhenAll join: a waiter that counts the
/// join's held `done` record down, and runs it on the last arrival. An
/// arrival destroyed unrun poisons the join, so `done` is dropped (never
/// run) once the last arrival is gone.
class JoinArrival {
 public:
  JoinArrival(Engine* engine, EventRec* join) : engine_(engine), join_(join) {}
  JoinArrival(JoinArrival&& other) noexcept
      : engine_(other.engine_), join_(std::exchange(other.join_, nullptr)) {}
  JoinArrival& operator=(JoinArrival&&) = delete;
  ~JoinArrival() {
    if (join_ != nullptr) Arrive(join_, /*ran=*/false);
  }
  void operator()() { Arrive(std::exchange(join_, nullptr), /*ran=*/true); }

 private:
  void Arrive(EventRec* join, bool ran);

  Engine* engine_;
  EventRec* join_;
};

/// Runs `done` once every condition in `deps` has fired (immediately if all
/// have; null entries are ignored). Zero or one unfired dependency needs no
/// join; otherwise `done` is held in an arena record of the conditions'
/// engine, and each unfired dependency gets a JoinArrival waiter.
template <typename F>
void WhenAll(std::initializer_list<Condition*> deps, F&& done) {
  int unfired = 0;
  Condition* last_unfired = nullptr;
  for (Condition* c : deps) {
    if (c == nullptr || c->fired()) continue;
    ++unfired;
    last_unfired = c;
  }
  if (unfired == 0) {
    done();
    return;
  }
  if (unfired == 1) {
    last_unfired->OnFire(std::forward<F>(done));
    return;
  }
  Engine* engine = last_unfired->engine();
  EventRec* join = engine->Hold(std::forward<F>(done));
  join->seq = unfired;  // arrivals outstanding
  join->time = 0.0;     // < 0 once an arrival was dropped unrun
  for (Condition* c : deps) {
    if (c == nullptr || c->fired()) continue;
    c->OnFire(JoinArrival(engine, join));
  }
}

}  // namespace harmony::sim

#endif  // HARMONY_SIM_ENGINE_H_
