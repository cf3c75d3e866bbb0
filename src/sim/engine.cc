#include "sim/engine.h"

namespace harmony::sim {

Engine::~Engine() { Reset(); }

void Engine::Reset() {
  // Destroy pending payloads without running them (run=false) so captured
  // state (shared_ptrs, trace sinks) is released even when a run ends with
  // events still queued.
  while (EventRec* rec = queue_.PopMin()) rec->op(rec, this, /*run=*/false);
  now_ = 0.0;
  next_seq_ = 0;
  events_processed_ = 0;
  causality_clamps_ = 0;
}

TimeSec Engine::Run() {
  while (EventRec* rec = queue_.PopMin()) {
    now_ = rec->time;
    ++events_processed_;
    rec->op(rec, this, /*run=*/true);
  }
  return now_;
}

void WaiterList::Drain(Engine* engine, bool run) {
  EventRec* rec = std::exchange(head_, nullptr);
  tail_ = nullptr;
  while (rec != nullptr) {
    EventRec* next = rec->next;  // the trampoline recycles `rec`
    if (run) {
      engine->RunHeld(rec);
    } else {
      engine->DropHeld(rec);
    }
    rec = next;
  }
}

void Condition::Fire() {
  HARMONY_CHECK(!fired_) << "Condition fired twice";
  fired_ = true;
  waiters_.RunAll(engine_);
}

void JoinArrival::Arrive(EventRec* join, bool ran) {
  if (!ran) join->time = -1.0;
  if (--join->seq > 0) return;
  if (join->time < 0.0) {
    engine_->DropHeld(join);
  } else {
    engine_->RunHeld(join);
  }
}

}  // namespace harmony::sim
