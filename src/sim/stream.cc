#include "sim/stream.h"

#include <utility>

namespace harmony::sim {

void Stream::Done::operator()() const { op_->stream->Complete(op_); }

Stream::Stream(Engine* engine, std::string name)
    : engine_(engine), name_(std::move(name)) {}

void Stream::BindTrace(trace::TraceBus* bus, int device, trace::Lane lane) {
  bus_ = bus;
  trace_device_ = device;
  trace_lane_ = lane;
}

Stream::Op* Stream::NewOp(std::string label, int task, TimeSec duration) {
  if (chunk_used_ == kOpsPerChunk) {
    op_chunks_.push_back(
        std::make_unique<std::optional<Op>[]>(kOpsPerChunk));
    chunk_used_ = 0;
  }
  Op* op = &op_chunks_.back()[chunk_used_++].emplace(this);
  op->label = std::move(label);
  op->task = task;
  op->duration = duration;
  return op;
}

Condition* Stream::PushTimed(std::initializer_list<Condition*> deps,
                             std::string label, int task, TimeSec duration) {
  return Enqueue(NewOp(std::move(label), task, duration), deps);
}

Condition* Stream::PushDelay(std::initializer_list<Condition*> deps,
                             TimeSec duration) {
  HARMONY_CHECK_GE(duration, 0.0);
  return PushTimed(deps, std::string(), -1, duration);
}

Condition* Stream::Enqueue(Op* op, std::initializer_list<Condition*> deps) {
  // In order with the previous op (null for the first), registered after
  // the op's own dependencies. Each unfired one holds a waiter in its FIFO;
  // the op starts inside whichever fires last.
  Condition* prev = std::exchange(last_done_, &op->done);
  auto pending = [](Condition* c) { return c != nullptr && !c->fired(); };
  for (Condition* c : deps) op->waiting += pending(c);
  op->waiting += pending(prev);
  if (op->waiting == 0) {
    Ready(op);
    return &op->done;
  }
  auto arrive = [op]() {
    if (--op->waiting == 0) op->stream->Ready(op);
  };
  for (Condition* c : deps) {
    if (pending(c)) c->OnFire(arrive);
  }
  if (pending(prev)) prev->OnFire(arrive);
  return &op->done;
}

void Stream::Ready(Op* op) {
  // Fault hook: a stall delays the op *start*, so the span duration and
  // busy_time accumulation are untouched — injected stalls change when
  // work happens, never how much work it is.
  const TimeSec stall = stall_probe_ ? stall_probe_() : 0.0;
  if (stall > 0.0) {
    engine_->After(stall, [op]() { op->stream->Start(op); });
  } else {
    Start(op);
  }
}

void Stream::Start(Op* op) {
  op->start = engine_->now();
  if (bus_ != nullptr && bus_->active()) {
    trace::Event e;
    e.kind = trace::EventKind::kOpBegin;
    e.lane = trace_lane_;
    e.device = trace_device_;
    e.time = op->start;
    e.task = op->task;
    e.name = std::move(op->label);
    bus_->Emit(e);
  }
  if (op->body != nullptr) {
    engine_->RunHeld(std::exchange(op->body, nullptr));
  } else {
    engine_->After(op->duration, [op]() { op->stream->Complete(op); });
  }
}

void Stream::Complete(Op* op) {
  if (bus_ != nullptr && bus_->active()) {
    trace::Event e;
    e.kind = trace::EventKind::kOpEnd;
    e.lane = trace_lane_;
    e.device = trace_device_;
    e.time = engine_->now();
    e.task = op->task;
    bus_->Emit(e);
  }
  busy_time_ += op->duration >= 0.0 ? op->duration : engine_->now() - op->start;
  last_completion_ = engine_->now();
  ++ops_completed_;
  op->done.Fire();
}

}  // namespace harmony::sim
