#include "sim/stream.h"

#include <utility>

namespace harmony::sim {

void Stream::Done::operator()() const { op_->stream->Complete(op_); }

Stream::Stream(Engine* engine) : engine_(engine) {}

void Stream::Reset() {
  for (size_t i = 0; i < num_ops_; ++i) {
    op_chunks_[i / kOpsPerChunk][i % kOpsPerChunk].reset();
  }
  num_ops_ = 0;
  bus_ = nullptr;
  trace_device_ = -1;
  trace_lane_ = trace::Lane::kCompute;
  last_done_ = nullptr;
  stall_probe_ = nullptr;
  busy_time_ = 0.0;
  last_completion_ = 0.0;
  ops_completed_ = 0;
}

void Stream::BindTrace(trace::TraceBus* bus, int device, trace::Lane lane) {
  bus_ = bus;
  trace_device_ = device;
  trace_lane_ = lane;
}

Stream::Op* Stream::NewOp(TimeSec duration, int task, const char* tag,
                          int index) {
  const size_t chunk = num_ops_ / kOpsPerChunk;
  if (chunk == op_chunks_.size()) {
    op_chunks_.push_back(
        std::make_unique<std::optional<Op>[]>(kOpsPerChunk));
  }
  Op* op = &op_chunks_[chunk][num_ops_++ % kOpsPerChunk].emplace(this);
  op->task = task;
  op->tag = tag;
  op->index = index;
  op->duration = duration;
  return op;
}

Condition* Stream::PushTimed(std::initializer_list<Condition*> deps,
                             TimeSec duration, int task, const char* tag,
                             int index) {
  return Enqueue(NewOp(duration, task, tag, index), deps);
}

Condition* Stream::PushDelay(std::initializer_list<Condition*> deps,
                             TimeSec duration) {
  HARMONY_CHECK_GE(duration, 0.0);
  return PushTimed(deps, duration);
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
    e.detail = op->tag;
    e.index = op->index;
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
