#ifndef HARMONY_SIM_STREAM_H_
#define HARMONY_SIM_STREAM_H_

#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"
#include "trace/trace.h"

namespace harmony::sim {

/// An in-order execution queue, analogous to a CUDA stream. Each GPU in the
/// Harmony runtime owns five of these (compute, swap-in, swap-out, p2p-in,
/// p2p-out — Sec 4.4); cross-stream dependencies are expressed with
/// Conditions, analogous to CUDA events.
///
/// An op starts when (a) the op ahead of it in the stream has finished, and
/// (b) all of its dependency conditions have fired. A timed op then occupies
/// the stream for its duration; any other op runs its body, which receives a
/// Done handle to call when its work is done (a compute delay or a
/// FlowNetwork transfer).
///
/// Each op is one record in the stream's chunked op arena: its completion
/// condition, its count of unfired dependencies (each unfired dependency
/// holds one waiter that counts it down), its trace label ids, and its body as
/// a held engine record. Pushing, starting and completing an op allocate
/// nothing once the arena is warm, and Reset keeps the arena for the next
/// run.
class Stream {
 private:
  struct Op;

 public:
  /// Completion handle passed to an op's body; call it once when the op's
  /// work is done. Trivially copyable and pointer-sized, so a std::function
  /// stores it inline.
  class Done {
   public:
    void operator()() const;

   private:
    friend class Stream;
    explicit Done(Op* op) : op_(op) {}
    Op* op_;
  };

  explicit Stream(Engine* engine);
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Returns the stream to its just-constructed state, keeping the op arena:
  /// ops of a failed or wedged run that never started drop their bodies and
  /// waiters unrun. Unbinds the trace and the stall probe.
  void Reset();

  /// Enqueues an op whose `body` (callable with a Done) does the work;
  /// returns the condition fired on its completion. The returned pointer
  /// stays valid for the stream's lifetime.
  template <typename F>
  Condition* Push(std::initializer_list<Condition*> deps, F&& body) {
    Op* op = NewOp(-1.0, -1, "", -1);
    op->body = engine_->Hold(
        [op, body = std::forward<F>(body)]() mutable { body(Done(op)); });
    return Enqueue(op, deps);
  }

  /// An op whose duration is known at push time (a profiled compute delay).
  /// Its span events carry `task` and the label ids `tag` (static) and
  /// `index`, which a printing sink formats (trace::OpLabel). busy_time
  /// accumulates `duration` itself rather than the end-minus-start timestamp
  /// difference, so the total is invariant under time translation: injected
  /// faults that merely *delay* ops cannot drift busy_time by even an ulp.
  Condition* PushTimed(std::initializer_list<Condition*> deps,
                       TimeSec duration, int task = -1, const char* tag = "",
                       int index = -1);

  /// Convenience: an op that just occupies the stream for `duration`.
  Condition* PushDelay(std::initializer_list<Condition*> deps,
                       TimeSec duration);

  /// Routes this stream's op begin/end span events to `bus`, attributed to
  /// `device` on `lane` (one chrome-trace row per device x lane).
  void BindTrace(trace::TraceBus* bus, int device, trace::Lane lane);

  /// Fault hook: consulted once per op, after its dependencies fire but
  /// before the op span begins. A positive return delays the op start by that
  /// many simulated seconds (a "stream stall" — the hardware wedging, not the
  /// op running long), so busy_time and the op's span duration stay exactly
  /// what they would be without the stall. Null (the default) costs one
  /// branch per op.
  void SetStallProbe(std::function<TimeSec()> probe) {
    stall_probe_ = std::move(probe);
  }

  /// Total time the stream spent executing op bodies.
  TimeSec busy_time() const { return busy_time_; }
  /// Simulated time the stream's most recent op completed (0 if none). The
  /// executor takes the max across streams as the iteration's end: liveness
  /// timers (watchdog ticks) keep the engine's clock running past the last
  /// real work, so the engine's drain time is not the iteration time.
  TimeSec last_completion() const { return last_completion_; }
  int64_t ops_completed() const { return ops_completed_; }

 private:
  struct Op {
    explicit Op(Stream* s) : stream(s), done(s->engine_) {}
    Op(const Op&) = delete;
    Op& operator=(const Op&) = delete;
    /// An op that never started (a wedged run) drops its body unrun.
    ~Op() {
      if (body != nullptr) stream->engine_->DropHeld(body);
    }

    Stream* stream;
    Condition done;
    EventRec* body = nullptr;  // held work; null for timed ops
    int task = -1;
    const char* tag = "";      // label ids (trace::OpLabel)
    int index = -1;
    int waiting = 0;           // unfired deps, the previous op included
    /// >= 0: a timed op, charged exactly this much busy time; < 0: the body
    /// decides, and busy time is end minus start.
    TimeSec duration = -1.0;
    TimeSec start = 0.0;
  };

  Op* NewOp(TimeSec duration, int task, const char* tag, int index);
  /// Registers `op` behind its dependencies and the previous op; starts it
  /// at once if none is pending.
  Condition* Enqueue(Op* op, std::initializer_list<Condition*> deps);
  /// Every dependency fired: consult the stall probe, then start.
  void Ready(Op* op);
  void Start(Op* op);
  void Complete(Op* op);

  Engine* engine_;
  trace::TraceBus* bus_ = nullptr;
  int trace_device_ = -1;
  trace::Lane trace_lane_ = trace::Lane::kCompute;
  Condition* last_done_ = nullptr;
  std::function<TimeSec()> stall_probe_;
  // Op arena: fixed chunks, so a pushed op (and the condition Push hands
  // out) never moves; op i of the run lives in chunk i / kOpsPerChunk. Ops
  // are destroyed by Reset or with the stream.
  static constexpr size_t kOpsPerChunk = 256;
  std::vector<std::unique_ptr<std::optional<Op>[]>> op_chunks_;
  size_t num_ops_ = 0;
  TimeSec busy_time_ = 0.0;
  TimeSec last_completion_ = 0.0;
  int64_t ops_completed_ = 0;
};

}  // namespace harmony::sim

#endif  // HARMONY_SIM_STREAM_H_
