#ifndef HARMONY_COMMON_THREAD_POOL_H_
#define HARMONY_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace harmony::common {

/// A fixed-size worker pool with a shared FIFO task queue and the process's
/// one executor: `PlanService` submits requests through `Submit`, and the
/// configuration search and the chaos matrix fan out through `Run`.
///
/// Guarantees:
///  * `Submit` never blocks on task execution; tasks run in FIFO submission
///    order across the pool (each worker pops the oldest pending task).
///  * Deterministic shutdown: the destructor (or `Shutdown`) drains every
///    already-submitted task before joining the workers, so futures obtained
///    from `Submit` are always eventually satisfied.
///  * Thread-safe: `Submit` may be called concurrently from any thread,
///    including from inside a running task (tasks must not block on futures
///    of tasks queued behind them, the usual pool-deadlock caveat; `Run`
///    never does).
///  * Task exceptions propagate to the submitter: a callable that throws
///    stores the exception in its future (rethrown by `future::get()`), the
///    worker thread survives, and subsequent tasks run normally. Nothing a
///    task throws can terminate the process via the pool.
///  * Shutdown is well-defined under races: `Shutdown` is idempotent, and a
///    concurrent second caller blocks until the drain completes rather than
///    returning while workers are still running. `Submit` after (or
///    concurrent with) `Shutdown` never enqueues work that would be silently
///    dropped — it either runs normally (it won the race) or returns a
///    future carrying a `ThreadPool::ShutdownError` exception.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. `num_threads` <= 0 selects the hardware
  /// concurrency (at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Exception delivered through the future when a task is submitted to a
  /// pool that has already begun shutting down.
  struct ShutdownError : std::runtime_error {
    ShutdownError() : std::runtime_error("ThreadPool::Submit after Shutdown") {}
  };

  /// Enqueues `fn(args...)` and returns a future for its result. If the
  /// callable throws, the exception is captured into the future. If the pool
  /// is already shutting down, returns a future holding `ShutdownError`.
  template <typename F, typename... Args>
  auto Submit(F&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<F, Args...>> {
    using R = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [f = std::forward<F>(fn),
         ... a = std::forward<Args>(args)]() mutable { return f(a...); });
    std::future<R> result = task->get_future();
    if (!Enqueue([task]() { (*task)(); })) {
      std::promise<R> rejected;
      rejected.set_exception(std::make_exception_ptr(ShutdownError()));
      return rejected.get_future();
    }
    return result;
  }

  /// Fork-join: invokes fn(run, worker) once for every run in [0, n) and
  /// returns when all of them have finished. The calling thread is worker 0
  /// and queues up to min(max_workers, n, num_threads() + 1) - 1 helper
  /// tasks; every participant claims runs from one shared cursor. `worker`
  /// lies in [0, max_workers) and is unique among the threads running the
  /// batch at once, so it may index per-worker scratch.
  ///
  /// `Run` never waits for a helper that has not started: once the caller's
  /// own loop finds the cursor exhausted it closes the batch and waits only
  /// for helpers already inside it, and a helper dequeued after the close
  /// returns without touching `fn`. So a `Run` issued from inside a task of
  /// this pool, or on a pool whose workers are all busy, completes on the
  /// caller alone instead of deadlocking. With `n` <= 1 or `max_workers`
  /// <= 1 the runs execute inline, in run order, as worker 0. `fn` must not
  /// throw: an exception escaping it terminates the process.
  void Run(int n, int max_workers,
           const std::function<void(int run, int worker)>& fn);

  /// Drains the queue and joins all workers. Idempotent and safe to race:
  /// every caller (including the destructor) returns only after the drain
  /// has completed. Subsequent `Submit` calls are rejected via the future
  /// (see ShutdownError) instead of being undefined behaviour.
  void Shutdown();

  /// Best-effort default worker count for CPU-bound work on this host.
  static int DefaultThreadCount();

  /// The process pool searches borrow helpers from: DefaultThreadCount()
  /// workers, started on first use (a process that never fans out starts
  /// none) and joined at exit.
  static ThreadPool& Shared();

 private:
  /// Queues `copies` of `task` unless the pool is shutting down; false
  /// means rejected.
  bool Enqueue(std::function<void()> task, int copies = 1);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  /// Serializes the join phase so concurrent Shutdown callers all block
  /// until the workers have actually exited (the flag alone would let the
  /// loser return early while tasks are still draining).
  std::mutex join_mu_;
  std::vector<std::thread> workers_;
};

}  // namespace harmony::common

#endif  // HARMONY_COMMON_THREAD_POOL_H_
