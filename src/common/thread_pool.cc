#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/logging.h"

namespace harmony::common {
namespace {

/// One `Run` call's state, shared by the caller and its queued helpers. It
/// lives on the heap because a helper may be dequeued after `Run` returned.
struct Batch {
  Batch(int n, const std::function<void(int, int)>* fn) : n(n), fn(fn) {}

  /// Claims runs until the cursor passes `n`. noexcept: a throwing `fn`
  /// terminates here rather than unwinding past a batch others still run.
  void Drain(int worker) noexcept {
    for (int run = cursor.fetch_add(1, std::memory_order_relaxed); run < n;
         run = cursor.fetch_add(1, std::memory_order_relaxed)) {
      (*fn)(run, worker);
    }
  }

  const int n;
  /// Valid only while the batch is open or a registered helper is active.
  const std::function<void(int, int)>* const fn;
  std::atomic<int> cursor{0};
  std::mutex mu;
  std::condition_variable idle;
  bool closed = false;  // guarded by mu
  int active = 0;       // guarded by mu
  int next_worker = 1;  // guarded by mu
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = DefaultThreadCount();
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  wake_.notify_all();
  // All callers funnel through join_mu_: the first joins the workers, later
  // (or concurrent) callers block here until that join finished, so *every*
  // Shutdown return means "queue drained, workers gone".
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::Enqueue(std::function<void()> task, int copies) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) return false;
    queue_.insert(queue_.end(), static_cast<size_t>(copies), task);
  }
  for (int i = 0; i < copies; ++i) wake_.notify_one();
  return true;
}

void ThreadPool::Run(int n, int max_workers,
                     const std::function<void(int, int)>& fn) {
  const int participants = std::min({max_workers, n, num_threads() + 1});
  if (participants <= 1) {
    for (int run = 0; run < n; ++run) fn(run, 0);
    return;
  }
  auto batch = std::make_shared<Batch>(n, &fn);
  // A rejected batch (pool shutting down) leaves every run to the caller.
  Enqueue(
      [batch]() {
        int worker = 0;
        {
          std::lock_guard<std::mutex> lock(batch->mu);
          if (batch->closed) return;
          worker = batch->next_worker++;
          ++batch->active;
        }
        batch->Drain(worker);
        std::lock_guard<std::mutex> lock(batch->mu);
        if (--batch->active == 0) batch->idle.notify_one();
      },
      participants - 1);
  batch->Drain(0);
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->closed = true;
  batch->idle.wait(lock, [&batch]() { return batch->active == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this]() { return shutting_down_ || !queue_.empty(); });
      // Drain pending tasks even when shutting down, so every future from
      // Submit is satisfied before the destructor returns.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

int ThreadPool::DefaultThreadCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(DefaultThreadCount());
  return pool;
}

}  // namespace harmony::common
