#ifndef HARMONY_SERVE_PLAN_SERVICE_H_
#define HARMONY_SERVE_PLAN_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "serve/plan_cache.h"
#include "serve/profiled_model.h"
#include "serve/wire.h"
#include "trace/trace.h"

namespace harmony::serve {

/// The cluster tier's hook into the request pipeline, implemented by
/// cluster::ClusterNode (serve stays a leaf: it defines the interface, the
/// cluster library implements it and links against serve). A worker that
/// misses the local PlanCache calls TryFill before burning a search — the
/// implementation consults its disk store and the fingerprint's owner peer.
/// After a *local* search completes, StoreCompleted offers the fresh plan
/// for persistence (fills handle their own persistence inside TryFill, so
/// the service never re-writes a plan that just came *from* the store).
///
/// Both calls run on PlanService worker threads and must be thread-safe;
/// TryFill may block (disk read, peer round trip with retries).
class PlanFillSource {
 public:
  virtual ~PlanFillSource() = default;

  /// Returns a plan whose canonical_request equals `canonical`, or nullptr.
  /// On success `*source` names where it came from ("disk" or "peer") — it
  /// travels to the client as PlanResponse::filled_from.
  virtual std::shared_ptr<const CachedPlan> TryFill(
      uint64_t fingerprint, const std::string& canonical,
      const PlanRequest& request, std::string* source) = 0;

  /// A local search for `fingerprint` just completed with `plan`.
  virtual void StoreCompleted(
      uint64_t fingerprint, const std::shared_ptr<const CachedPlan>& plan) = 0;
};

struct ServeOptions {
  /// Worker threads running requests. A request's search may borrow up to
  /// SearchOptions::num_threads - 1 helpers from the process pool
  /// (common::ThreadPool::Shared()), so the service runs on at most
  /// num_workers + the hardware concurrency threads however clients set it.
  /// For a serving workload the useful parallelism is across requests, so
  /// requests default to serial searches.
  int num_workers = 2;
  /// Plan cache byte budget; 0 turns the cache off (a pure planner).
  size_t cache_bytes = 64ull << 20;
  /// Admission bound: maximum requests admitted but not yet completed
  /// (queued + running). Beyond it, Submit load-sheds with an explicit
  /// ResourceExhausted + retry_after_ms response instead of queueing without
  /// bound — a closed feedback loop rather than an OOM three minutes later.
  int max_pending = 64;
  int retry_after_ms = 50;
  /// Optional observer (borrowed). The service serializes its emissions, so
  /// single-threaded sinks (ChromeTraceSink) work unchanged;
  /// event times are wall-clock seconds since service construction.
  trace::TraceBus* bus = nullptr;
  /// Test hook: every search worker sleeps this long before searching,
  /// letting tests fill the admission queue / observe in-flight state
  /// deterministically. Zero in production.
  TimeSec stall_for_test = 0;
  /// Optional cluster fill source (borrowed; must outlive the service).
  /// Consulted on a cache miss before a search starts; see PlanFillSource.
  PlanFillSource* fill = nullptr;
};

struct ServiceStats {
  uint64_t admitted = 0;        // entered the search pipeline
  uint64_t coalesced = 0;       // single-flight: attached to a running search
  uint64_t cache_hits = 0;      // served straight from the plan cache
  uint64_t filled = 0;          // resolved by the cluster tier (disk or peer)
  uint64_t searches = 0;        // searches actually started
  uint64_t completed = 0;       // responses delivered (any status)
  uint64_t rejected = 0;        // load-shed or refused while draining
  uint64_t deadline_exceeded = 0;
};

/// The plan-as-a-service engine: resolves profiles, runs Algorithm 1 on a
/// worker pool, and fronts everything with the content-addressed PlanCache.
///
/// Request lifecycle (each step emits a typed trace event):
///   Submit -> cache hit -> ready future                     [serve-cache-hit]
///          -> single-flight attach to identical in-flight request
///          -> queue full / draining -> explicit rejection   [serve-reject]
///          -> admitted [serve-admit] -> worker searches     [serve-search-begin]
///          -> response (plan | error), cache insert         [serve-complete]
///
/// Deadlines & cancellation: a request's deadline arms a CancelToken polled
/// by the search between candidates; Shutdown(cancel_inflight=true) trips
/// every token. A cancelled search *never* yields a partial plan — callers
/// see DeadlineExceeded/Cancelled, and nothing is cached.
///
/// Thread-safe throughout; futures may be waited on from any thread.
class PlanService {
 public:
  explicit PlanService(ServeOptions options);
  /// Graceful drain (equivalent to Shutdown(false)).
  ~PlanService();

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Asynchronous entry point. The returned future is always eventually
  /// satisfied — rejections and failures travel as PlanResponse::status,
  /// never as exceptions.
  std::shared_future<PlanResponse> Submit(const PlanRequest& request);

  /// Completion-callback submission: `done` is invoked exactly once with the
  /// response — *inline on the calling thread* for immediate outcomes (cache
  /// hit, load-shed, draining), on a worker thread otherwise. This is the
  /// reactor's entry point: an event loop must never block on a future, so
  /// the callback marshals the response back to the owning loop instead.
  /// `done` must not throw and must tolerate either calling context.
  using PlanCallback = std::function<void(PlanResponse)>;
  void SubmitAsync(const PlanRequest& request, PlanCallback done);

  /// Synchronous convenience wrapper.
  PlanResponse Plan(const PlanRequest& request) { return Submit(request).get(); }

  /// Stops admitting (new Submits get Unavailable), waits for every admitted
  /// request to complete, then joins the pool. Idempotent and safe to race.
  /// `cancel_inflight` additionally trips the in-flight searches' tokens so
  /// the drain is prompt; their callers see Cancelled.
  void Shutdown(bool cancel_inflight = false);

  CacheStats cache_stats() const { return cache_.stats(); }
  ServiceStats stats() const;

  /// Side-effect-free cache probe for the cluster tier's owner-side
  /// cache_get handler: answers a peer's lookup without perturbing local
  /// hit/miss counters or LRU order. Returns nullptr when caching is off.
  std::shared_ptr<const CachedPlan> PeekCache(
      uint64_t fingerprint, std::string_view canonical_request) const {
    if (options_.cache_bytes == 0) return nullptr;
    return cache_.Peek(fingerprint, canonical_request);
  }

  /// Seconds since service construction (the timebase of emitted events).
  TimeSec Now() const;

 private:
  struct Inflight {
    /// Everyone waiting on this search: the admitting caller plus every
    /// coalesced attacher. Invoked (in attach order) by the worker after the
    /// response is finalized and bookkeeping is done; appended to only under
    /// mu_ while the entry is still in inflight_.
    std::vector<PlanCallback> callbacks;
    std::shared_ptr<common::CancelToken> cancel;
    /// Canonical request bytes (the fingerprint preimage): coalescing
    /// verifies them so a fingerprint collision never attaches a request to
    /// a different request's search.
    std::string canonical;
  };

  /// Runs on a pool worker: search (+ optional iteration), cache insert,
  /// bookkeeping, promise fulfilment.
  void RunRequest(PlanRequest request, uint64_t fingerprint, int request_id,
                  std::shared_ptr<common::CancelToken> cancel,
                  std::chrono::steady_clock::time_point admit_time,
                  std::shared_ptr<Inflight> inflight);

  PlanResponse ComputePlan(const PlanRequest& request, uint64_t fingerprint,
                           const common::CancelToken* cancel);

  void EmitEvent(trace::EventKind kind, int request_id, int64_t latency_ns);

  ServeOptions options_;
  PlanCache cache_;
  common::ThreadPool pool_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::condition_variable drained_;
  std::unordered_map<uint64_t, std::shared_ptr<Inflight>> inflight_;
  int pending_ = 0;
  bool draining_ = false;
  int next_request_id_ = 0;
  ServiceStats stats_;

  ProfileMemo profiles_;  // profiles amortized across requests

  std::mutex trace_mu_;  // serializes bus emissions from worker threads
};

}  // namespace harmony::serve

#endif  // HARMONY_SERVE_PLAN_SERVICE_H_
