#ifndef HARMONY_SERVE_SERVER_H_
#define HARMONY_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/socket.h"
#include "serve/plan_service.h"
#include "trace/trace.h"

namespace harmony::serve {

/// Where the daemon listens and how the reactor is shaped. Exactly one of
/// `unix_path` / `tcp` is used; a non-empty `unix_path` wins.
struct ServerOptions {
  std::string unix_path;
  int tcp_port = 0;      // 0 = pick a free loopback port (see bound_port())
  bool use_tcp = false;
  /// Maximum accepted frame payload (a corrupt peer can't balloon memory).
  size_t max_frame_bytes = 64ull << 20;
  /// Maximum live connections across all loops. Beyond it the acceptor
  /// answers with an error frame and closes — explicit refusal, not a hang.
  int max_connections = 256;
  /// Event-loop threads. One loop drives thousands of connections; more
  /// loops only help when frame parsing itself saturates a core.
  int loop_threads = 1;
  /// Idle-connection timeout: a connection with no inbound bytes, no frames
  /// in flight and nothing buffered to write for this long is reaped.
  /// 0 disables (embedded/test servers); the daemon defaults it on.
  int idle_timeout_ms = 0;
  /// Partial-frame ("slow loris") deadline: once the first byte of a frame
  /// arrives, the rest must follow within this window or the connection is
  /// reaped. Bounds how long a stalled peer can pin per-connection buffers.
  int frame_deadline_ms = 30000;
  /// Optional observer (borrowed) for reactor lifecycle events
  /// (kServeConnOpen/kServeConnClose/kServeFastPath). Emissions are
  /// serialized; event times are wall-clock seconds since server start.
  trace::TraceBus* bus = nullptr;
  /// Envelope extension hook (the cluster tier's "cache_get" handler plugs
  /// in here). Consulted for envelope types the reactor itself doesn't
  /// know; returns the serialized reply payload, or "" to fall through to
  /// the unknown-type error. Called on loop threads — must be thread-safe
  /// and must not block (extension handlers are lookup-only by contract).
  std::function<std::string(const std::string& type,
                            const json::Value& envelope)>
      extension;
  /// Extra member for the {"type":"stats"} reply: when set, its result is
  /// attached as the "cluster" block next to service/cache/frontend.
  std::function<json::Value()> stats_extension;
};

/// Frontend (reactor) counters, surfaced in the {"type":"stats"} envelope
/// next to the service and cache blocks.
struct FrontendStats {
  int64_t connections_live = 0;
  int64_t connections_accepted = 0;
  int64_t connections_rejected = 0;       // refused at max_connections
  int64_t connections_reaped_idle = 0;    // idle-timeout reaps
  int64_t connections_reaped_deadline = 0;  // partial-frame deadline reaps
  int64_t connections_closed = 0;         // total closed, any reason
  int64_t frames_received = 0;            // complete frames dispatched
  int64_t frames_in_flight = 0;           // submitted, response not delivered
  int64_t epoll_wakeups = 0;              // epoll_wait returns with events
  int64_t bytes_buffered = 0;             // current output backlog, all conns
  int64_t fastpath_hits = 0;              // answered from the byte memo
};

/// The socket front-end of PlanService: an epoll-based reactor speaking the
/// length-prefixed JSON protocol of DESIGN.md §9 on a Unix-domain or
/// loopback TCP listener. Envelopes:
///
///   {"type":"plan","request":{...}}  -> {"type":"plan","response":{...}}
///   {"type":"stats"}                 -> {"type":"stats","service":{...},
///                                        "cache":{...},"frontend":{...}}
///   {"type":"ping"}                  -> {"type":"pong"}
///   {"type":"shutdown"}              -> {"type":"ok"}, then the server stops
///   anything malformed               -> {"type":"error","error":"..."}
///
/// Threading: `loop_threads` event-loop threads own all connections (each
/// connection is pinned to one loop, so its state is single-threaded by
/// construction). Loops do level-triggered non-blocking reads/writes with
/// per-connection frame state machines; complete plan requests are handed to
/// PlanService's worker pool, and responses come back through an eventfd
/// completion queue to the owning loop. Connections may *pipeline*: many
/// frames in flight, responses always delivered in request order. Bounded
/// admission still reaches the client as an explicit ResourceExhausted
/// response, never a stall; a frame whose payload is garbage JSON gets an
/// error frame and the connection stays usable (length-prefix framing is
/// self-synchronizing) — only framing-level violations (an oversized length
/// prefix) close it.
class PlanServer {
 public:
  /// Borrows `service`, which must outlive the server.
  PlanServer(PlanService* service, ServerOptions options);
  ~PlanServer();

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  /// Binds the listener. Call before Start(); fails if the endpoint is taken.
  Status Listen();

  /// Spawns the event-loop threads. Listen() must have succeeded.
  void Start();

  /// Stops the loops (closing every connection), closes the listener, joins
  /// loop threads, and drains the underlying PlanService. Idempotent;
  /// concurrent callers block until the teardown completes. Never call from
  /// a loop thread — Stop() joins them (a {"type":"shutdown"} frame
  /// therefore only *requests* the stop; see Wait()).
  void Stop();

  /// Asks the owner thread to run Stop(): sets the request flag Wait() and
  /// stop_requested() observe. Safe from any thread, including loop threads.
  void RequestStop();

  /// True once a shutdown has been requested (signal loop integration).
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_relaxed);
  }

  /// Blocks until a stop is requested (a {"type":"shutdown"} frame or
  /// RequestStop() from e.g. a signal handler thread), then performs the
  /// Stop() in the calling thread and returns once the server is down.
  void Wait();

  /// The TCP port actually bound (for tcp_port = 0). Valid after Listen().
  int bound_port() const { return bound_port_; }

  /// True once Stop() has fully completed (e.g. a client sent "shutdown").
  bool stopped() const {
    std::lock_guard<std::mutex> lock(stop_mu_);
    return stopped_;
  }

  /// Snapshot of the reactor counters (what the stats envelope reports).
  FrontendStats frontend_stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One live connection, owned by exactly one loop — all mutation happens
  /// on that loop's thread. `gen` disambiguates a recycled fd number: a
  /// completion for a previous tenant of this fd must be dropped, not
  /// delivered to the new connection.
  struct Conn {
    int fd = -1;
    uint64_t gen = 0;
    net::FrameDecoder decoder;
    net::FrameWriter writer;
    uint64_t next_seq = 0;      // sequence assigned to the next inbound frame
    uint64_t next_to_send = 0;  // next sequence the writer may emit
    /// Responses that completed out of request order, parked until the gap
    /// before them closes (the pipelining ordering guarantee).
    std::map<uint64_t, std::string> out_of_order;
    int service_inflight = 0;   // frames submitted, response not delivered
    uint32_t events = 0;        // current epoll interest mask
    bool stop_reading = false;  // shutdown/oversized: drain writes, then close
    bool dead = false;          // closed; reclaimed at end of loop iteration
    bool mid_frame = false;     // decoder holds a partial frame
    Clock::time_point last_activity;
    Clock::time_point frame_start;  // when the current partial frame began
  };

  /// A response marshalled back to the owning loop by a worker thread.
  struct Completion {
    int fd = -1;
    uint64_t gen = 0;
    uint64_t seq = 0;
    std::string payload;   // serialized response envelope
    std::string memo_key;  // non-empty: memoize payload under these bytes
  };

  struct MemoEntry {
    std::string request;  // exact frame bytes (hash collisions degrade to miss)
    std::shared_ptr<const std::string> response;
  };

  /// One event-loop thread: epoll set, wakeup eventfd, completion queue,
  /// connections, and the warm-path byte memo (loop-local: no lock).
  struct Loop {
    int index = 0;
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;
    std::mutex mu;  // guards completions + incoming (the only shared state)
    std::vector<Completion> completions;
    std::vector<int> incoming;  // fds assigned to this loop by the acceptor
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    std::vector<std::unique_ptr<Conn>> dying;  // deferred reclamation
    std::unordered_map<uint64_t, MemoEntry> memo;
    uint64_t next_gen = 1;
  };

  void LoopMain(Loop* loop);
  void HandleAccepts(Loop* loop);
  void AdoptConnection(Loop* loop, int fd);
  void HandleReadable(Loop* loop, Conn* conn);
  /// Dispatches decoded frames while under the pipelining window.
  void ProcessFrames(Loop* loop, Conn* conn);
  void DispatchFrame(Loop* loop, Conn* conn, std::string payload);
  /// Ordered delivery: queues at `seq` or parks it until the gap closes.
  void DeliverResponse(Loop* loop, Conn* conn, uint64_t seq,
                       std::string payload);
  void DeliverError(Loop* loop, Conn* conn, uint64_t seq,
                    const std::string& message);
  void FlushConn(Loop* loop, Conn* conn);
  void UpdateInterest(Loop* loop, Conn* conn);
  void CloseConn(Loop* loop, Conn* conn, const char* reason);
  void DrainCompletions(Loop* loop);
  void DrainIncoming(Loop* loop);
  void ConsumeCompletion(Loop* loop, Completion c);
  void PostCompletion(Loop* loop, Completion c);
  void MemoInsert(Loop* loop, std::string key, std::string payload);
  void ReapTimeouts(Loop* loop);
  std::string BuildStatsPayload();
  void EmitConnEvent(trace::EventKind kind, int loop_index, int fd,
                     const char* detail, int64_t bytes);

  PlanService* service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int bound_port_ = -1;

  std::vector<std::unique_ptr<Loop>> loops_;
  uint64_t accept_rr_ = 0;  // round-robin loop assignment (loop 0 only)

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopping_{false};

  // Frontend counters (FrontendStats). Atomics because loops, workers and
  // stats readers touch them concurrently.
  std::atomic<int64_t> connections_live_{0};
  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> connections_rejected_{0};
  std::atomic<int64_t> connections_reaped_idle_{0};
  std::atomic<int64_t> connections_reaped_deadline_{0};
  std::atomic<int64_t> connections_closed_{0};
  std::atomic<int64_t> frames_received_{0};
  std::atomic<int64_t> frames_in_flight_{0};
  std::atomic<int64_t> epoll_wakeups_{0};
  std::atomic<int64_t> bytes_buffered_{0};
  std::atomic<int64_t> fastpath_hits_{0};

  const Clock::time_point epoch_ = Clock::now();
  std::mutex trace_mu_;  // serializes bus emissions

  mutable std::mutex stop_mu_;
  std::condition_variable stopped_cv_;
  bool stopped_ = false;
};

}  // namespace harmony::serve

#endif  // HARMONY_SERVE_SERVER_H_
