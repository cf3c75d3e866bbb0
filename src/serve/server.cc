#include "serve/server.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "serve/wire.h"

namespace harmony::serve {

namespace {

// The loop currently running on this thread. A PlanService completion
// callback fired inline (cache hit, load shed) compares against it to skip
// the eventfd round-trip and deliver the response directly.
thread_local void* g_current_loop = nullptr;

// Per-connection pipelining window: frames admitted but not yet answered.
// At the cap the loop stops reading that connection (EPOLLIN off) until
// responses drain — flow control, not an error.
constexpr int kMaxPipelineFrames = 128;

// Warm-path byte memo capacity per loop: exact request-frame bytes -> exact
// response-frame bytes, filled only from plan-cache hits. A memo hit skips
// JSON parsing entirely, which is what lets one pipelined connection push
// past the thread-per-connection throughput plateau.
constexpr size_t kResponseMemoEntries = 1024;

json::Value ServiceStatsToJson(const ServiceStats& s) {
  json::Value v = json::Value::Object();
  v.Set("admitted", static_cast<int64_t>(s.admitted));
  v.Set("coalesced", static_cast<int64_t>(s.coalesced));
  v.Set("cache_hits", static_cast<int64_t>(s.cache_hits));
  v.Set("filled", static_cast<int64_t>(s.filled));
  v.Set("searches", static_cast<int64_t>(s.searches));
  v.Set("completed", static_cast<int64_t>(s.completed));
  v.Set("rejected", static_cast<int64_t>(s.rejected));
  v.Set("deadline_exceeded", static_cast<int64_t>(s.deadline_exceeded));
  return v;
}

json::Value CacheStatsToJson(const CacheStats& s) {
  json::Value v = json::Value::Object();
  v.Set("hits", static_cast<int64_t>(s.hits));
  v.Set("misses", static_cast<int64_t>(s.misses));
  v.Set("insertions", static_cast<int64_t>(s.insertions));
  v.Set("evictions", static_cast<int64_t>(s.evictions));
  v.Set("entries", static_cast<int64_t>(s.entries));
  v.Set("bytes", static_cast<int64_t>(s.bytes));
  return v;
}

json::Value FrontendStatsToJson(const FrontendStats& s) {
  json::Value v = json::Value::Object();
  v.Set("connections_live", s.connections_live);
  v.Set("connections_accepted", s.connections_accepted);
  v.Set("connections_rejected", s.connections_rejected);
  v.Set("connections_reaped_idle", s.connections_reaped_idle);
  v.Set("connections_reaped_deadline", s.connections_reaped_deadline);
  v.Set("connections_closed", s.connections_closed);
  v.Set("frames_received", s.frames_received);
  v.Set("frames_in_flight", s.frames_in_flight);
  v.Set("epoll_wakeups", s.epoll_wakeups);
  v.Set("bytes_buffered", s.bytes_buffered);
  v.Set("fastpath_hits", s.fastpath_hits);
  return v;
}

std::string ErrorPayload(const std::string& message) {
  json::Value v = json::Value::Object();
  v.Set("type", "error");
  v.Set("error", message);
  return v.Dump();
}

}  // namespace

PlanServer::PlanServer(PlanService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  if (options_.loop_threads < 1) options_.loop_threads = 1;
}

PlanServer::~PlanServer() { Stop(); }

Status PlanServer::Listen() {
  if (!options_.unix_path.empty()) {
    auto fd = net::ListenUnix(options_.unix_path);
    HARMONY_RETURN_IF_ERROR(fd.status());
    listen_fd_ = fd.value();
  } else if (options_.use_tcp) {
    auto fd = net::ListenTcp(options_.tcp_port);
    HARMONY_RETURN_IF_ERROR(fd.status());
    listen_fd_ = fd.value();
    auto port = net::BoundPort(listen_fd_);
    HARMONY_RETURN_IF_ERROR(port.status());
    bound_port_ = port.value();
  } else {
    return Status::InvalidArgument(
        "ServerOptions names no endpoint (set unix_path or use_tcp)");
  }
  return net::SetNonBlocking(listen_fd_);
}

void PlanServer::Start() {
  HARMONY_CHECK_GE(listen_fd_, 0) << "Start() before a successful Listen()";
  const int n = options_.loop_threads;
  loops_.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    HARMONY_CHECK_GE(loop->epoll_fd, 0) << "epoll_create1 failed";
    auto efd = net::CreateEventFd();
    HARMONY_CHECK(efd.ok()) << efd.status();
    loop->event_fd = efd.value();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->event_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &ev);
    if (i == 0) {
      // Loop 0 owns the listener: accepted connections are assigned to
      // loops round-robin (self directly, peers via their incoming queue).
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.fd = listen_fd_;
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &lev);
    }
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    raw->thread = std::thread([this, raw]() { LoopMain(raw); });
  }
}

void PlanServer::LoopMain(Loop* loop) {
  g_current_loop = loop;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    // A 100ms tick bounds how stale the idle/partial-frame reaper can run;
    // everything latency-sensitive arrives as an epoll event or an eventfd
    // signal, never waits for the tick.
    const int n = ::epoll_wait(loop->epoll_fd, events, kMaxEvents, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      HARMONY_LOG(Warning) << "epoll_wait failed: errno=" << errno;
      break;
    }
    if (n > 0) epoll_wakeups_.fetch_add(1, std::memory_order_relaxed);
    bool accept_ready = false;
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      const int fd = ev.data.fd;
      if (fd == loop->event_fd) {
        net::DrainEventFd(fd);
        continue;
      }
      if (loop->index == 0 && fd == listen_fd_) {
        // Defer accepts past the connection events: a connection closed in
        // this batch may release its fd number, and adopting a new tenant
        // before the batch ends would let a stale queued event hit it.
        accept_ready = true;
        continue;
      }
      auto it = loop->conns.find(fd);
      if (it == loop->conns.end()) continue;  // closed earlier in this batch
      Conn* conn = it->second.get();
      if ((ev.events & (EPOLLHUP | EPOLLERR)) && !(ev.events & EPOLLIN)) {
        CloseConn(loop, conn, "hangup");
        continue;
      }
      if (ev.events & EPOLLIN) HandleReadable(loop, conn);
      if (!conn->dead && (ev.events & EPOLLOUT)) FlushConn(loop, conn);
    }
    DrainCompletions(loop);
    DrainIncoming(loop);
    if (accept_ready) HandleAccepts(loop);
    ReapTimeouts(loop);
    loop->dying.clear();
  }
  // Teardown: one best-effort flush (an already-queued shutdown "ok" should
  // still reach the client), then close everything this loop owns.
  for (auto& [fd, conn] : loop->conns) {
    (void)conn->writer.Flush(fd);
    bytes_buffered_.fetch_sub(
        static_cast<int64_t>(conn->writer.pending_bytes()),
        std::memory_order_relaxed);
    net::CloseFd(fd);
    connections_live_.fetch_sub(1, std::memory_order_relaxed);
    connections_closed_.fetch_add(1, std::memory_order_relaxed);
    EmitConnEvent(trace::EventKind::kServeConnClose, loop->index, fd,
                  "server-stop", 0);
  }
  loop->conns.clear();
  loop->dying.clear();
  g_current_loop = nullptr;
}

void PlanServer::HandleAccepts(Loop* loop) {
  for (;;) {
    auto accepted = net::AcceptNonBlocking(listen_fd_);
    if (!accepted.ok()) {
      if (accepted.status().code() != StatusCode::kUnavailable &&
          !stopping_.load(std::memory_order_relaxed)) {
        HARMONY_LOG(Warning) << "accept failed: " << accepted.status();
      }
      return;
    }
    const int fd = accepted.value();
    if (options_.use_tcp) net::SetTcpNoDelay(fd);
    if (connections_live_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Explicit refusal, not a hang: the frame is tiny, so a single
      // non-blocking flush into the fresh socket's empty buffer delivers it.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      net::FrameWriter writer;
      writer.QueueFrame(
          ErrorPayload("server at connection capacity, retry later"));
      (void)writer.Flush(fd);
      net::CloseFd(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_live_.fetch_add(1, std::memory_order_relaxed);
    Loop* target = loops_[accept_rr_++ % loops_.size()].get();
    if (target == loop) {
      AdoptConnection(loop, fd);
    } else {
      {
        std::lock_guard<std::mutex> lock(target->mu);
        target->incoming.push_back(fd);
      }
      net::SignalEventFd(target->event_fd);
    }
  }
}

void PlanServer::AdoptConnection(Loop* loop, int fd) {
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->gen = loop->next_gen++;
  conn->decoder = net::FrameDecoder(options_.max_frame_bytes);
  conn->last_activity = Clock::now();
  conn->events = EPOLLIN;
  epoll_event ev{};
  ev.events = conn->events;
  ev.data.fd = fd;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  EmitConnEvent(trace::EventKind::kServeConnOpen, loop->index, fd, "", 0);
  loop->conns.emplace(fd, std::move(conn));
}

void PlanServer::HandleReadable(Loop* loop, Conn* conn) {
  char buf[64 * 1024];
  // Bounded reads per wakeup so one fire-hosing connection can't starve the
  // rest of the loop; level-triggered epoll re-reports the remainder.
  for (int round = 0; round < 16; ++round) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(loop, conn, "read-error");
      return;
    }
    if (n == 0) {
      // Clean EOF. Responses for frames still in flight have nowhere to go;
      // their completions are dropped by the generation check.
      CloseConn(loop, conn, "eof");
      return;
    }
    conn->last_activity = Clock::now();
    const bool was_mid = conn->mid_frame;
    const Status fed = conn->decoder.Feed(buf, static_cast<size_t>(n));
    conn->mid_frame = conn->decoder.mid_frame();
    if (conn->mid_frame && !was_mid) conn->frame_start = conn->last_activity;
    if (!fed.ok()) {
      // Oversized length prefix: the stream can no longer be framed. Answer
      // frames that completed before the poison, then an error frame, then
      // close once everything queued has flushed.
      ProcessFrames(loop, conn);
      if (conn->dead) return;
      // stop_reading is set BEFORE delivering, so the flush underneath the
      // delivery sees it and closes the moment the error frame drains.
      conn->stop_reading = true;
      DeliverError(loop, conn, conn->next_seq++,
                   "frame rejected: " + fed.ToString());
      break;
    }
    ProcessFrames(loop, conn);
    if (conn->dead) return;
    if (conn->stop_reading) break;
    if (n < static_cast<ssize_t>(sizeof(buf))) break;  // socket drained
  }
  if (!conn->dead) UpdateInterest(loop, conn);
}

void PlanServer::ProcessFrames(Loop* loop, Conn* conn) {
  while (!conn->dead && !conn->stop_reading && conn->decoder.HasFrame()) {
    if (conn->service_inflight >= kMaxPipelineFrames) break;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    DispatchFrame(loop, conn, conn->decoder.PopFrame());
  }
}

void PlanServer::DispatchFrame(Loop* loop, Conn* conn, std::string payload) {
  const uint64_t seq = conn->next_seq++;

  // Warm fast path: a byte-identical request already answered from the plan
  // cache replays the memoized response without parsing a byte of JSON.
  auto memo_it = loop->memo.find(json::Fnv1a(payload));
  if (memo_it != loop->memo.end() && memo_it->second.request == payload) {
    fastpath_hits_.fetch_add(1, std::memory_order_relaxed);
    EmitConnEvent(trace::EventKind::kServeFastPath, loop->index, conn->fd, "",
                  static_cast<int64_t>(memo_it->second.response->size()));
    DeliverResponse(loop, conn, seq, std::string(*memo_it->second.response));
    return;
  }

  // One validating pass over the bytes finds the type and decodes the
  // request straight into a PlanRequest, with no json::Value.
  auto envelope = ScanEnvelope(payload);
  if (!envelope.ok()) {
    // The framing is intact — only this payload is garbage. Answer with an
    // error frame and keep the connection usable.
    DeliverError(loop, conn, seq, "bad frame: " + envelope.status().ToString());
    return;
  }
  if (!envelope.value().has_type) {
    DeliverError(loop, conn, seq, "envelope missing \"type\"");
    return;
  }
  const std::string& type = envelope.value().type;

  if (type == "ping") {
    json::Value reply = json::Value::Object();
    reply.Set("type", "pong");
    DeliverResponse(loop, conn, seq, reply.Dump());
    return;
  }

  if (type == "stats") {
    DeliverResponse(loop, conn, seq, BuildStatsPayload());
    return;
  }

  if (type == "shutdown") {
    json::Value reply = json::Value::Object();
    reply.Set("type", "ok");
    // Stop() joins the loop threads — including this one — so the teardown
    // must run in the owner thread (Wait() observes the request). The "ok"
    // still honors pipelining order: it flushes after every response ahead
    // of it, then the connection closes (stop_reading is set before the
    // delivery so the flush underneath it performs the close).
    conn->stop_reading = true;
    DeliverResponse(loop, conn, seq, reply.Dump());
    RequestStop();
    return;
  }

  if (type == "plan") {
    if (!envelope.value().has_request) {
      DeliverError(loop, conn, seq, "plan envelope missing \"request\"");
      return;
    }
    if (!envelope.value().request_status.ok()) {
      DeliverError(loop, conn, seq,
                   "bad plan request: " +
                       envelope.value().request_status.ToString());
      return;
    }
    conn->service_inflight++;
    frames_in_flight_.fetch_add(1, std::memory_order_relaxed);
    const int conn_fd = conn->fd;
    const uint64_t conn_gen = conn->gen;
    // Load-shed / cache-hit outcomes run this callback inline on the loop
    // thread; searches run it on a PlanService worker, which serializes the
    // envelope off-loop and posts the bytes through the completion queue.
    service_->SubmitAsync(
        envelope.value().request,
        [this, loop, conn_fd, conn_gen, seq,
         request_bytes = std::move(payload)](PlanResponse response) mutable {
          Completion c;
          c.fd = conn_fd;
          c.gen = conn_gen;
          c.seq = seq;
          c.payload = PlanReplyFrame(response);
          // Only plan-cache hits are memoized: the cached bytes must carry
          // cache_hit=true, exactly what a real service round-trip would say.
          if (response.status.ok() && response.cache_hit) {
            c.memo_key = std::move(request_bytes);
          }
          if (g_current_loop == loop) {
            ConsumeCompletion(loop, std::move(c));
          } else {
            PostCompletion(loop, std::move(c));
          }
        });
    return;
  }

  // Extension envelopes (the cluster tier's "cache_get"): lookup-only
  // handlers answer inline on the loop thread; an empty reply means the
  // type is unknown to the extension too.
  if (options_.extension) {
    // Extensions take the envelope as a json::Value.
    auto parsed = json::Parse(payload);
    if (!parsed.ok()) {
      DeliverError(loop, conn, seq, "bad frame: " + parsed.status().ToString());
      return;
    }
    std::string reply = options_.extension(type, parsed.value());
    if (!reply.empty()) {
      DeliverResponse(loop, conn, seq, std::move(reply));
      return;
    }
  }

  DeliverError(loop, conn, seq, "unknown envelope type \"" + type + "\"");
}

void PlanServer::DeliverError(Loop* loop, Conn* conn, uint64_t seq,
                              const std::string& message) {
  DeliverResponse(loop, conn, seq, ErrorPayload(message));
}

void PlanServer::DeliverResponse(Loop* loop, Conn* conn, uint64_t seq,
                                 std::string payload) {
  if (conn->dead) return;
  if (seq != conn->next_to_send) {
    // Completed out of request order; park until the gap before it closes.
    conn->out_of_order.emplace(seq, std::move(payload));
    return;
  }
  bytes_buffered_.fetch_add(static_cast<int64_t>(payload.size()) + 4,
                            std::memory_order_relaxed);
  conn->writer.QueueFrame(payload);
  ++conn->next_to_send;
  for (auto it = conn->out_of_order.find(conn->next_to_send);
       it != conn->out_of_order.end();
       it = conn->out_of_order.find(conn->next_to_send)) {
    bytes_buffered_.fetch_add(static_cast<int64_t>(it->second.size()) + 4,
                              std::memory_order_relaxed);
    conn->writer.QueueFrame(it->second);
    conn->out_of_order.erase(it);
    ++conn->next_to_send;
  }
  FlushConn(loop, conn);
}

void PlanServer::FlushConn(Loop* loop, Conn* conn) {
  if (conn->dead) return;
  const size_t before = conn->writer.pending_bytes();
  const Status st = conn->writer.Flush(conn->fd);
  bytes_buffered_.fetch_sub(
      static_cast<int64_t>(before - conn->writer.pending_bytes()),
      std::memory_order_relaxed);
  if (!st.ok()) {
    CloseConn(loop, conn, "peer-closed");
    return;
  }
  if (conn->stop_reading && conn->service_inflight == 0 &&
      conn->out_of_order.empty() && conn->writer.pending_bytes() == 0) {
    CloseConn(loop, conn, "closed-after-flush");
    return;
  }
  UpdateInterest(loop, conn);
}

void PlanServer::UpdateInterest(Loop* loop, Conn* conn) {
  uint32_t want = 0;
  // EPOLLIN comes off while the pipelining window is full (level-triggered
  // epoll would otherwise spin on the unread bytes) and once the connection
  // is draining toward close.
  if (!conn->stop_reading &&
      conn->service_inflight < kMaxPipelineFrames) {
    want |= EPOLLIN;
  }
  if (conn->writer.pending_bytes() > 0) want |= EPOLLOUT;
  if (want == conn->events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn->fd;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->events = want;
}

void PlanServer::CloseConn(Loop* loop, Conn* conn, const char* reason) {
  if (conn->dead) return;
  conn->dead = true;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  bytes_buffered_.fetch_sub(static_cast<int64_t>(conn->writer.pending_bytes()),
                            std::memory_order_relaxed);
  net::CloseFd(conn->fd);
  connections_live_.fetch_sub(1, std::memory_order_relaxed);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  EmitConnEvent(trace::EventKind::kServeConnClose, loop->index, conn->fd,
                reason, 0);
  // The Conn object must survive until the current loop iteration finishes
  // (callers up the stack still hold the pointer); park it in the graveyard.
  auto node = loop->conns.extract(conn->fd);
  if (!node.empty()) loop->dying.push_back(std::move(node.mapped()));
}

void PlanServer::DrainCompletions(Loop* loop) {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(loop->mu);
    batch.swap(loop->completions);
  }
  for (auto& c : batch) ConsumeCompletion(loop, std::move(c));
}

void PlanServer::DrainIncoming(Loop* loop) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(loop->mu);
    fds.swap(loop->incoming);
  }
  for (int fd : fds) AdoptConnection(loop, fd);
}

void PlanServer::ConsumeCompletion(Loop* loop, Completion c) {
  frames_in_flight_.fetch_sub(1, std::memory_order_relaxed);
  if (!c.memo_key.empty()) {
    MemoInsert(loop, std::move(c.memo_key), c.payload);
  }
  auto it = loop->conns.find(c.fd);
  if (it == loop->conns.end() || it->second->gen != c.gen ||
      it->second->dead) {
    return;  // the connection died while the request was in flight
  }
  Conn* conn = it->second.get();
  conn->service_inflight--;
  DeliverResponse(loop, conn, c.seq, std::move(c.payload));
  if (conn->dead) return;
  // Draining below the pipelining window may unblock frames the throttle
  // left sitting in the decoder — and re-arms EPOLLIN for the socket.
  ProcessFrames(loop, conn);
  if (!conn->dead) UpdateInterest(loop, conn);
}

void PlanServer::PostCompletion(Loop* loop, Completion c) {
  {
    std::lock_guard<std::mutex> lock(loop->mu);
    loop->completions.push_back(std::move(c));
  }
  net::SignalEventFd(loop->event_fd);
}

void PlanServer::MemoInsert(Loop* loop, std::string key, std::string payload) {
  auto& memo = loop->memo;
  if (memo.size() >= kResponseMemoEntries) {
    // Epoch flush: the memo refills from plan-cache hits within a few
    // round-trips, and wholesale clearing keeps the structure allocation-
    // and scan-free on the hot path.
    memo.clear();
  }
  const uint64_t h = json::Fnv1a(key);
  MemoEntry entry;
  entry.request = std::move(key);
  entry.response = std::make_shared<const std::string>(std::move(payload));
  memo[h] = std::move(entry);
}

void PlanServer::ReapTimeouts(Loop* loop) {
  if (options_.idle_timeout_ms <= 0 && options_.frame_deadline_ms <= 0) return;
  const Clock::time_point now = Clock::now();
  std::vector<Conn*> idle, stalled;
  for (auto& [fd, conn] : loop->conns) {
    const auto since_activity = std::chrono::duration_cast<
        std::chrono::milliseconds>(now - conn->last_activity).count();
    if (options_.frame_deadline_ms > 0 && conn->mid_frame) {
      const auto mid_for = std::chrono::duration_cast<
          std::chrono::milliseconds>(now - conn->frame_start).count();
      if (mid_for > options_.frame_deadline_ms) {
        stalled.push_back(conn.get());
        continue;
      }
    }
    // Idle means *fully* idle: nothing half-read, nothing in flight, nothing
    // waiting to flush. A connection blocked on a long cold search is live.
    if (options_.idle_timeout_ms > 0 && !conn->mid_frame &&
        conn->service_inflight == 0 && conn->writer.pending_bytes() == 0 &&
        since_activity > options_.idle_timeout_ms) {
      idle.push_back(conn.get());
    }
  }
  for (Conn* conn : stalled) {
    connections_reaped_deadline_.fetch_add(1, std::memory_order_relaxed);
    CloseConn(loop, conn, "frame-deadline");
  }
  for (Conn* conn : idle) {
    connections_reaped_idle_.fetch_add(1, std::memory_order_relaxed);
    CloseConn(loop, conn, "idle-timeout");
  }
}

std::string PlanServer::BuildStatsPayload() {
  json::Value reply = json::Value::Object();
  reply.Set("type", "stats");
  reply.Set("service", ServiceStatsToJson(service_->stats()));
  reply.Set("cache", CacheStatsToJson(service_->cache_stats()));
  reply.Set("frontend", FrontendStatsToJson(frontend_stats()));
  if (options_.stats_extension) reply.Set("cluster", options_.stats_extension());
  return reply.Dump();
}

FrontendStats PlanServer::frontend_stats() const {
  FrontendStats s;
  s.connections_live = connections_live_.load(std::memory_order_relaxed);
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.connections_reaped_idle =
      connections_reaped_idle_.load(std::memory_order_relaxed);
  s.connections_reaped_deadline =
      connections_reaped_deadline_.load(std::memory_order_relaxed);
  s.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.frames_in_flight = frames_in_flight_.load(std::memory_order_relaxed);
  s.epoll_wakeups = epoll_wakeups_.load(std::memory_order_relaxed);
  s.bytes_buffered = bytes_buffered_.load(std::memory_order_relaxed);
  s.fastpath_hits = fastpath_hits_.load(std::memory_order_relaxed);
  return s;
}

void PlanServer::EmitConnEvent(trace::EventKind kind, int loop_index, int fd,
                               const char* detail, int64_t bytes) {
  trace::TraceBus* bus = options_.bus;
  if (bus == nullptr || !bus->active()) return;
  trace::Event e;
  e.kind = kind;
  e.lane = trace::Lane::kServe;
  e.device = loop_index;
  e.task = fd;
  e.detail = detail;
  e.bytes = bytes;
  e.time = std::chrono::duration<double>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(trace_mu_);
  bus->Emit(e);
}

void PlanServer::Stop() {
  RequestStop();
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Another caller is stopping; wait for it to finish so Stop() always
    // returns with the server fully down.
    std::unique_lock<std::mutex> lock(stop_mu_);
    stopped_cv_.wait(lock, [this]() { return stopped_; });
    return;
  }
  // Wake every loop; they observe stopping_ and exit, closing their
  // connections on the way out (after a best-effort final flush).
  for (auto& loop : loops_) {
    if (loop->event_fd >= 0) net::SignalEventFd(loop->event_fd);
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  if (listen_fd_ >= 0) {
    net::CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
  // Drain the service with the loops down but their eventfds still open:
  // in-flight completion callbacks post into the (now unread) queues
  // harmlessly instead of racing a closed fd.
  service_->Shutdown(/*cancel_inflight=*/false);
  for (auto& loop : loops_) {
    if (loop->event_fd >= 0) net::CloseFd(loop->event_fd);
    if (loop->epoll_fd >= 0) net::CloseFd(loop->epoll_fd);
    loop->event_fd = -1;
    loop->epoll_fd = -1;
  }
  // Notify while holding the lock: a waiter in Wait()/Stop() may destroy
  // this object as soon as it observes stopped_, so the notify must not
  // still be touching the condition variable afterwards.
  std::lock_guard<std::mutex> lock(stop_mu_);
  stopped_ = true;
  stopped_cv_.notify_all();
}

void PlanServer::RequestStop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  stop_requested_.store(true, std::memory_order_relaxed);
  stopped_cv_.notify_all();
}

void PlanServer::Wait() {
  {
    std::unique_lock<std::mutex> lock(stop_mu_);
    stopped_cv_.wait(lock, [this]() {
      return stopped_ || stop_requested_.load(std::memory_order_relaxed);
    });
  }
  // The shutdown frame only *requests* the stop (a loop thread cannot join
  // itself); the owner thread performs the teardown here.
  Stop();
}

}  // namespace harmony::serve
