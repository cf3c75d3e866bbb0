#ifndef HARMONY_SERVE_CLIENT_H_
#define HARMONY_SERVE_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/backoff.h"
#include "common/json.h"
#include "common/socket.h"
#include "serve/wire.h"

namespace harmony::serve {

/// A client for one PlanServer connection. Speaks the envelope protocol of
/// server.h over the length-prefixed frame transport; used by harmony_client,
/// the serve smoke test, the e2e test and the throughput bench.
///
/// Two usage modes on the same connection:
///  - blocking round trips (Plan/Stats/Ping/Shutdown), one exchange at a
///    time — the original API, unchanged;
///  - pipelining (SendNowait/Collect): many requests in flight at once. The
///    reactor answers in request order, so the k-th Collect() returns the
///    response to the k-th SendNowait() — no correlation ids needed.
///
/// Not thread-safe: one thread drives a connection. Load generators open one
/// ServeClient per client thread — which is exactly how the admission bound
/// is meant to be exercised.
class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient() { Close(); }

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  Status ConnectUnix(const std::string& path);
  Status ConnectTcp(const std::string& host, int port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Sends a plan request and blocks for the response. Transport failures
  /// surface here; planning failures travel inside PlanResponse::status.
  Result<PlanResponse> Plan(const PlanRequest& request);

  /// Self-healing Plan: retries load-shed responses (ResourceExhausted,
  /// honoring the server's retry-after hint as a delay floor) and
  /// peer-closed frames (reconnecting to the saved endpoint first) with the
  /// shared jittered-backoff policy. Never retries past the request's
  /// deadline_ms or the retry budget — the last failure surfaces then.
  struct RetryOptions {
    int max_retries = 5;
    common::BackoffPolicy backoff = common::kPlanRetryBackoff;
    uint64_t seed = 0;  // jitter seed (fix it for deterministic tests)
  };
  Result<PlanResponse> PlanWithRetry(const PlanRequest& request,
                                     const RetryOptions& retry);
  Result<PlanResponse> PlanWithRetry(const PlanRequest& request) {
    return PlanWithRetry(request, RetryOptions());
  }

  /// Retries PlanWithRetry performed on this client (reconnects + backoffs).
  int64_t retries() const { return retries_; }

  // --- pipelined API ------------------------------------------------------

  /// Serializes a {"type":"plan"} envelope once. Feed it back through
  /// SendEncodedNowait to keep JSON encoding off a load generator's hot loop
  /// (the server's warm fast path is byte-addressed, so replaying identical
  /// bytes is also what makes it hit).
  static std::string EncodePlanEnvelope(const PlanRequest& request);

  /// Queues one plan request without waiting for its response. Bounded by
  /// the server's 128-frame pipelining window (kMaxPipelineFrames): keep
  /// fewer frames in flight than that, or the server stops reading
  /// while this side keeps a blocking send — mutual stall by design of the
  /// flow control, so the window contract is the caller's to respect.
  Status SendNowait(const PlanRequest& request);
  Status SendEncodedNowait(const std::string& envelope_bytes);

  /// Blocks for the oldest in-flight response (responses arrive in
  /// SendNowait order). Transport failures surface here; planning failures
  /// travel inside PlanResponse::status.
  Result<PlanResponse> Collect();

  /// Collect without parsing: the raw response envelope bytes. The bench's
  /// hot path — decode selectively, off the clock.
  Result<std::string> CollectRaw();

  /// Requests sent but not yet collected on this connection.
  int in_flight() const { return in_flight_; }

  /// {"type":"stats"} — returns the reply envelope (service/cache/frontend
  /// members).
  Result<json::Value> Stats();

  /// Generic blocking exchange of a pre-encoded envelope whose reply is
  /// expected to carry `expect_type` (the cluster tier's cache_get path
  /// uses this; extension envelope types don't need client methods each).
  /// "error" replies surface as Internal, like every other round trip.
  Result<json::Value> RoundTripEncoded(const std::string& envelope_bytes,
                                       const std::string& expect_type);

  /// {"type":"ping"} — liveness check.
  Status Ping();

  /// Asks the daemon to stop (it drains in-flight requests first).
  Status Shutdown();

  /// Human-readable target address ("unix:/run/h.sock", "tcp:host:port").
  /// Every connect/transport failure this client returns names it, so a
  /// multi-daemon deployment's errors are never ambiguous about which
  /// daemon misbehaved.
  std::string endpoint_description() const;

 private:
  /// Appends the endpoint description to a failed Status's message while
  /// preserving its code — PlanWithRetry and callers branch on codes
  /// (kNotFound = peer closed, kResourceExhausted = shed), so annotation
  /// must never rewrite them.
  Status AnnotateTransport(Status s) const;
  /// Re-dials the endpoint the last Connect* call saved.
  Status Reconnect();

  enum class Endpoint { kNone, kUnix, kTcp };

  int fd_ = -1;
  Endpoint endpoint_ = Endpoint::kNone;
  std::string unix_path_;
  std::string tcp_host_;
  int tcp_port_ = 0;
  int64_t retries_ = 0;
  int in_flight_ = 0;
};

}  // namespace harmony::serve

#endif  // HARMONY_SERVE_CLIENT_H_
