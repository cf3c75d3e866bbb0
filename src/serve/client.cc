#include "serve/client.h"

#include <chrono>
#include <thread>

#include "common/rng.h"

namespace harmony::serve {
namespace {

/// Parses a reply envelope and checks its type: "error" replies surface as
/// Internal with the server's detail, any other mismatch as Internal too.
Result<json::Value> CheckReply(const std::string& frame,
                               const std::string& expect_type) {
  auto reply = json::Parse(frame);
  HARMONY_RETURN_IF_ERROR(reply.status());
  std::string type;
  HARMONY_RETURN_IF_ERROR(json::ReadString(reply.value(), "type", &type));
  if (type == "error") {
    std::string error = "(no detail)";
    (void)json::ReadString(reply.value(), "error", &error);
    return Status::Internal("server error: " + error);
  }
  if (type != expect_type) {
    return Status::Internal("unexpected reply type \"" + type +
                            "\" (wanted \"" + expect_type + "\")");
  }
  return std::move(reply).value();
}

Result<PlanResponse> PlanResponseFromReply(const json::Value& reply) {
  const json::Value* response = reply.Find("response");
  if (response == nullptr) {
    return Status::Internal("plan reply missing \"response\"");
  }
  return PlanResponseFromJson(*response);
}

}  // namespace

Status ServeClient::ConnectUnix(const std::string& path) {
  Close();
  endpoint_ = Endpoint::kUnix;
  unix_path_ = path;
  auto fd = net::ConnectUnix(path);
  HARMONY_RETURN_IF_ERROR(AnnotateTransport(fd.status()));
  fd_ = fd.value();
  return Status::Ok();
}

Status ServeClient::ConnectTcp(const std::string& host, int port) {
  Close();
  endpoint_ = Endpoint::kTcp;
  tcp_host_ = host;
  tcp_port_ = port;
  auto fd = net::ConnectTcp(host, port);
  HARMONY_RETURN_IF_ERROR(AnnotateTransport(fd.status()));
  fd_ = fd.value();
  return Status::Ok();
}

std::string ServeClient::endpoint_description() const {
  switch (endpoint_) {
    case Endpoint::kUnix:
      return "unix:" + unix_path_;
    case Endpoint::kTcp:
      return "tcp:" + tcp_host_ + ":" + std::to_string(tcp_port_);
    case Endpoint::kNone:
      break;
  }
  return "(not connected)";
}

Status ServeClient::AnnotateTransport(Status s) const {
  if (s.ok()) return s;
  return Status(s.code(),
                s.message() + " [endpoint " + endpoint_description() + "]");
}

Status ServeClient::Reconnect() {
  switch (endpoint_) {
    case Endpoint::kUnix:
      return ConnectUnix(std::string(unix_path_));
    case Endpoint::kTcp:
      return ConnectTcp(std::string(tcp_host_), tcp_port_);
    case Endpoint::kNone:
      break;
  }
  return Status::FailedPrecondition("client was never connected");
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    net::CloseFd(fd_);
    fd_ = -1;
  }
  in_flight_ = 0;
}

Result<json::Value> ServeClient::RoundTripEncoded(
    const std::string& envelope_bytes, const std::string& expect_type) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  if (in_flight_ > 0) {
    // A blocking round trip would swallow the oldest pipelined response.
    return Status::FailedPrecondition(
        "Collect() in-flight responses before a blocking round trip");
  }
  HARMONY_RETURN_IF_ERROR(AnnotateTransport(net::SendFrame(fd_, envelope_bytes)));
  auto frame = net::RecvFrame(fd_);
  HARMONY_RETURN_IF_ERROR(AnnotateTransport(frame.status()));
  return CheckReply(frame.value(), expect_type);
}

Result<PlanResponse> ServeClient::Plan(const PlanRequest& request) {
  auto reply = RoundTripEncoded(EncodePlanEnvelope(request), "plan");
  HARMONY_RETURN_IF_ERROR(reply.status());
  return PlanResponseFromReply(reply.value());
}

Result<PlanResponse> ServeClient::PlanWithRetry(const PlanRequest& request,
                                                const RetryOptions& retry) {
  using Clock = std::chrono::steady_clock;
  Rng rng(retry.seed);
  const auto deadline =
      request.deadline_ms > 0
          ? Clock::now() + std::chrono::milliseconds(request.deadline_ms)
          : Clock::time_point::max();
  for (int attempt = 0;; ++attempt) {
    auto result = Plan(request);

    // Decide whether this outcome is retryable, and with what delay floor.
    // Give-up paths return `result` as-is, preserving its shape: a shed
    // response stays an in-band ResourceExhausted, a closed peer stays a
    // transport Status.
    bool reconnect = false;
    double floor_seconds = 0.0;
    if (!result.ok()) {
      if (result.status().code() != StatusCode::kNotFound) {
        return result;  // a real transport/protocol error, not a clean close
      }
      // Peer closed the connection (restart, drain, LIFO shed): re-dial the
      // saved endpoint before the next attempt.
      reconnect = true;
    } else if (result.value().status.code() ==
               StatusCode::kResourceExhausted) {
      // Load-shed by admission control: the server's hint is a delay floor
      // under the shared backoff curve.
      floor_seconds = result.value().retry_after_ms / 1000.0;
    } else {
      return result;  // success, or a non-retryable planning failure
    }

    if (attempt >= retry.max_retries) return result;
    double delay = retry.backoff.DelayFor(attempt, &rng);
    delay = std::max(delay, floor_seconds);
    // Never retry past the request deadline: surface the last failure while
    // the caller still has time to act on it.
    if (Clock::now() + std::chrono::duration<double>(delay) >= deadline) {
      return result;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    ++retries_;
    if (reconnect) {
      Status rc = Reconnect();
      if (!rc.ok()) return rc;
    }
  }
}

std::string ServeClient::EncodePlanEnvelope(const PlanRequest& request) {
  std::string out;
  out.reserve(1024);
  json::Writer w(&out);
  w.BeginObject();
  w.Field("type", "plan");
  w.Key("request");
  WritePlanRequest(request, &w);
  w.EndObject();
  return out;
}

Status ServeClient::SendNowait(const PlanRequest& request) {
  return SendEncodedNowait(EncodePlanEnvelope(request));
}

Status ServeClient::SendEncodedNowait(const std::string& envelope_bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  HARMONY_RETURN_IF_ERROR(AnnotateTransport(net::SendFrame(fd_, envelope_bytes)));
  ++in_flight_;
  return Status::Ok();
}

Result<std::string> ServeClient::CollectRaw() {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  if (in_flight_ <= 0) {
    return Status::FailedPrecondition("no requests in flight to collect");
  }
  auto frame = net::RecvFrame(fd_);
  HARMONY_RETURN_IF_ERROR(AnnotateTransport(frame.status()));
  --in_flight_;
  return std::move(frame).value();
}

Result<PlanResponse> ServeClient::Collect() {
  auto raw = CollectRaw();
  HARMONY_RETURN_IF_ERROR(raw.status());
  auto reply = CheckReply(raw.value(), "plan");
  HARMONY_RETURN_IF_ERROR(reply.status());
  return PlanResponseFromReply(reply.value());
}

Result<json::Value> ServeClient::Stats() {
  return RoundTripEncoded(R"({"type":"stats"})", "stats");
}

Status ServeClient::Ping() {
  return RoundTripEncoded(R"({"type":"ping"})", "pong").status();
}

Status ServeClient::Shutdown() {
  return RoundTripEncoded(R"({"type":"shutdown"})", "ok").status();
}

}  // namespace harmony::serve
