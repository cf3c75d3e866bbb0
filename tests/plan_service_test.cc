// PlanService behaviour tests: cache hits return identical plans, identical
// concurrent requests collapse to one search (single-flight), an over-budget
// admission queue load-sheds explicitly, deadlines trip cooperative
// cancellation, and shutdown drains without dropping a future. The last
// section drives the whole stack end-to-end over a Unix-domain socket.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/plan_service.h"
#include "serve/profiled_model.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace harmony {
namespace {

using serve::ModelSpec;
using serve::PlanRequest;
using serve::PlanResponse;
using serve::PlanService;
using serve::ServeOptions;

/// A request small enough that its cold search takes milliseconds: the tests
/// below exercise the service machinery, not Algorithm 1.
PlanRequest TinyRequest(int minibatch = 4) {
  PlanRequest request;
  request.model.kind = ModelSpec::Kind::kTransformer;
  request.model.name = "tiny";
  request.model.transformer.name = "tiny";
  request.model.transformer.num_blocks = 4;
  request.model.transformer.hidden = 256;
  request.model.transformer.seq_len = 64;
  request.model.transformer.heads = 4;
  request.model.transformer.vocab = 512;
  request.minibatch = minibatch;
  request.options.u_fwd_max = 4;
  request.options.u_bwd_max = 4;
  return request;
}

std::string ConfigBytes(const PlanResponse& response) {
  return serve::ConfigurationToJson(response.config).Dump();
}

TEST(PlanService, CacheHitReturnsIdenticalPlan) {
  PlanService service(ServeOptions{});
  const PlanResponse cold = service.Plan(TinyRequest());
  ASSERT_TRUE(cold.status.ok()) << cold.status;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.configs_explored, 0);

  const PlanResponse warm = service.Plan(TinyRequest());
  ASSERT_TRUE(warm.status.ok()) << warm.status;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_EQ(ConfigBytes(warm), ConfigBytes(cold));

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.searches, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(PlanService, BypassCacheForcesAFreshSearch) {
  PlanService service(ServeOptions{});
  ASSERT_TRUE(service.Plan(TinyRequest()).status.ok());
  PlanRequest bypass = TinyRequest();
  bypass.bypass_cache = true;
  const PlanResponse r = service.Plan(bypass);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(service.stats().searches, 2u);
}

TEST(PlanService, StampedeCollapsesToOneSearch) {
  ServeOptions options;
  options.num_workers = 4;
  options.stall_for_test = 0.05;  // hold the search so submits overlap it
  PlanService service(options);

  constexpr int kCallers = 8;
  std::vector<std::shared_future<PlanResponse>> futures;
  futures.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    futures.push_back(service.Submit(TinyRequest()));
  }
  std::string first;
  for (auto& f : futures) {
    const PlanResponse r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status;
    if (first.empty()) first = ConfigBytes(r);
    EXPECT_EQ(ConfigBytes(r), first);
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.searches, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<uint64_t>(kCallers - 1));
}

TEST(PlanService, OverBudgetQueueRejectsExplicitly) {
  ServeOptions options;
  options.num_workers = 1;
  options.max_pending = 1;
  options.retry_after_ms = 75;
  options.stall_for_test = 0.2;
  PlanService service(options);

  // First request occupies the whole admission budget...
  auto admitted = service.Submit(TinyRequest(4));
  // ...so a *different* request (distinct fingerprint — identical ones would
  // coalesce) must be rejected immediately, not queued or hung.
  const PlanResponse rejected = service.Plan(TinyRequest(8));
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected.retry_after_ms, 75);
  EXPECT_LT(rejected.latency_seconds, 0.1);  // rejected without waiting

  const PlanResponse first = admitted.get();
  EXPECT_TRUE(first.status.ok()) << first.status;
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.admitted, 1u);
}

TEST(PlanService, DeadlineExpiredBeforeSearchStarts) {
  ServeOptions options;
  options.num_workers = 1;
  options.stall_for_test = 0.15;  // longer than the deadline below
  PlanService service(options);

  PlanRequest request = TinyRequest();
  request.deadline_ms = 20;
  const PlanResponse r = service.Plan(request);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.searches, 0u);  // never started a doomed search
}

TEST(PlanService, DoesNotCoalesceOntoShorterDeadlineInflight) {
  ServeOptions options;
  options.num_workers = 2;
  options.stall_for_test = 0.15;  // holds the first search past its deadline
  PlanService service(options);

  PlanRequest doomed = TinyRequest();
  doomed.deadline_ms = 20;
  auto first = service.Submit(doomed);
  // Identical content but no deadline: attaching to the doomed in-flight
  // would hand this caller the other request's DeadlineExceeded. It must be
  // admitted as its own search instead.
  auto second = service.Submit(TinyRequest());

  EXPECT_EQ(first.get().status.code(), StatusCode::kDeadlineExceeded);
  const PlanResponse ok = second.get();
  EXPECT_TRUE(ok.status.ok()) << ok.status;
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.admitted, 2u);
}

TEST(PlanService, ShutdownDrainsEveryAdmittedRequest) {
  ServeOptions options;
  options.num_workers = 2;
  options.stall_for_test = 0.05;
  PlanService service(options);

  std::vector<std::shared_future<PlanResponse>> futures;
  for (int mb = 1; mb <= 4; ++mb) {
    futures.push_back(service.Submit(TinyRequest(mb)));
  }
  service.Shutdown(/*cancel_inflight=*/false);
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().status.ok()) << f.get().status;
  }
  // The service no longer admits.
  const PlanResponse refused = service.Plan(TinyRequest(9));
  EXPECT_EQ(refused.status.code(), StatusCode::kUnavailable);
}

TEST(PlanService, ShutdownWithCancelTripsQueuedRequests) {
  ServeOptions options;
  options.num_workers = 1;  // serialize, so later submits sit in the queue
  options.stall_for_test = 0.1;
  PlanService service(options);

  std::vector<std::shared_future<PlanResponse>> futures;
  for (int mb = 1; mb <= 3; ++mb) {
    futures.push_back(service.Submit(TinyRequest(mb)));
  }
  service.Shutdown(/*cancel_inflight=*/true);
  int ok = 0, cancelled = 0;
  for (auto& f : futures) {
    const PlanResponse r = f.get();  // every future is satisfied regardless
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << r.status;
      ++cancelled;
    }
  }
  EXPECT_EQ(ok + cancelled, 3);
  EXPECT_GE(cancelled, 1);  // at least the queued tail was cancelled
}

TEST(PlanService, CacheOnAndOffProduceIdenticalPlans) {
  ServeOptions cached;
  ServeOptions uncached;
  uncached.cache_bytes = 0;
  PlanService with_cache(cached);
  PlanService without_cache(uncached);

  const PlanResponse a = with_cache.Plan(TinyRequest());
  const PlanResponse b = without_cache.Plan(TinyRequest());
  const PlanResponse b2 = without_cache.Plan(TinyRequest());
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_FALSE(b2.cache_hit);  // no cache to hit
  EXPECT_EQ(ConfigBytes(a), ConfigBytes(b));
  EXPECT_EQ(ConfigBytes(b), ConfigBytes(b2));
  EXPECT_EQ(without_cache.stats().searches, 2u);
}

// A warm hit carries the reply frame encoded when its plan entered the
// cache; spliced with the hit's latency it is the reference encoding, and
// the in-process fields stay filled for callers that read them.
TEST(PlanService, HitReplyFrameMatchesReferenceEncoding) {
  PlanService service(ServeOptions{});
  for (bool run_iteration : {false, true}) {
    PlanRequest request = TinyRequest();
    request.run_iteration = run_iteration;
    const PlanResponse cold = service.Plan(request);
    ASSERT_TRUE(cold.status.ok()) << cold.status;
    EXPECT_EQ(cold.hit_reply, nullptr);
    const PlanResponse warm = service.Plan(request);
    ASSERT_TRUE(warm.cache_hit);
    ASSERT_NE(warm.hit_reply, nullptr);
    EXPECT_EQ(warm.has_metrics, run_iteration);
    EXPECT_EQ(ConfigBytes(warm), ConfigBytes(cold));

    json::Value reference = json::Value::Object();
    reference.Set("type", "plan");
    reference.Set("response", serve::PlanResponseToJson(warm));
    EXPECT_EQ(serve::PlanReplyFrame(warm), reference.Dump());
  }
}

// A GPU whose usable memory rounds to zero bytes decodes fine (capacity 1 is
// positive) but leaves the packer nothing to pack into. The request must
// fail with a Status, and the service must go on answering.
TEST(PlanService, SubByteGpuCapacityIsRejectedNotFatal) {
  PlanService service(ServeOptions{});
  PlanRequest tiny_gpu = TinyRequest();
  tiny_gpu.machine.gpu.memory_capacity = 1;
  const auto decoded =
      serve::PlanRequestFromJson(serve::PlanRequestToJson(tiny_gpu));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const PlanResponse rejected = service.Plan(decoded.value());
  EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument)
      << rejected.status;

  const PlanResponse ok = service.Plan(TinyRequest());
  EXPECT_TRUE(ok.status.ok()) << ok.status;
}

// A request with every model dimension at its bound decodes, and planning
// it answers with a plan or a Status: no overflow, no abort (CI runs this
// file in the Debug + UBSan tree too).
TEST(PlanService, ModelsAtTheirBoundsAnswerWithAPlanOrAStatus) {
  PlanService service(ServeOptions{});
  PlanRequest transformer = TinyRequest();
  transformer.model.name = transformer.model.transformer.name = "bounds";
  model::TransformerConfig& t = transformer.model.transformer;
  t.num_blocks = serve::kMaxModelBlocks;
  t.hidden = serve::kMaxModelHidden;
  t.seq_len = serve::kMaxModelSeqLen;
  t.heads = serve::kMaxModelHeads;
  t.vocab = serve::kMaxModelVocab;
  PlanRequest deep = TinyRequest();
  deep.model.name = deep.model.transformer.name = "deep";
  deep.model.transformer.num_blocks = serve::kMaxModelBlocks;
  PlanRequest gpt2 = TinyRequest();
  gpt2.model = ModelSpec::FromName("GPT2-10000B").value();
  for (const PlanRequest& request : {transformer, deep, gpt2}) {
    const auto decoded = serve::DecodeBytes<PlanRequest>(
        serve::PlanRequestToJson(request).Dump());
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    const PlanResponse response = service.Plan(decoded.value());
    std::printf("%s: %s\n", request.model.name.c_str(),
                response.status.ToString().c_str());
    if (response.status.ok()) {
      EXPECT_GT(response.estimate.iteration_time, 0);
    }
  }
  EXPECT_TRUE(service.Plan(TinyRequest()).status.ok());
}

// ---------------------------------------------------------------------------
// End-to-end over a Unix-domain socket
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// The profile memo behind the service (and behind adaptive runs)
// ---------------------------------------------------------------------------

void ExpectSameProfiles(const profile::ProfileDb& a,
                        const profile::ProfileDb& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  EXPECT_EQ(a.model_name(), b.model_name());
  for (int l = 0; l < a.num_layers(); ++l) {
    SCOPED_TRACE("layer " + std::to_string(l));
    const profile::LayerProfile& x = a.layer(l);
    const profile::LayerProfile& y = b.layer(l);
    EXPECT_EQ(x.fwd_time.slope(), y.fwd_time.slope());
    EXPECT_EQ(x.fwd_time.intercept(), y.fwd_time.intercept());
    EXPECT_EQ(x.fwd_time.r_squared(), y.fwd_time.r_squared());
    EXPECT_EQ(x.bwd_time.slope(), y.bwd_time.slope());
    EXPECT_EQ(x.bwd_time.intercept(), y.bwd_time.intercept());
    EXPECT_EQ(x.bwd_time.r_squared(), y.bwd_time.r_squared());
    EXPECT_EQ(x.param_bytes, y.param_bytes);
    EXPECT_EQ(x.input_bytes_per_sample, y.input_bytes_per_sample);
    EXPECT_EQ(x.output_bytes_per_sample, y.output_bytes_per_sample);
    EXPECT_EQ(x.stash_bytes_per_sample, y.stash_bytes_per_sample);
    EXPECT_EQ(x.workspace_bytes, y.workspace_bytes);
    EXPECT_EQ(x.gpu_update_time, y.gpu_update_time);
  }
}

TEST(ProfileMemo, KeysByEveryByteOfTheGpuSpec) {
  serve::ProfileMemo memo;
  const ModelSpec spec = TinyRequest().model;
  const hw::GpuSpec gpu = hw::MachineSpec::Commodity4Gpu().gpu;
  hw::GpuSpec fraction = gpu;
  fraction.usable_fraction = 0.5;
  hw::GpuSpec renamed = gpu;
  renamed.name += "-shrunk";
  hw::GpuSpec capacity = gpu;
  capacity.memory_capacity -= MiB(1);

  std::vector<const serve::ProfiledModel*> entries;
  for (const hw::GpuSpec& g : {gpu, fraction, renamed, capacity}) {
    const auto resolved = memo.Resolve(spec, g);
    ASSERT_TRUE(resolved.ok()) << resolved.status();
    for (const serve::ProfiledModel* other : entries) {
      EXPECT_NE(resolved.value().get(), other);
    }
    entries.push_back(resolved.value().get());
  }
  EXPECT_EQ(memo.size(), 4u);

  // Equal keys return the entry already built.
  EXPECT_EQ(memo.Resolve(spec, gpu).value().get(), entries[0]);
  EXPECT_EQ(memo.Resolve(spec, renamed).value().get(), entries[2]);
  EXPECT_EQ(memo.size(), 4u);
}

TEST(ProfileMemo, ResolvedProfileEqualsAFreshProfilerRun) {
  serve::ProfileMemo memo;
  const ModelSpec spec = TinyRequest().model;
  const hw::GpuSpec gpu = hw::MachineSpec::Commodity4Gpu().gpu;
  const auto resolved = memo.Resolve(spec, gpu);
  ASSERT_TRUE(resolved.ok()) << resolved.status();

  const model::SequentialModel fresh_model =
      model::Sequentialize(serve::BuildModel(spec).value());
  const profile::ProfileDb fresh =
      profile::Profiler(gpu, {}).Profile(fresh_model);
  EXPECT_EQ(resolved.value()->model.num_layers(), fresh_model.num_layers());
  EXPECT_EQ(resolved.value()->optimizer, serve::DefaultOptimizer(spec));
  ExpectSameProfiles(resolved.value()->profiles, fresh);
}

TEST(ProfileMemo, EvictsTheOldestPastItsCapacity) {
  serve::ProfileMemo memo;
  const ModelSpec spec = TinyRequest().model;
  const hw::GpuSpec gpu = hw::MachineSpec::Commodity4Gpu().gpu;
  const auto first = memo.Resolve(spec, gpu);
  ASSERT_TRUE(first.ok()) << first.status();
  const std::shared_ptr<const serve::ProfiledModel> held = first.value();

  // One distinct GPU more than the memo keeps: the first entry is evicted.
  for (size_t i = 1; i <= serve::ProfileMemo::kCapacity; ++i) {
    hw::GpuSpec g = gpu;
    g.memory_capacity += static_cast<Bytes>(i);
    ASSERT_TRUE(memo.Resolve(spec, g).ok());
    ASSERT_LE(memo.size(), serve::ProfileMemo::kCapacity);
  }
  EXPECT_EQ(memo.size(), serve::ProfileMemo::kCapacity);

  // Resolving the evicted key profiles afresh; the pointer handed out before
  // the eviction still reads the same profile.
  const auto again = memo.Resolve(spec, gpu);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_NE(again.value().get(), held.get());
  EXPECT_EQ(memo.size(), serve::ProfileMemo::kCapacity);
  ExpectSameProfiles(held->profiles, again.value()->profiles);
}

TEST(ServeE2e, PlanPingStatsShutdownOverUnixSocket) {
  const std::string socket_path =
      "/tmp/harmony_serve_test_" + std::to_string(::getpid()) + ".sock";
  ServeOptions service_options;
  service_options.num_workers = 2;
  PlanService service(service_options);
  serve::ServerOptions server_options;
  server_options.unix_path = socket_path;
  serve::PlanServer server(&service, server_options);
  ASSERT_TRUE(server.Listen().ok());
  server.Start();

  serve::ServeClient client;
  ASSERT_TRUE(client.ConnectUnix(socket_path).ok());
  EXPECT_TRUE(client.Ping().ok());

  const auto cold = client.Plan(TinyRequest());
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_TRUE(cold.value().status.ok()) << cold.value().status;
  EXPECT_FALSE(cold.value().cache_hit);

  const auto warm = client.Plan(TinyRequest());
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm.value().cache_hit);
  EXPECT_EQ(ConfigBytes(warm.value()), ConfigBytes(cold.value()));

  const auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const json::Value* svc = stats.value().Find("service");
  ASSERT_NE(svc, nullptr);
  int64_t completed = 0;
  EXPECT_TRUE(json::ReadInt64(*svc, "completed", &completed).ok());
  EXPECT_GE(completed, 2);

  // Concurrent clients on their own connections all get served.
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&socket_path]() {
      serve::ServeClient c;
      ASSERT_TRUE(c.ConnectUnix(socket_path).ok());
      const auto r = c.Plan(TinyRequest());
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(r.value().status.ok());
      EXPECT_TRUE(r.value().cache_hit);
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_TRUE(client.Shutdown().ok());
  server.Wait();  // the daemon drains and stops
  EXPECT_TRUE(server.stopped());

  // The endpoint is gone: a fresh connect must fail cleanly.
  serve::ServeClient late;
  EXPECT_FALSE(late.ConnectUnix(socket_path).ok());
  ::unlink(socket_path.c_str());
}

// ---------------------------------------------------------------------------
// Client-side self-healing (PlanWithRetry)
// ---------------------------------------------------------------------------

TEST(ServeE2e, RetryRidesOutLoadShedButNeverPastTheDeadline) {
  const std::string socket_path =
      "/tmp/harmony_retry_test_" + std::to_string(::getpid()) + ".sock";
  ServeOptions service_options;
  service_options.num_workers = 1;
  service_options.max_pending = 1;
  service_options.retry_after_ms = 20;
  service_options.stall_for_test = 0.3;  // holds the admission budget
  PlanService service(service_options);
  serve::ServerOptions server_options;
  server_options.unix_path = socket_path;
  serve::PlanServer server(&service, server_options);
  ASSERT_TRUE(server.Listen().ok());
  server.Start();

  // Occupy the whole admission budget in-process, so socket clients are
  // load-shed until the stalled search drains.
  auto inflight = service.Submit(TinyRequest(4));

  // A deadline-bound client must surface the rejection once no retry fits
  // before its deadline — never sleep past it, never hang.
  {
    serve::ServeClient client;
    ASSERT_TRUE(client.ConnectUnix(socket_path).ok());
    serve::ServeClient::RetryOptions retry;
    retry.max_retries = 20;
    retry.seed = 7;
    PlanRequest bounded = TinyRequest(8);
    bounded.deadline_ms = 40;
    const auto start = std::chrono::steady_clock::now();
    const auto shed = client.PlanWithRetry(bounded, retry);
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    ASSERT_TRUE(shed.ok()) << shed.status();
    EXPECT_EQ(shed.value().status.code(), StatusCode::kResourceExhausted)
        << shed.value().status;
    EXPECT_LT(waited, 0.25);  // gave up before the budget drained, by deadline
  }

  // An unbounded client rides the shed out: backs off (honoring the server's
  // retry-after floor) and lands once the worker frees up.
  serve::ServeClient client;
  ASSERT_TRUE(client.ConnectUnix(socket_path).ok());
  serve::ServeClient::RetryOptions retry;
  retry.max_retries = 20;
  retry.seed = 0x72657472;  // fixed: deterministic backoff schedule
  const auto response = client.PlanWithRetry(TinyRequest(8), retry);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response.value().status.ok()) << response.value().status;
  EXPECT_GE(client.retries(), 1);

  EXPECT_TRUE(inflight.get().status.ok());
  EXPECT_TRUE(client.Shutdown().ok());
  server.Wait();
  ::unlink(socket_path.c_str());
}

TEST(ServeE2e, RetryReconnectsAfterPeerClose) {
  const std::string socket_path =
      "/tmp/harmony_reconnect_test_" + std::to_string(::getpid()) + ".sock";
  // A fake daemon accepts one connection and slams it shut — what a
  // restarting (or LIFO-shedding) server looks like from the client side.
  auto listener = net::ListenUnix(socket_path);
  ASSERT_TRUE(listener.ok()) << listener.status();
  serve::ServeClient client;
  ASSERT_TRUE(client.ConnectUnix(socket_path).ok());
  auto conn = net::Accept(listener.value());
  ASSERT_TRUE(conn.ok()) << conn.status();
  net::CloseFd(conn.value());
  net::CloseFd(listener.value());
  ::unlink(socket_path.c_str());

  // The real daemon takes over the same endpoint.
  PlanService service{ServeOptions{}};
  serve::ServerOptions server_options;
  server_options.unix_path = socket_path;
  serve::PlanServer server(&service, server_options);
  ASSERT_TRUE(server.Listen().ok());
  server.Start();

  // The client's first attempt hits the closed peer; with retries armed it
  // re-dials the saved endpoint and completes against the new daemon.
  serve::ServeClient::RetryOptions retry;
  retry.max_retries = 3;
  retry.seed = 1;
  const auto response = client.PlanWithRetry(TinyRequest(), retry);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response.value().status.ok()) << response.value().status;
  EXPECT_GE(client.retries(), 1);

  EXPECT_TRUE(client.Shutdown().ok());
  server.Wait();
  ::unlink(socket_path.c_str());
}

}  // namespace
}  // namespace harmony
