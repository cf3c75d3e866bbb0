// Serving-layer performance baseline: what does fronting Algorithm 1 with
// the content-addressed plan cache buy, and how does the epoll frontend
// change what a connection can push through it?
//
// In-process sections (no socket, isolating the service):
//   * cold plan latency  — every request forced past the cache
//     (bypass_cache), i.e. a full configuration search;
//   * warm hit latency   — the identical request answered from the cache;
//   * closed-loop warm throughput at 1/4/8 client threads (req/s, p50/p99).
//
// Socket sections (a real PlanServer on a Unix socket — the reactor path):
//   * serve_socket_roundtrip_1c    — one connection, one blocking round trip
//     at a time: the pre-reactor per-request floor;
//   * serve_socket_pipelined_{1,2,4,8}c — the same warm request pipelined 64
//     deep per connection. The 1c row must beat the round-trip row by >= 2x
//     (recorded as pipelined_over_roundtrip) — that multiple is what the
//     reactor's batched syscalls and byte-memo fast path exist to buy;
//   * serve_open_loop_p99_gpt2_pp64 — fixed offered load with scheduled
//     arrivals; latency is measured against the *schedule* (coordinated-
//     omission-corrected), and `seconds_per_op` carries the p99 so the
//     baseline gate watches tail latency under load, not just throughput.
//
// Multi-process tier section (DESIGN.md §13, run first — fork before
// threads):
//   * serve_tier_roundtrip_3p / serve_tier_warm_p99_3p — three forked
//     daemon processes form a cache tier; the parent owner-routes warm
//     requests through cluster::TierClient, so every round trip pays real
//     IPC to the owner process. The section asserts the tier contract
//     (exactly one search across all three daemons) and the p99 row gates
//     the cross-process warm tail.
//
// `--json` writes BENCH_serve.json (CWD) in the `benchmark`/`seconds_per_op`
// record format scripts/check_bench.py understands. The cold/warm ratio and
// the bit-identity of the warm config are attached to the warm record — the
// paper's planner is deterministic, so a cache hit must return byte-for-byte
// the plan a fresh search would; the socket sections re-assert the same
// bit-identity through the wire and the frontend memo.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster.h"
#include "common/percentile.h"
#include "serve/client.h"
#include "serve/plan_service.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace {

using Clock = std::chrono::steady_clock;
using harmony::bench::JsonObject;

struct LoadResult {
  double seconds_per_op = 0;
  double requests_per_second = 0;
  double p50 = 0, p99 = 0;
};

/// Closed loop: `threads` callers, each keeping one request in flight,
/// `iters` warm requests per caller.
LoadResult RunClosedLoop(harmony::serve::PlanService* service,
                         const harmony::serve::PlanRequest& request,
                         int threads, int iters) {
  std::mutex mu;
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(threads) * iters);
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&]() {
      for (int i = 0; i < iters; ++i) {
        const auto begin = Clock::now();
        const harmony::serve::PlanResponse r = service->Plan(request);
        const double s =
            std::chrono::duration<double>(Clock::now() - begin).count();
        HARMONY_CHECK(r.status.ok()) << r.status.ToString();
        std::lock_guard<std::mutex> lock(mu);
        latencies.push_back(s);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  std::sort(latencies.begin(), latencies.end());
  LoadResult out;
  const double total = static_cast<double>(latencies.size());
  out.seconds_per_op = wall / total;
  out.requests_per_second = total / wall;
  out.p50 = harmony::NearestRankPercentile(latencies, 0.50);
  out.p99 = harmony::NearestRankPercentile(latencies, 0.99);
  return out;
}

/// One connection, one blocking round trip at a time: every request pays the
/// full encode -> send -> server parse -> reply -> recv -> decode chain.
LoadResult RunSocketRoundTrip(const std::string& path,
                              const harmony::serve::PlanRequest& request,
                              int iters) {
  harmony::serve::ServeClient client;
  HARMONY_CHECK(client.ConnectUnix(path).ok());
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(iters));
  const auto start = Clock::now();
  for (int i = 0; i < iters; ++i) {
    const auto begin = Clock::now();
    auto r = client.Plan(request);
    latencies.push_back(
        std::chrono::duration<double>(Clock::now() - begin).count());
    HARMONY_CHECK(r.ok() && r.value().status.ok());
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::sort(latencies.begin(), latencies.end());
  LoadResult out;
  out.seconds_per_op = wall / iters;
  out.requests_per_second = iters / wall;
  out.p50 = harmony::NearestRankPercentile(latencies, 0.50);
  out.p99 = harmony::NearestRankPercentile(latencies, 0.99);
  return out;
}

/// `conns` connections, each pipelining the same pre-encoded warm request
/// `window` deep (below the server's 128-frame pipelining window, so flow
/// control never stalls the sender). Responses are collected raw — decoding
/// happens off the clock, and the first response per connection is decoded
/// afterwards to assert the wire answer is still a cache hit, bit-identical
/// to `want`.
LoadResult RunSocketPipelined(const std::string& path,
                              const std::string& envelope, int conns,
                              int per_conn, int window,
                              const std::string& want_config) {
  std::mutex mu;
  std::vector<std::string> first_replies;
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (int c = 0; c < conns; ++c) {
    pool.emplace_back([&]() {
      harmony::serve::ServeClient client;
      HARMONY_CHECK(client.ConnectUnix(path).ok());
      std::string first;
      for (int sent = 0, done = 0; done < per_conn;) {
        while (sent < per_conn && client.in_flight() < window) {
          HARMONY_CHECK(client.SendEncodedNowait(envelope).ok());
          ++sent;
        }
        auto raw = client.CollectRaw();
        HARMONY_CHECK(raw.ok()) << raw.status().ToString();
        if (first.empty()) first = std::move(raw).value();
        ++done;
      }
      std::lock_guard<std::mutex> lock(mu);
      first_replies.push_back(std::move(first));
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const std::string& raw : first_replies) {
    auto reply = harmony::json::Parse(raw);
    HARMONY_CHECK(reply.ok());
    const harmony::json::Value* response = reply.value().Find("response");
    HARMONY_CHECK(response != nullptr);
    auto decoded = harmony::serve::PlanResponseFromJson(*response);
    HARMONY_CHECK(decoded.ok() && decoded.value().status.ok());
    HARMONY_CHECK(decoded.value().cache_hit) << "pipelined reply missed";
    const std::string got =
        harmony::serve::ConfigurationToJson(decoded.value().config).Dump();
    HARMONY_CHECK(got == want_config)
        << "wire response diverged from the cold search";
  }
  const double total = static_cast<double>(conns) * per_conn;
  LoadResult out;
  out.seconds_per_op = wall / total;
  out.requests_per_second = total / wall;
  return out;
}

/// Open-loop arrival mode: each connection fires requests on a fixed
/// schedule (one every `interval_s`), and latency is measured from the
/// *scheduled* arrival, not the send — if the server falls behind, the
/// backlog shows up in the tail instead of silently slowing the offered
/// load (coordinated-omission correction). seconds_per_op carries the p99.
LoadResult RunOpenLoop(const std::string& path,
                       const harmony::serve::PlanRequest& request, int conns,
                       int per_conn, double interval_s) {
  std::mutex mu;
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(conns) * per_conn);
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (int c = 0; c < conns; ++c) {
    pool.emplace_back([&]() {
      harmony::serve::ServeClient client;
      HARMONY_CHECK(client.ConnectUnix(path).ok());
      std::vector<double> local;
      local.reserve(static_cast<size_t>(per_conn));
      const auto base = Clock::now();
      for (int i = 0; i < per_conn; ++i) {
        const auto scheduled =
            base + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i * interval_s));
        std::this_thread::sleep_until(scheduled);
        auto r = client.Plan(request);
        HARMONY_CHECK(r.ok() && r.value().status.ok());
        local.push_back(
            std::chrono::duration<double>(Clock::now() - scheduled).count());
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::sort(latencies.begin(), latencies.end());
  LoadResult out;
  out.requests_per_second = static_cast<double>(latencies.size()) / wall;
  out.p50 = harmony::NearestRankPercentile(latencies, 0.50);
  out.p99 = harmony::NearestRankPercentile(latencies, 0.99);
  out.seconds_per_op = out.p99;  // the gated value IS the tail latency
  return out;
}

/// Forks one tier-member daemon (DESIGN.md §13). The child boots a
/// ClusterNode-backed PlanService on its endpoint and serves until a client
/// --shutdown, then exits; it never returns from this function. MUST be
/// called before the parent creates any threads — fork(2) only replicates
/// the calling thread, so a post-thread fork would child a torn service.
pid_t ForkTierDaemon(const std::string& self,
                     const std::vector<std::string>& members) {
  const pid_t pid = ::fork();
  HARMONY_CHECK(pid >= 0) << "fork failed";
  if (pid > 0) return pid;

  harmony::cluster::ClusterOptions copts;
  copts.self = self;
  copts.members = members;
  harmony::cluster::ClusterNode node(copts);
  harmony::serve::ServeOptions sopts;
  sopts.num_workers = 1;
  sopts.fill = &node;
  harmony::serve::PlanService service(sopts);
  node.set_service(&service);
  harmony::serve::ServerOptions server_options;
  server_options.unix_path = self.substr(5);  // strip "unix:"
  server_options.extension = [&node](const std::string& type,
                                     const harmony::json::Value& envelope) {
    return node.HandleEnvelope(type, envelope);
  };
  server_options.stats_extension = [&node]() { return node.StatsJson(); };
  harmony::serve::PlanServer server(&service, server_options);
  HARMONY_CHECK(server.Listen().ok());
  server.Start();
  while (!server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.Stop();
  std::_Exit(0);
}

/// Closed-loop warm round trips through TierClient owner routing: every
/// request crosses a process boundary to the fingerprint's owner daemon.
LoadResult RunTierLoop(harmony::cluster::TierClient* tier,
                       const harmony::serve::PlanRequest& request,
                       int iters) {
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(iters));
  const auto start = Clock::now();
  for (int i = 0; i < iters; ++i) {
    const auto begin = Clock::now();
    auto r = tier->Plan(request);
    latencies.push_back(
        std::chrono::duration<double>(Clock::now() - begin).count());
    HARMONY_CHECK(r.ok() && r.value().status.ok());
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::sort(latencies.begin(), latencies.end());
  LoadResult out;
  out.seconds_per_op = wall / iters;
  out.requests_per_second = iters / wall;
  out.p50 = harmony::NearestRankPercentile(latencies, 0.50);
  out.p99 = harmony::NearestRankPercentile(latencies, 0.99);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace harmony;
  const bool as_json = bench::JsonFlag(argc, argv);
  bench::PrintHeader("Plan-as-a-service: cache & concurrency",
                     "serving layer (DESIGN.md §9)");

  // --- multi-process tier section (DESIGN.md §13) ------------------------
  // Forked FIRST: fork(2) and threads don't mix, and every section below
  // spawns workers. Three daemon processes form a cache tier; the parent
  // owner-routes warm requests through TierClient, so each round trip pays
  // real IPC to the fingerprint's owner process.
  std::vector<std::string> tier_members;
  for (int i = 0; i < 3; ++i) {
    tier_members.push_back("unix:/tmp/harmony_bench_tier_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(i) + ".sock");
  }
  std::vector<pid_t> tier_pids;
  for (const std::string& member : tier_members) {
    tier_pids.push_back(ForkTierDaemon(member, tier_members));
  }
  for (const std::string& member : tier_members) {
    const std::string path = member.substr(5);
    for (int spin = 0; ::access(path.c_str(), F_OK) != 0; ++spin) {
      HARMONY_CHECK(spin < 500) << "tier daemon never bound " << member;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  serve::PlanRequest tier_request;
  tier_request.model = serve::ModelSpec::FromName("GPT2").value();
  tier_request.machine = hw::MachineSpec::Commodity4Gpu();
  tier_request.mode = core::HarmonyMode::kPipelineParallel;
  tier_request.minibatch = 64;

  LoadResult tier;
  {
    cluster::TierClient tier_client(tier_members);
    // Warm: the one search the tier ever runs for this key, on its owner.
    auto primed_tier = tier_client.Plan(tier_request);
    HARMONY_CHECK(primed_tier.ok() && primed_tier.value().status.ok());

    constexpr int kTierIters = 3000;
    tier = RunTierLoop(&tier_client, tier_request, kTierIters);
    std::cout << "tier round-trip, 3 procs: " << tier.requests_per_second
              << " req/s  (p50 " << tier.p50 * 1e6 << " us, p99 "
              << tier.p99 * 1e6 << " us)\n\n";

    // The tier contract held: one search total, owner-side, everything else
    // answered from the owner's cache.
    int64_t tier_searches = 0;
    for (const std::string& member : tier_members) {
      auto stats = tier_client.StatsFrom(member);
      HARMONY_CHECK(stats.ok()) << stats.status();
      const json::Value* service_block = stats.value().Find("service");
      HARMONY_CHECK(service_block != nullptr);
      int64_t searches = 0;
      HARMONY_CHECK(
          json::ReadInt64(*service_block, "searches", &searches).ok());
      tier_searches += searches;
    }
    HARMONY_CHECK(tier_searches == 1)
        << "tier ran " << tier_searches << " searches, wanted 1";
    HARMONY_CHECK(tier_client.ShutdownAll() == 3);
  }
  for (const pid_t pid : tier_pids) {
    int wstatus = 0;
    HARMONY_CHECK(::waitpid(pid, &wstatus, 0) == pid);
    HARMONY_CHECK(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
        << "tier daemon exited dirty";
  }

  serve::ServeOptions options;
  options.num_workers = 4;
  options.max_pending = 64;
  serve::PlanService service(options);

  serve::PlanRequest request;
  request.model = serve::ModelSpec::FromName("GPT2").value();
  request.machine = hw::MachineSpec::Commodity4Gpu();
  request.mode = core::HarmonyMode::kPipelineParallel;
  request.minibatch = 64;

  // Prime the profile memo and the cache: the first request pays profiling,
  // which is amortized state, not per-request work.
  const serve::PlanResponse primed = service.Plan(request);
  HARMONY_CHECK(primed.status.ok()) << primed.status.ToString();
  const std::string cold_config = serve::ConfigurationToJson(primed.config).Dump();

  // Cold: force past the cache so every call is a full search.
  serve::PlanRequest cold = request;
  cold.bypass_cache = true;
  constexpr int kColdReps = 7;
  std::vector<double> cold_samples;
  for (int i = 0; i < kColdReps; ++i) {
    const auto begin = Clock::now();
    const serve::PlanResponse r = service.Plan(cold);
    cold_samples.push_back(
        std::chrono::duration<double>(Clock::now() - begin).count());
    HARMONY_CHECK(r.status.ok()) << r.status.ToString();
  }
  const double cold_s = bench::Median(cold_samples);

  // Warm: identical request, answered from the cache. Time batches — a
  // single hit is sub-microsecond-noisy.
  constexpr int kWarmReps = 5, kWarmBatch = 2000;
  std::vector<double> warm_samples;
  std::string warm_config;
  bool all_hits = true;
  for (int i = 0; i < kWarmReps; ++i) {
    const auto begin = Clock::now();
    for (int j = 0; j < kWarmBatch; ++j) {
      const serve::PlanResponse r = service.Plan(request);
      all_hits = all_hits && r.cache_hit && r.status.ok();
      if (warm_config.empty()) {
        warm_config = serve::ConfigurationToJson(r.config).Dump();
      }
    }
    warm_samples.push_back(
        std::chrono::duration<double>(Clock::now() - begin).count() /
        kWarmBatch);
  }
  const double warm_s = bench::Median(warm_samples);
  HARMONY_CHECK(all_hits) << "warm requests missed the cache";
  const bool bit_identical = warm_config == cold_config;
  const double speedup = warm_s > 0 ? cold_s / warm_s : 0;

  std::cout << "cold plan (full search): " << cold_s * 1e3 << " ms\n"
            << "warm plan (cache hit):   " << warm_s * 1e6 << " us  ("
            << speedup << "x faster, config bit-identical: "
            << (bit_identical ? "yes" : "NO") << ")\n\n";

  std::vector<JsonObject> records;
  records.push_back(JsonObject()
                        .Set("benchmark", "serve_tier_roundtrip_3p")
                        .Set("seconds_per_op", tier.seconds_per_op)
                        .Set("requests_per_second", tier.requests_per_second)
                        .Set("p50_seconds", tier.p50)
                        .Set("p99_seconds", tier.p99));
  // The gated value IS the tier's warm tail latency across processes.
  records.push_back(JsonObject()
                        .Set("benchmark", "serve_tier_warm_p99_3p")
                        .Set("seconds_per_op", tier.p99));
  records.push_back(JsonObject()
                        .Set("benchmark", "serve_cold_plan_gpt2_pp64")
                        .Set("seconds_per_op", cold_s));
  records.push_back(JsonObject()
                        .Set("benchmark", "serve_warm_hit_gpt2_pp64")
                        .Set("seconds_per_op", warm_s)
                        .Set("cold_over_warm", speedup)
                        .Set("config_bit_identical", bit_identical ? 1 : 0));

  for (const int threads : {1, 4, 8}) {
    const int iters = 4000 / threads;
    const LoadResult r = RunClosedLoop(&service, request, threads, iters);
    std::cout << threads << " client thread(s): " << r.requests_per_second
              << " req/s  (p50 " << r.p50 * 1e6 << " us, p99 " << r.p99 * 1e6
              << " us)\n";
    records.push_back(
        JsonObject()
            .Set("benchmark",
                 "serve_warm_throughput_" + std::to_string(threads) + "t")
            .Set("seconds_per_op", r.seconds_per_op)
            .Set("requests_per_second", r.requests_per_second)
            .Set("p50_seconds", r.p50)
            .Set("p99_seconds", r.p99));
  }

  // --- socket sections: the epoll reactor front-end ----------------------
  const std::string sock_path =
      "/tmp/harmony_bench_serve_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions server_options;
  server_options.unix_path = sock_path;
  serve::PlanServer server(&service, server_options);
  HARMONY_CHECK(server.Listen().ok());
  server.Start();

  constexpr int kRoundTripIters = 3000;
  const LoadResult rt = RunSocketRoundTrip(sock_path, request, kRoundTripIters);
  std::cout << "\nsocket round-trip, 1 conn:  " << rt.requests_per_second
            << " req/s  (p50 " << rt.p50 * 1e6 << " us, p99 " << rt.p99 * 1e6
            << " us)\n";
  records.push_back(JsonObject()
                        .Set("benchmark", "serve_socket_roundtrip_1c")
                        .Set("seconds_per_op", rt.seconds_per_op)
                        .Set("requests_per_second", rt.requests_per_second)
                        .Set("p50_seconds", rt.p50)
                        .Set("p99_seconds", rt.p99));

  const std::string envelope = serve::ServeClient::EncodePlanEnvelope(request);
  constexpr int kPipelineWindow = 64;  // < the server's 128-frame window
  double pipelined_1c_rps = 0;
  for (const int conns : {1, 2, 4, 8}) {
    const int per_conn = 20000 / conns;
    const LoadResult r = RunSocketPipelined(sock_path, envelope, conns,
                                            per_conn, kPipelineWindow,
                                            cold_config);
    if (conns == 1) pipelined_1c_rps = r.requests_per_second;
    std::cout << "socket pipelined, " << conns
              << " conn(s): " << r.requests_per_second << " req/s\n";
    JsonObject rec;
    rec.Set("benchmark",
            "serve_socket_pipelined_" + std::to_string(conns) + "c")
        .Set("seconds_per_op", r.seconds_per_op)
        .Set("requests_per_second", r.requests_per_second);
    if (conns == 1) {
      rec.Set("pipelined_over_roundtrip",
              r.requests_per_second / rt.requests_per_second);
    }
    records.push_back(rec);
  }
  const double pipeline_gain = pipelined_1c_rps / rt.requests_per_second;
  std::cout << "pipelining gain over round-trip (1 conn): " << pipeline_gain
            << "x\n";
  const bool pipeline_ok = pipeline_gain >= 2.0;
  if (!pipeline_ok) {
    std::cout << "FAIL: pipelined throughput under 2x the round-trip floor\n";
  }

  // Offered load: 4 connections x 1 request / 1.5 ms = ~2667 req/s, far
  // below warm capacity, so the p99 measures scheduling + reactor overhead
  // under steady load rather than saturation collapse.
  constexpr int kOpenLoopConns = 4, kOpenLoopPerConn = 1200;
  constexpr double kOpenLoopInterval = 1.5e-3;
  const LoadResult ol = RunOpenLoop(sock_path, request, kOpenLoopConns,
                                    kOpenLoopPerConn, kOpenLoopInterval);
  std::cout << "open loop @ "
            << static_cast<int>(kOpenLoopConns / kOpenLoopInterval)
            << " req/s offered: " << ol.requests_per_second
            << " req/s achieved  (p50 " << ol.p50 * 1e6 << " us, p99 "
            << ol.p99 * 1e6 << " us vs schedule)\n";
  records.push_back(JsonObject()
                        .Set("benchmark", "serve_open_loop_p99_gpt2_pp64")
                        .Set("seconds_per_op", ol.seconds_per_op)
                        .Set("requests_per_second", ol.requests_per_second)
                        .Set("p50_seconds", ol.p50)
                        .Set("p99_seconds", ol.p99));

  serve::ServeClient probe;
  HARMONY_CHECK(probe.ConnectUnix(sock_path).ok());
  auto daemon_stats = probe.Stats();
  if (daemon_stats.ok()) {
    const json::Value* fe = daemon_stats.value().Find("frontend");
    if (fe != nullptr) std::cout << "frontend: " << fe->Dump() << "\n";
  }
  probe.Close();
  server.Stop();

  const serve::ServiceStats stats = service.stats();
  const serve::CacheStats cache = service.cache_stats();
  std::cout << "\nservice: " << stats.completed << " responses, "
            << stats.searches << " searches, " << stats.cache_hits
            << " direct cache hits; cache " << cache.entries << " entries / "
            << cache.bytes << " bytes\n";

  if (as_json && !bench::WriteJsonFile("BENCH_serve.json", records)) return 1;
  return (bit_identical && pipeline_ok) ? 0 : 1;
}
