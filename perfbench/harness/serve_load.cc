// serve_replay and serve_mixed: an open-loop load generator against an
// in-process PlanServer (one loop thread, two service workers) on a Unix
// socket. Both workloads share the warm pool, its fingerprints and the
// arrival schedule; they differ only in the bytes of each frame.
//
//   serve_replay  every frame of a pool entry is the same bytes, so the
//                 reactor's byte memo answers nearly all of them.
//   serve_mixed   every frame is re-rendered with its own deadline and a
//                 seeded member order, so the memo never hits and each
//                 frame is decoded, fingerprinted and looked up; a slow
//                 stream of novel requests (each sent twice) misses the
//                 cache and searches beside the lookups.

#include <poll.h>
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_set>

#include "common/logging.h"
#include "common/socket.h"
#include "core/search.h"
#include "analysis.h"
#include "runs.h"
#include "serve/client.h"
#include "serve/plan_service.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

using harmony::serve::PlanRequest;
using harmony::serve::PlanResponse;

// Every serve number is taken at or below these fixed settings.
constexpr double kReferenceRate = 4000;   // requests/s, both workloads
constexpr double kLadderBase = 4000;      // first rung, requests/s
constexpr double kLadderStep = 1.15;      // rung-to-rung rate ratio
constexpr int kLadderRungs = 40;          // top rung ~ 1M requests/s
constexpr int kCoarseStride = 4;          // rungs skipped by the first pass
constexpr double kRungSeconds = 0.5;
constexpr size_t kWindow = 64;           // frames in flight when saturating
constexpr int kSaturationRuns = 12;
constexpr double kLatencyLimit = 5e-3;    // p99 limit a rung must meet, s
constexpr double kSlipShare = 0.25;       // slip p99 above this share of the
                                          // limit makes a rung generator-bound
constexpr double kNovelRate = 2;          // novel requests/s (serve_mixed)
constexpr double kDrainSeconds = 3;       // wait for stragglers after a phase
constexpr int kSetups = 5;
constexpr int kNovelChecked = 8;          // novel answers re-searched in-process
constexpr int kLayerSamples = 2000;       // frames timed per layer (traced)
constexpr int kAnalysedPlans = 16;        // pool entries timed per plan layer

/// The in-process plan of one pool entry: what every warm answer for its
/// fingerprint must repeat bit for bit.
struct Reference {
  harmony::core::SearchResult result;
  std::string config_fragment;  // `"config":{...},"estimate":` as encoded
};

Reference PlanInProcess(const PlanRequest& r, Spans* spans, int64_t op) {
  const Profiled p = BuildAndProfile(r, spans, op);
  harmony::core::SearchOptions serial = r.options;
  serial.num_threads = 1;
  Spans::Scope span(spans, "core.search", op);
  auto found = harmony::core::SearchConfiguration(p.profiles, r.machine, r.mode,
                                                  r.minibatch, r.flags, serial);
  HARMONY_CHECK(found.ok()) << found.status();
  Reference ref;
  ref.result = std::move(found).value();
  ref.config_fragment = "\"config\":" + ConfigJson(ref.result.best) + ",\"estimate\":";
  return ref;
}

/// Server, service and the set-up state one measurement window runs on.
struct Deployment {
  std::unique_ptr<harmony::serve::PlanService> service;
  std::unique_ptr<harmony::serve::PlanServer> server;
  std::string socket_path;

  ~Deployment() {
    if (server) server->Stop();
    server.reset();
    service.reset();
    if (!socket_path.empty()) ::unlink(socket_path.c_str());
  }
};

/// A non-blocking connection driven by the generator thread.
struct Conn {
  int fd = -1;
  harmony::net::FrameDecoder decoder;
  harmony::net::FrameWriter writer;
  struct Pending {
    double scheduled;
    int pool = -1;    // warm frame: its pool entry
    int novel = -1;   // novel frame: its novel request
  };
  std::deque<Pending> pending;

  ~Conn() {
    if (fd >= 0) harmony::net::CloseFd(fd);
  }
};

/// What one open-loop phase (a fixed rate for a fixed time) measured.
struct Phase {
  std::vector<double> latency;  // warm requests, scheduled send -> response
  std::vector<double> slip;     // actual send - scheduled send
  int64_t sent = 0, failed = 0;
  int64_t backlog_at_end = 0;   // warm requests in flight when sending stopped
  double last_response = 0;     // relative to the phase start
};

struct NovelState {
  std::vector<PlanRequest> requests;
  std::vector<std::string> frames;
  std::vector<std::string> first_config;      // by novel index
  std::vector<double> latency;                // scheduled send -> response
  int next = 0;
};

class LoadGenerator {
 public:
  LoadGenerator(const std::string& path, bool mixed, uint64_t seed,
                const std::vector<PlanRequest>& pool,
                const std::vector<Reference>& refs, NovelState* novel, Report* report)
      : mixed_(mixed),
        schedule_(seed, static_cast<int>(pool.size())),
        refs_(refs),
        novel_(novel),
        report_(report) {
    for (const PlanRequest& r : pool) {
      replay_frames_.push_back(harmony::serve::ServeClient::EncodePlanEnvelope(r));
    }
    if (mixed) mixed_frames_.emplace(seed, pool);
    last_answer_.resize(pool.size());
    for (Conn& c : conns_) {
      auto fd = harmony::net::ConnectUnix(path);
      HARMONY_CHECK(fd.ok()) << fd.status();
      c.fd = fd.value();
      HARMONY_CHECK(harmony::net::SetNonBlocking(c.fd).ok());
    }
  }

  /// The bytes of the k-th scheduled warm frame.
  std::string WarmFrame(int64_t k) const {
    const int p = schedule_[k];
    return mixed_ ? mixed_frames_->Frame(k, p) : replay_frames_[p];
  }
  int PoolOf(int64_t k) const { return schedule_[k]; }

  /// Runs warm frames for `seconds` (plus novel frames on the second
  /// connection when `novel_` is set), then waits for the answers. Warm
  /// frames follow an open-loop schedule at `rate`, or, with `window` > 0,
  /// a closed loop that keeps `window` of them in flight.
  Phase Run(double rate, double seconds, std::unordered_set<std::string>* seen,
            size_t window = 0) {
    Phase ph;
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    auto rel = [&] { return std::chrono::duration<double>(Clock::now() - t0).count(); };
    int64_t warm_i = 0, novel_i = 0;
    const double warm_gap = 1.0 / rate;
    const double novel_gap = 1.0 / kNovelRate;
    bool sending = true;
    while (true) {
      double now = rel();
      if (sending && now >= seconds) {
        sending = false;
        ph.backlog_at_end = static_cast<int64_t>(conns_[0].pending.size());
      }
      if (!sending && InFlight() == 0) break;
      if (!sending && now > seconds + kDrainSeconds) {
        // Anything still unanswered timed out.
        for (Conn& c : conns_) {
          ph.failed += static_cast<int64_t>(c.pending.size());
          if (!c.pending.empty()) report_->Error("serve: requests unanswered after drain");
          c.pending.clear();
        }
        break;
      }
      while (sending) {
        const double due =
            window > 0 ? now : static_cast<double>(warm_i) * warm_gap;
        if (due > now || due >= seconds) break;
        if (window > 0 && conns_[0].pending.size() >= window) break;
        const int64_t k = next_k_++;
        std::string frame = WarmFrame(k);
        if (seen != nullptr) seen->insert(frame);
        conns_[0].writer.QueueFrame(frame);
        conns_[0].pending.push_back({due, PoolOf(k), -1});
        ph.slip.push_back(now - due);
        ++ph.sent;
        ++warm_i;
      }
      while (sending && novel_ != nullptr) {
        const double due = static_cast<double>(novel_i) * novel_gap;
        if (due > now || due >= seconds) break;
        if (novel_->next >= static_cast<int>(novel_->frames.size())) break;
        const int n = novel_->next++;
        // Sent twice back to back: the second attaches to the first's search.
        for (int copy = 0; copy < 2; ++copy) {
          conns_[1].writer.QueueFrame(novel_->frames[n]);
          conns_[1].pending.push_back({due, -1, n});
        }
        ++novel_i;
      }
      for (Conn& c : conns_) {
        if (c.writer.pending_bytes() > 0 && !c.writer.Flush(c.fd).ok()) {
          report_->Error("serve: connection closed by the server");
          return ph;
        }
      }
      ReadAll(t0, &ph);
      if (!sending && InFlight() == 0) break;
      // Sleep until the next send is due or an answer arrives; spin when the
      // next send is closer than the wake-up latency of a timed wait.
      now = rel();
      double next_due = seconds + kDrainSeconds;
      if (sending) {
        next_due = std::min(next_due, window > 0 ? now : static_cast<double>(warm_i) * warm_gap);
        if (novel_ != nullptr) {
          next_due = std::min(next_due, static_cast<double>(novel_i) * novel_gap);
        }
      }
      const double wait = next_due - now - 100e-6;
      if (wait > 200e-6) {
        pollfd fds[2];
        for (int i = 0; i < 2; ++i) {
          fds[i].fd = conns_[i].fd;
          fds[i].events = POLLIN | (conns_[i].writer.pending_bytes() > 0 ? POLLOUT : 0);
          fds[i].revents = 0;
        }
        timespec ts{static_cast<time_t>(wait),
                    static_cast<long>((wait - static_cast<double>(static_cast<time_t>(wait))) * 1e9)};
        ::ppoll(fds, 2, &ts, nullptr);
      }
    }
    return ph;
  }

 private:
  int64_t InFlight() const {
    return static_cast<int64_t>(conns_[0].pending.size() + conns_[1].pending.size());
  }

  void ReadAll(Clock::time_point t0, Phase* ph) {
    char buf[1 << 16];
    for (int i = 0; i < 2; ++i) {
      Conn& c = conns_[i];
      while (true) {
        const ssize_t n = ::read(c.fd, buf, sizeof(buf));
        if (n > 0) {
          if (!c.decoder.Feed(buf, static_cast<size_t>(n)).ok()) {
            report_->Error("serve: undecodable response stream");
            return;
          }
          continue;
        }
        if (n == 0) report_->Error("serve: server closed a connection");
        break;  // EAGAIN, EOF or error
      }
      if (!c.decoder.HasFrame()) continue;
      const double now = std::chrono::duration<double>(Clock::now() - t0).count();
      while (c.decoder.HasFrame()) {
        const std::string answer = c.decoder.PopFrame();
        if (c.pending.empty()) {
          report_->Error("serve: answer without a request");
          continue;
        }
        const Conn::Pending p = c.pending.front();
        c.pending.pop_front();
        ph->last_response = now;
        if (p.pool >= 0) {
          if (CheckWarm(p.pool, answer)) {
            ph->latency.push_back(now - p.scheduled);
          } else {
            ++ph->failed;
          }
        } else {
          if (!CheckNovel(p.novel, answer)) ++ph->failed;
          novel_->latency.push_back(now - p.scheduled);
        }
      }
    }
  }

  /// A warm answer must be OK, a cache hit, and carry the set-up search's
  /// configuration for the entry, byte for byte.
  bool CheckWarm(int pool, const std::string& answer) {
    if (answer == last_answer_[pool]) return true;
    static const std::string_view kOk = "{\"type\":\"plan\",\"response\":{\"status\":\"OK\",";
    // Load shed, deadline or error frame: a failed request, not a wrong one.
    if (answer.compare(0, kOk.size(), kOk) != 0) return false;
    if (answer.find("\"cache_hit\":true") == std::string::npos ||
        answer.find(refs_[pool].config_fragment) == std::string::npos) {
      report_->Error("serve: warm answer differs from the set-up search for pool entry " +
                     std::to_string(pool));
      return false;
    }
    last_answer_[pool] = answer;
    return true;
  }

  bool CheckNovel(int n, const std::string& answer) {
    auto parsed = harmony::json::Parse(answer);
    const harmony::json::Value* body =
        parsed.ok() ? parsed.value().Find("response") : nullptr;
    auto response = body != nullptr ? harmony::serve::PlanResponseFromJson(*body)
                                    : harmony::Result<PlanResponse>(
                                          harmony::Status::Internal("no response"));
    if (!response.ok() || !response.value().status.ok()) return false;
    const std::string config = ConfigJson(response.value().config);
    if (novel_->first_config[n].empty()) {
      novel_->first_config[n] = config;
    } else if (novel_->first_config[n] != config) {
      report_->Error("serve: the two copies of a novel request got different plans");
      return false;
    }
    return true;
  }

  bool mixed_;
  PoolSchedule schedule_;
  const std::vector<Reference>& refs_;
  NovelState* novel_;
  Report* report_;
  std::vector<std::string> replay_frames_;
  std::optional<MixedFrames> mixed_frames_;
  std::vector<std::string> last_answer_;
  Conn conns_[2];
  int64_t next_k_ = 0;
};

/// Frontend, cache and service counters from the stats envelope.
struct Counters {
  double frames = 0, fastpath = 0, wakeups = 0, cache_hits = 0, cache_misses = 0,
         searches = 0, coalesced = 0, rejected = 0;
};

Counters ReadCounters(harmony::serve::ServeClient* client, Report* report) {
  Counters c;
  auto stats = client->Stats();
  if (!stats.ok()) {
    report->Error("serve: stats: " + stats.status().ToString());
    return c;
  }
  auto get = [&](const char* block, const char* key) {
    const harmony::json::Value* b = stats.value().Find(block);
    const harmony::json::Value* v = b != nullptr ? b->Find(key) : nullptr;
    if (v == nullptr) report->Error(std::string("serve: stats lacks ") + block + "." + key);
    return v != nullptr ? v->AsDouble() : 0.0;
  };
  c.frames = get("frontend", "frames_received");
  c.fastpath = get("frontend", "fastpath_hits");
  c.wakeups = get("frontend", "epoll_wakeups");
  c.cache_hits = get("cache", "hits");
  c.cache_misses = get("cache", "misses");
  c.searches = get("service", "searches");
  c.coalesced = get("service", "coalesced");
  c.rejected = get("service", "rejected");
  return c;
}

}  // namespace

Report RunServe(const RunOptions& opt, bool mixed) {
  Report report;
  Spans spans(opt.trace);
  Digest digest;

  const std::vector<PlanRequest> pool = ServePool(opt.seed);
  // The generator thread gets one CPU to itself: the server's threads are
  // created while this thread is restricted to the others, and inherit that.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ::sched_getaffinity(0, sizeof(allowed), &allowed);
  cpu_set_t generator_cpu, server_cpus = allowed;
  CPU_ZERO(&generator_cpu);
  const bool pin = CPU_COUNT(&allowed) >= 2;
  for (int c = 0; pin && c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &generator_cpu);
      CPU_CLR(c, &server_cpus);
      break;
    }
  }
  if (pin) ::sched_setaffinity(0, sizeof(server_cpus), &server_cpus);

  std::vector<Reference> refs;
  std::unique_ptr<Deployment> dep;
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    dep.reset();
    const auto t0 = Clock::now();
    dep = std::make_unique<Deployment>();
    dep->socket_path = opt.scratch_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
    harmony::serve::ServeOptions so;
    so.num_workers = 2;
    dep->service = std::make_unique<harmony::serve::PlanService>(so);
    harmony::serve::ServerOptions sv;
    sv.unix_path = dep->socket_path;
    sv.loop_threads = 1;
    dep->server = std::make_unique<harmony::serve::PlanServer>(dep->service.get(), sv);
    const harmony::Status listening = dep->server->Listen();
    if (!listening.ok()) {
      report.Error("serve: listen: " + listening.ToString());
      return report;
    }
    dep->server->Start();

    // The last set-up's spans are the ones reported.
    Spans off(false);
    refs.clear();
    for (size_t i = 0; i < pool.size(); ++i) {
      refs.push_back(PlanInProcess(pool[i], s == kSetups - 1 ? &spans : &off,
                                   static_cast<int64_t>(i)));
    }
    // Fill the cache through the socket: every pool entry misses once and
    // is searched by the service at two threads; the answer must equal the
    // one-thread in-process search.
    harmony::serve::ServeClient filler;
    if (!filler.ConnectUnix(dep->socket_path).ok()) {
      report.Error("serve: cannot connect");
      return report;
    }
    for (const PlanRequest& r : pool) {
      PlanRequest two = r;
      two.options.num_threads = 2;
      HARMONY_CHECK(filler.SendNowait(two).ok());
    }
    for (size_t i = 0; i < pool.size(); ++i) {
      auto answer = filler.Collect();
      if (!answer.ok() || !answer.value().status.ok() ||
          ConfigJson(answer.value().config) != ConfigJson(refs[i].result.best) ||
          answer.value().estimate.iteration_time !=
              refs[i].result.best_estimate.iteration_time) {
        report.Error("serve: set-up fill of pool entry " + std::to_string(i) +
                     " differs from the in-process search");
      }
    }
    setups.push_back(SecondsSince(t0));
  }
  if (!report.errors.empty()) return report;
  for (size_t i = 0; i < pool.size(); ++i) {
    digest.Add(harmony::json::FingerprintHex(harmony::serve::RequestFingerprint(pool[i])) +
               " " + ConfigJson(refs[i].result.best) + " est=" +
               HexSeconds(refs[i].result.best_estimate.iteration_time));
  }
  report.digest = digest.Hex();

  NovelState novel;
  if (mixed) {
    // Every phase also sends one at its start.
    const int count = std::min(1000, static_cast<int>(opt.seconds * kNovelRate * 1.5) + 40);
    novel.requests = NovelRequests(opt.seed, count, pool);
    for (const PlanRequest& r : novel.requests) {
      novel.frames.push_back(harmony::serve::ServeClient::EncodePlanEnvelope(r));
    }
    novel.first_config.resize(novel.requests.size());
  }

  if (pin) ::sched_setaffinity(0, sizeof(generator_cpu), &generator_cpu);

  // An idle blocking round trip, before any load.
  harmony::serve::ServeClient probe;
  HARMONY_CHECK(probe.ConnectUnix(dep->socket_path).ok());
  const std::vector<double> rtt = TimeEach(200, [&](int) {
    auto r = probe.Plan(pool[0]);
    if (!r.ok() || !r.value().status.ok()) report.Error("serve: idle round trip failed");
  });

  LoadGenerator gen(dep->socket_path, mixed, opt.seed, pool, refs,
                    mixed ? &novel : nullptr, &report);
  const Counters before = ReadCounters(&probe, &report);
  std::unordered_set<std::string> seen;
  const Phase ref = gen.Run(kReferenceRate, 0.25 * opt.seconds, opt.trace ? &seen : nullptr);
  const Counters after_ref = ReadCounters(&probe, &report);

  // Saturation: a closed loop keeping kWindow warm frames in flight, timed
  // in kSaturationRuns parts; the median part's completion rate is scored.
  std::vector<double> saturated;
  for (int i = 0; i < kSaturationRuns; ++i) {
    const Phase ph = gen.Run(0, 0.4 * opt.seconds / kSaturationRuns, nullptr, kWindow);
    report.attempted += ph.sent;
    report.failed += ph.failed;
    saturated.push_back(static_cast<double>(ph.latency.size()) /
                        std::max(ph.last_response, 1e-9));
  }
  const Quantile saturation = NearestRank(saturated, 50);

  // Fixed ladder kLadderBase * kLadderStep^i. A first pass climbs every
  // kCoarseStride-th rung to the first that misses; a second pass climbs
  // the rungs skipped below it. A rung that misses is run once more (a
  // transient host stall should not end the climb); it passes if either
  // attempt meets the limit without a growing backlog.
  double max_rps = 0;
  auto rung = [&](int i) {
    const double rate = kLadderBase * std::pow(kLadderStep, i);
    for (int attempt = 0; attempt < 2 && report.errors.empty(); ++attempt) {
      const Phase ph = gen.Run(rate, kRungSeconds, nullptr);
      const Quantile p99 = NearestRank(ph.latency, 99);
      const Quantile slip99 = NearestRank(ph.slip, 99);
      const bool backlog_grew =
          static_cast<double>(ph.backlog_at_end) > rate * kLatencyLimit + 2;
      const bool generator_bound = slip99.value > kSlipShare * kLatencyLimit;
      const bool meets = ph.failed == 0 && p99.value <= kLatencyLimit && !backlog_grew &&
                         !generator_bound;
      const double achieved = static_cast<double>(ph.latency.size()) /
                              std::max(ph.last_response, 1e-9);
      char line[256];
      std::snprintf(line, sizeof(line),
                    "rung %d (%.0f/s): p99 %.6f s (n=%zu), slip p99 %.6f s, backlog %lld, "
                    "failed %lld, achieved %.1f/s -> %s",
                    i, rate, p99.value, p99.n, slip99.value,
                    static_cast<long long>(ph.backlog_at_end),
                    static_cast<long long>(ph.failed), achieved,
                    generator_bound ? "generator-bound" : meets ? "meets" : "misses");
      report.notes.push_back(line);
      report.attempted += ph.sent;
      report.failed += ph.failed;
      if (meets) {
        max_rps = std::max(max_rps, achieved);
        return true;
      }
    }
    return false;
  };
  int first_miss = kLadderRungs;
  for (int i = 0; i < kLadderRungs; i += kCoarseStride) {
    if (!rung(i)) {
      first_miss = i;
      break;
    }
  }
  for (int i = std::max(1, first_miss - kCoarseStride + 1); i < first_miss; ++i) {
    if (!rung(i)) break;
  }
  report.attempted += ref.sent;
  report.failed += ref.failed;
  if (mixed) {
    report.attempted += 2 * novel.next;
    // A sample of the novel answers must equal a fresh in-process search.
    for (int n = 0; n < std::min(novel.next, kNovelChecked); ++n) {
      if (novel.first_config[n].empty()) continue;
      Spans off(false);
      const Reference fresh = PlanInProcess(novel.requests[n], &off, n);
      if (ConfigJson(fresh.result.best) != novel.first_config[n]) {
        report.Error("serve: novel answer " + std::to_string(n) +
                     " differs from an in-process search");
      }
    }
  }

  const Quantile p50 = NearestRank(ref.latency, 50);
  const Quantile p99 = NearestRank(ref.latency, 99);
  const Quantile slip50 = NearestRank(ref.slip, 50);
  const Quantile slip99 = NearestRank(ref.slip, 99);
  if (p99.n < 1000) report.Error("serve: fewer than 1000 answers at the reference rate");
  report.Figure("req_p50_s", p50.value, "s", p50.n);
  report.Figure("req_p99_s", p99.value, "s", p99.n);
  report.Figure("max_rps", max_rps, "1/s");
  report.Figure("saturated_rps", saturation.value, "1/s", saturation.n);
  report.Figure("slip_p50_s", slip50.value, "s", slip50.n);
  report.Figure("slip_p99_s", slip99.value, "s", slip99.n);
  const Quantile rtt50 = NearestRank(rtt, 50);
  report.Figure("idle_rtt_s", rtt50.value, "s", rtt50.n);
  if (mixed) {
    const Quantile miss = NearestRank(novel.latency, 50);
    report.Figure("miss_p50_s", miss.value, "s", miss.n);
  }
  if (max_rps <= 0) report.notes.push_back("no rung of the ladder met the limit");

  if (!opt.trace) {
    report.SetMedian("setup_s", setups);
    report.Set("p50_s", p50.value, "s", p50.n);
    report.Set("rate_per_s", saturation.value, "1/s", saturation.n);
    return report;
  }

  // Traced run: per-layer numbers over the reference phase.
  report.Set("trace.p50_s", p50.value, "s", p50.n);
  const double received = std::max(1.0, after_ref.frames - before.frames);
  report.Set("serve.server.memo_hit_frac", (after_ref.fastpath - before.fastpath) / received,
             "ratio");
  report.Set("serve.server.wakeups_per_frame", (after_ref.wakeups - before.wakeups) / received,
             "ratio");
  const double hits = after_ref.cache_hits - before.cache_hits;
  const double lookups = hits + after_ref.cache_misses - before.cache_misses;
  report.Set("serve.plan_cache.hit_frac", lookups > 0 ? hits / lookups : 0.0, "ratio");
  report.Set("serve.plan_service.searches", after_ref.searches - before.searches, "count");
  report.Set("serve.plan_service.coalesced", after_ref.coalesced - before.coalesced, "count");
  report.Set("serve.plan_service.rejected", after_ref.rejected - before.rejected, "count");
  report.Set("loadgen.repeat_frame_frac",
             ref.sent > 0 ? 1.0 - static_cast<double>(seen.size()) /
                                      static_cast<double>(ref.sent)
                          : 0.0,
             "ratio");
  report.SetMedian("model.build_s", spans.Durations("model.build"));
  report.SetMedian("profile.profile_s", spans.Durations("profile.profile"));
  report.SetMedian("core.search.wall_s", spans.Durations("core.search"));
  MeasurePlanLayers(std::vector<PlanRequest>(pool.begin(), pool.begin() + kAnalysedPlans),
                    opt.seed, &report);
  std::vector<std::string> frames;
  for (int i = 0; i < kLayerSamples; ++i) frames.push_back(gen.WarmFrame(i));
  MeasureServeLayers(frames, &report);
  return report;
}

}  // namespace perfbench
