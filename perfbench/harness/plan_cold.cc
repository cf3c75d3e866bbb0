// plan_cold: one in-process caller in a closed loop. Each job builds a model,
// profiles it, runs Algorithm 1 and executes the winner on the simulator;
// every fourth job also runs the adaptive loop through a persistent link
// failure. No serve layer runs in the window; the traced run afterwards
// times each layer, the serve ones included, on the first jobs' requests.

#include "analysis.h"
#include "common/logging.h"
#include "core/search.h"
#include "runtime/runtime.h"
#include "runs.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

using harmony::serve::PlanRequest;

// Jobs whose simulated outputs enter the digest, and the least number of
// plans a run times, so that the p90 has ten samples above it.
constexpr int kDigestJobs = 100;
constexpr int kMinJobs = 100;
// Jobs at the head of the sequence the traced run measures layer by layer;
// counts over them repeat exactly for a seed.
constexpr int kAnalysedJobs = 16;
constexpr int kLayerSamples = 2000;  // frames timed per serve layer (traced)
constexpr int kSetups = 5;
constexpr int kJobBlock = 64;  // PlanJob's stratification block

struct JobSamples {
  std::vector<double> plan, iter, adapt;
  std::vector<double> ends;  // when each job finished, from the window start
};

/// One plan_cold job. Returns false when any stage failed.
bool RunJob(int index, const PlanRequest& r, uint64_t seed, Spans* spans,
            Digest* digest, JobSamples* out, Report* report) {
  const auto t0 = Clock::now();
  Profiled p = BuildAndProfile(r, spans, index);
  harmony::Result<harmony::core::SearchResult> found = [&] {
    Spans::Scope span(spans, "core.search", index);
    return harmony::core::SearchConfiguration(p.profiles, r.machine, r.mode,
                                              r.minibatch, r.flags, r.options);
  }();
  if (!found.ok()) {
    report->Error("job " + std::to_string(index) + ": " + found.status().ToString());
    return false;
  }
  out->plan.push_back(SecondsSince(t0));
  const harmony::core::SearchResult& sr = found.value();

  const harmony::core::TaskGraph graph = harmony::core::GenerateHarmonyTaskGraph(
      sr.best, r.mode, r.machine.num_gpus, r.minibatch, r.flags, p.profiles);
  const harmony::runtime::Runtime runtime(r.machine, p.model);
  harmony::runtime::RuntimeOptions run_opts;
  run_opts.optimizer = harmony::serve::DefaultOptimizer(r.model);
  const auto e0 = Clock::now();
  auto metrics = runtime.Execute(graph, run_opts);
  out->iter.push_back(SecondsSince(e0));
  if (!metrics.ok()) {
    report->Error("job " + std::to_string(index) + " execute: " +
                  metrics.status().ToString());
    return false;
  }

  const bool in_digest = index < kDigestJobs;
  if (in_digest) {
    digest->Add(std::to_string(index) + " " +
                harmony::json::FingerprintHex(harmony::serve::RequestFingerprint(r)) +
                " " + ConfigJson(sr.best) + " est=" + HexSeconds(sr.best_estimate.iteration_time) +
                " iter=" + HexSeconds(metrics.value().iteration_time));
  }

  if (PlanJobAdapts(index)) {
    const harmony::adapt::AdaptOptions ao = AdaptiveRunOptions(
        r, seed ^ static_cast<uint64_t>(index), sr.best_estimate.iteration_time);
    harmony::adapt::AdaptiveRunner runner(r.machine, r.model, r.mode, r.minibatch,
                                          r.flags, r.options, ao);
    const auto a0 = Clock::now();
    auto run = runner.Run();
    out->adapt.push_back(SecondsSince(a0));
    if (!run.ok()) {
      report->Error("job " + std::to_string(index) + " adapt: " + run.status().ToString());
      return false;
    }
    const harmony::adapt::AdaptResult& ar = run.value();
    if (in_digest) {
      std::string line = "adapt " + std::to_string(index) + " switched=" +
                         std::to_string(ar.switched) + " at=" +
                         std::to_string(ar.switch_iteration) + " " + ConfigJson(ar.config);
      for (const auto& it : ar.iterations) line += " " + HexSeconds(it.iteration_time);
      for (const harmony::adapt::ReplanDecision& dec : ar.decisions) {
        line += " decision@" + std::to_string(dec.iteration) + ":" +
                std::to_string(dec.applied) + ":" + HexSeconds(dec.old_estimate_seconds) + ":" +
                HexSeconds(dec.new_estimate_seconds);
        if (dec.applied) {
          // Replan latency in simulated time: injection to the new plan
          // taking over (iteration boundary plus switchover).
          double detect_to_applied = -ao.fault_plan.link_fail_at + dec.switchover_seconds;
          for (int i = 0; i <= dec.iteration; ++i) {
            detect_to_applied += ar.iterations[i].iteration_time;
          }
          line += ":applied_after=" + HexSeconds(detect_to_applied);
        }
      }
      digest->Add(line);
    }
  }
  return true;
}

}  // namespace

Report RunPlanCold(const RunOptions& opt) {
  Report report;
  Spans spans(opt.trace);
  Digest digest;

  // Pinned golden: the request fingerprint deployed caches are keyed by.
  PlanRequest gpt2;
  gpt2.model = harmony::serve::ModelSpec::FromName("GPT2").value();
  gpt2.mode = harmony::core::HarmonyMode::kPipelineParallel;
  gpt2.minibatch = 64;
  const std::string fp =
      harmony::json::FingerprintHex(harmony::serve::RequestFingerprint(gpt2));
  if (fp != "5161815ad1542bc2") report.Error("GPT2 pp 64 fingerprint " + fp);

  // Set-up: generate the head of the job sequence and plan the pinned GPT2
  // pp 64 request once, so allocator and caches are warm before the window.
  // Repeated; the median is reported.
  std::vector<double> setups;
  std::vector<PlanRequest> head;
  for (int s = 0; s < kSetups; ++s) {
    const auto t0 = Clock::now();
    head.clear();
    for (int i = 0; i < kMinJobs; ++i) head.push_back(PlanJob(opt.seed, i));
    Spans off(false);
    Digest unused;
    JobSamples ignored;
    if (!RunJob(-1, gpt2, opt.seed, &off, &unused, &ignored, &report)) return report;
    setups.push_back(SecondsSince(t0));
  }

  JobSamples jobs;
  const auto w0 = Clock::now();
  int index = 0;
  // The window ends on a whole block of jobs, so every run times the same
  // mix whatever the seed (see PlanJob).
  while ((SecondsSince(w0) < opt.seconds || index < kMinJobs || index % kJobBlock != 0) &&
         SecondsSince(w0) < 3 * opt.seconds + 30) {
    const PlanRequest r =
        index < static_cast<int>(head.size()) ? head[index] : PlanJob(opt.seed, index);
    ++report.attempted;
    if (!RunJob(index, r, opt.seed, &spans, &digest, &jobs, &report)) ++report.failed;
    jobs.ends.push_back(SecondsSince(w0));
    ++index;
  }
  if (index < kDigestJobs) {
    report.Error("only " + std::to_string(index) + " jobs ran; the digest needs " +
                 std::to_string(kDigestJobs));
  }
  report.digest = digest.Hex();

  const Quantile plan_p50 = NearestRank(jobs.plan, 50);
  const Quantile plan_p90 = NearestRank(jobs.plan, 90);
  report.Figure("plan_p50_s", plan_p50.value, "s", plan_p50.n);
  report.Figure("plan_p90_s", plan_p90.value, "s", plan_p90.n);
  report.Figure("iter_p50_s", NearestRank(jobs.iter, 50).value, "s", jobs.iter.size());
  report.Figure("adapt_p50_s", NearestRank(jobs.adapt, 50).value, "s", jobs.adapt.size());

  if (!opt.trace) {
    report.SetMedian("setup_s", setups);
    // Scored per block of kJobBlock jobs (each the same mix), as the median
    // over the run's blocks: a host stall moves one block, not the result.
    std::vector<double> block_p50, block_rate;
    const size_t done = std::min(jobs.plan.size(), jobs.ends.size());
    for (size_t b = 0; (b + 1) * kJobBlock <= done; ++b) {
      const auto first = jobs.plan.begin() + static_cast<std::ptrdiff_t>(b * kJobBlock);
      block_p50.push_back(NearestRank(std::vector<double>(first, first + kJobBlock), 50).value);
      const double start = b == 0 ? 0.0 : jobs.ends[b * kJobBlock - 1];
      block_rate.push_back(kJobBlock / (jobs.ends[(b + 1) * kJobBlock - 1] - start));
    }
    const Quantile p50 = NearestRank(block_p50, 50);
    const Quantile rate = NearestRank(block_rate, 50);
    report.Set("p50_s", p50.value, "s", p50.n);
    report.Set("rate_per_s", rate.value, "1/s", rate.n);
    return report;
  }

  // Traced run: per-layer numbers.
  report.Set("trace.p50_s", plan_p50.value, "s", plan_p50.n);
  report.SetMedian("model.build_s", spans.Durations("model.build"));
  report.SetMedian("profile.profile_s", spans.Durations("profile.profile"));
  report.SetMedian("core.search.wall_s", spans.Durations("core.search"));
  const std::vector<PlanRequest> analysed(head.begin(), head.begin() + kAnalysedJobs);
  MeasurePlanLayers(analysed, opt.seed, &report);
  std::vector<std::string> frames;
  for (int i = 0; i < kLayerSamples; ++i) {
    frames.push_back(harmony::serve::ServeClient::EncodePlanEnvelope(analysed[i % kAnalysedJobs]));
  }
  MeasureServeLayers(frames, &report);
  return report;
}

}  // namespace perfbench
