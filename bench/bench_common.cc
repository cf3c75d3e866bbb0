#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "serve/wire.h"

namespace harmony::bench {

serve::ProfiledModel Prepare(const std::string& name,
                             const hw::MachineSpec& machine) {
  return serve::ProfileModel(serve::ModelSpec::FromName(name).value(),
                             machine.PlanningGpu())
      .value();
}

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kDpSwap: return "DP Swap";
    case Scheme::kGpSwap: return "GP Swap";
    case Scheme::kGpSwapR: return "GP Swap (R)";
    case Scheme::k2bwSwap: return "2BW Swap";
    case Scheme::k2bwSwapR: return "2BW Swap (R)";
    case Scheme::kHarmonyDp: return "Harmony DP";
    case Scheme::kHarmonyPp: return "Harmony PP";
    case Scheme::kZeroInfinity: return "ZeRO-Infinity";
  }
  return "?";
}

SchemeResult RunScheme(Scheme scheme, const serve::ProfiledModel& pm,
                       const hw::MachineSpec& machine, int minibatch,
                       const RunSchemeOptions& options) {
  SchemeResult result;
  result.scheme = SchemeName(scheme);
  const int n = machine.num_gpus;

  core::TaskGraph graph;
  runtime::RuntimeOptions run_opts;
  run_opts.optimizer = pm.optimizer;

  switch (scheme) {
    case Scheme::kDpSwap: {
      const int u = baselines::MaxFeasibleMicrobatch(
          pm.profiles, machine, /*replicas=*/n, options.baseline_u_cap);
      graph = baselines::DpSwap(pm.profiles, n, minibatch, u);
      break;
    }
    case Scheme::kGpSwap:
    case Scheme::kGpSwapR: {
      const bool r = scheme == Scheme::kGpSwapR;
      const int u = baselines::MaxFeasibleMicrobatch(pm.profiles, machine, 1,
                                                     options.baseline_u_cap);
      graph = baselines::GpipeSwap(pm.profiles, n, minibatch, u, r);
      break;
    }
    case Scheme::k2bwSwap:
    case Scheme::k2bwSwapR: {
      const bool r = scheme == Scheme::k2bwSwapR;
      const int u = baselines::MaxFeasibleMicrobatch(pm.profiles, machine, 1,
                                                     options.baseline_u_cap);
      graph = baselines::PipeDream2bwSwap(pm.profiles, n, minibatch, u, r);
      break;
    }
    case Scheme::kHarmonyDp:
    case Scheme::kHarmonyPp: {
      const auto mode = scheme == Scheme::kHarmonyDp
                            ? core::HarmonyMode::kDataParallel
                            : core::HarmonyMode::kPipelineParallel;
      if (options.fixed_config) {
        result.config = *options.fixed_config;
        graph = core::GenerateHarmonyTaskGraph(result.config, mode, n, minibatch,
                                               options.flags, pm.profiles);
      } else {
        core::SearchOptions search;
        search.u_fwd_max = options.u_max;
        search.u_bwd_max = options.u_max;
        auto found = core::SearchConfiguration(pm.profiles, machine, mode,
                                               minibatch, options.flags, search);
        if (!found.ok()) {
          result.error = found.status().ToString();
          return result;
        }
        result.search = found.value();
        result.config = found.value().best;
        graph = core::GenerateHarmonyTaskGraph(result.config, mode, n, minibatch,
                                               options.flags, pm.profiles);
      }
      break;
    }
    case Scheme::kZeroInfinity: {
      core::Configuration config;
      if (options.fixed_config) {
        config = *options.fixed_config;
      } else {
        // Share Harmony DP's configuration (Sec 5.3).
        core::SearchOptions search;
        search.u_fwd_max = options.u_max;
        search.u_bwd_max = options.u_max;
        auto found = core::SearchConfiguration(
            pm.profiles, machine, core::HarmonyMode::kDataParallel, minibatch,
            core::OptimizationFlags{}, search);
        if (!found.ok()) {
          result.error = found.status().ToString();
          return result;
        }
        config = found.value().best;
      }
      result.config = config;
      graph = baselines::ZeroInfinity(pm.profiles, config, n, minibatch);
      run_opts.host_static_overhead =
          baselines::ZeroInfinityHostOverhead(pm.model);
      break;
    }
  }

  const runtime::Runtime rt(machine, pm.model);
  auto metrics = rt.Execute(graph, run_opts);
  if (!metrics.ok()) {
    result.error = metrics.status().ToString();
    return result;
  }
  result.ok = true;
  result.metrics = std::move(metrics).value();
  result.iteration_time = result.metrics.iteration_time;
  result.throughput = result.metrics.Throughput(minibatch);
  return result;
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "Reproduces: " << paper_ref << "\n\n";
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

JsonObject& JsonObject::SetRaw(const std::string& key, std::string rendered) {
  fields_.emplace_back(key, std::move(rendered));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, const std::string& value) {
  return SetRaw(key, "\"" + JsonEscape(value) + "\"");
}

JsonObject& JsonObject::Set(const std::string& key, const char* value) {
  return Set(key, std::string(value));
}

JsonObject& JsonObject::Set(const std::string& key, int64_t value) {
  return SetRaw(key, std::to_string(value));
}

JsonObject& JsonObject::Set(const std::string& key, int value) {
  return Set(key, static_cast<int64_t>(value));
}

JsonObject& JsonObject::Set(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return SetRaw(key, buf);
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(fields_[i].first) + "\": " + fields_[i].second;
  }
  out += "}";
  return out;
}

double Median(std::vector<double> samples) {
  HARMONY_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double MedianSecondsPerOp(int reps, int iters,
                          const std::function<void()>& fn) {
  HARMONY_CHECK_GT(reps, 0);
  HARMONY_CHECK_GT(iters, 0);
  fn();  // warm-up (model/profile statics, allocator, branch predictors)
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    samples.push_back(dt.count() / iters);
  }
  return Median(std::move(samples));
}

bool JsonFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return true;
  }
  return false;
}

bool WriteJsonFile(const std::string& path,
                   const std::vector<JsonObject>& records) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  out << "[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    out << "  " << records[i].ToString() << (i + 1 < records.size() ? "," : "")
        << "\n";
  }
  out << "]\n";
  return out.good();
}

}  // namespace harmony::bench
