#include "serve/wire.h"

#include <cstdlib>
#include <limits>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace harmony::serve {

namespace {

const char* ModeWireName(core::HarmonyMode mode) {
  return mode == core::HarmonyMode::kPipelineParallel ? "pp" : "dp";
}

Result<core::HarmonyMode> ModeFromWireName(const std::string& s) {
  if (s == "pp") return core::HarmonyMode::kPipelineParallel;
  if (s == "dp") return core::HarmonyMode::kDataParallel;
  return Status::InvalidArgument("unknown mode '" + s + "' (want dp|pp)");
}

Result<StatusCode> StatusCodeFromName(const std::string& s) {
  if (s == "OK") return StatusCode::kOk;
  if (s == "INVALID_ARGUMENT") return StatusCode::kInvalidArgument;
  if (s == "NOT_FOUND") return StatusCode::kNotFound;
  if (s == "OUT_OF_MEMORY") return StatusCode::kOutOfMemory;
  if (s == "FAILED_PRECONDITION") return StatusCode::kFailedPrecondition;
  if (s == "UNIMPLEMENTED") return StatusCode::kUnimplemented;
  if (s == "INTERNAL") return StatusCode::kInternal;
  if (s == "CANCELLED") return StatusCode::kCancelled;
  if (s == "DEADLINE_EXCEEDED") return StatusCode::kDeadlineExceeded;
  if (s == "RESOURCE_EXHAUSTED") return StatusCode::kResourceExhausted;
  if (s == "UNAVAILABLE") return StatusCode::kUnavailable;
  return Status::InvalidArgument("unknown status code '" + s + "'");
}

json::Value PackListToJson(const core::PackList& packs) {
  json::Value arr = json::Value::Array();
  for (const core::Pack& p : packs) {
    json::Value pair = json::Value::Array();
    pair.Append(json::Value::Int(p.lo));
    pair.Append(json::Value::Int(p.hi));
    arr.Append(std::move(pair));
  }
  return arr;
}

/// The Value form of bytes a Write* routine produced: the `*ToJson`
/// functions of the request types are this, so their field lists live in
/// the writers alone.
template <typename WriteFn>
json::Value Reparse(WriteFn write) {
  std::string bytes;
  json::Writer w(&bytes);
  write(&w);
  auto parsed = json::Parse(bytes);
  HARMONY_CHECK(parsed.ok()) << parsed.status();
  return std::move(parsed).value();
}

Result<core::PackList> PackListFromJson(const json::Value& v,
                                        std::string_view what) {
  if (!v.is_array()) {
    return Status::InvalidArgument(std::string(what) + ": not an array");
  }
  core::PackList packs;
  packs.reserve(v.size());
  for (const json::Value& item : v.items()) {
    constexpr int64_t kMin = std::numeric_limits<int>::min();
    constexpr int64_t kMax = std::numeric_limits<int>::max();
    if (!item.is_array() || item.size() != 2 || !item.at(0).is_number() ||
        !item.at(1).is_number() ||
        !json::IsIntegerIn(item.at(0).AsDouble(), kMin, kMax) ||
        !json::IsIntegerIn(item.at(1).AsDouble(), kMin, kMax)) {
      return Status::InvalidArgument(std::string(what) +
                                     ": pack must be [lo,hi] integers");
    }
    packs.push_back(core::Pack{static_cast<int>(item.at(0).AsDouble()),
                               static_cast<int>(item.at(1).AsDouble())});
  }
  return packs;
}

json::Value BytesArrayToJson(const runtime::PerDevice<Bytes>& xs) {
  json::Value arr = json::Value::Array();
  for (Bytes b : xs) arr.Append(json::Value::Int(b));
  return arr;
}

json::Value TimesArrayToJson(const runtime::PerDevice<TimeSec>& xs) {
  json::Value arr = json::Value::Array();
  for (TimeSec t : xs) arr.Append(json::Value::Number(t));
  return arr;
}

Status NumberArrayFromJson(const json::Value& obj, std::string_view key,
                           std::vector<double>* out) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr || !v->is_array()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' missing or not an array");
  }
  out->clear();
  for (const json::Value& item : v->items()) {
    if (!item.is_number()) {
      return Status::InvalidArgument("field '" + std::string(key) +
                                     "' has a non-numeric element");
    }
    out->push_back(item.AsDouble());
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// ModelSpec
// ---------------------------------------------------------------------------

Result<ModelSpec> ModelSpec::FromName(const std::string& name) {
  ModelSpec spec;
  spec.name = name;
  static const char* kBuiltins[] = {"BERT-Large", "BERT96",  "GPT2",
                                    "GPT2-Medium", "VGG416", "ResNet1K"};
  for (const char* b : kBuiltins) {
    if (name == b) return spec;
  }
  if (name.rfind("GPT2-", 0) == 0 && name.size() > 6 && name.back() == 'B') {
    char* end = nullptr;
    const double billions = std::strtod(name.c_str() + 5, &end);
    if (end == name.c_str() + name.size() - 1 && billions > 0) {
      spec.kind = Kind::kGpt2Custom;
      spec.billions = billions;
      return spec;
    }
  }
  return Status::InvalidArgument(
      "unknown model '" + name +
      "' (want BERT-Large|BERT96|GPT2|GPT2-Medium|VGG416|ResNet1K|GPT2-<N>B)");
}

Result<model::LayerGraph> BuildModel(const ModelSpec& spec) {
  switch (spec.kind) {
    case ModelSpec::Kind::kBuiltin:
      if (spec.name == "BERT-Large") return model::BertLarge();
      if (spec.name == "BERT96") return model::Bert96();
      if (spec.name == "GPT2") return model::Gpt2();
      if (spec.name == "GPT2-Medium") return model::Gpt2Medium();
      if (spec.name == "VGG416") return model::Vgg416();
      if (spec.name == "ResNet1K") return model::ResNet1K();
      return Status::InvalidArgument("unknown builtin model '" + spec.name + "'");
    case ModelSpec::Kind::kGpt2Custom:
      if (spec.billions <= 0) {
        return Status::InvalidArgument("gpt2-custom: billions must be > 0");
      }
      return model::Gpt2Custom(spec.billions);
    case ModelSpec::Kind::kTransformer: {
      if (spec.transformer.num_blocks < 1 || spec.transformer.hidden < 1 ||
          spec.transformer.seq_len < 1 || spec.transformer.heads < 1 ||
          spec.transformer.vocab < 1) {
        return Status::InvalidArgument("transformer: all dimensions must be >= 1");
      }
      return model::BuildTransformer(spec.transformer);
    }
  }
  return Status::Internal("corrupt ModelSpec kind");
}

model::Optimizer DefaultOptimizer(const ModelSpec& spec) {
  if (spec.kind == ModelSpec::Kind::kBuiltin &&
      (spec.name == "VGG416" || spec.name == "ResNet1K")) {
    return model::Optimizer::kSgdMomentum;
  }
  return model::Optimizer::kAdam;
}

void WriteModelSpec(const ModelSpec& spec, json::Writer* w) {
  w->BeginObject();
  switch (spec.kind) {
    case ModelSpec::Kind::kBuiltin:
      w->Field("kind", "builtin");
      w->Field("name", spec.name);
      break;
    case ModelSpec::Kind::kGpt2Custom:
      w->Field("kind", "gpt2-custom");
      w->Field("name", spec.name);
      w->Field("billions", spec.billions);
      break;
    case ModelSpec::Kind::kTransformer:
      w->Field("kind", "transformer");
      w->Field("name", spec.transformer.name);
      w->Field("blocks", spec.transformer.num_blocks);
      w->Field("hidden", spec.transformer.hidden);
      w->Field("seq_len", spec.transformer.seq_len);
      w->Field("heads", spec.transformer.heads);
      w->Field("vocab", spec.transformer.vocab);
      w->Field("is_bert", spec.transformer.is_bert);
      break;
  }
  w->EndObject();
}

json::Value ModelSpecToJson(const ModelSpec& spec) {
  return Reparse([&spec](json::Writer* w) { WriteModelSpec(spec, w); });
}

Result<ModelSpec> ModelSpecFromJson(const json::Value& v) {
  if (!v.is_object()) return Status::InvalidArgument("model: not an object");
  std::string kind;
  HARMONY_RETURN_IF_ERROR(json::ReadString(v, "kind", &kind));
  ModelSpec spec;
  if (kind == "builtin") {
    spec.kind = ModelSpec::Kind::kBuiltin;
    HARMONY_RETURN_IF_ERROR(json::ReadString(v, "name", &spec.name));
  } else if (kind == "gpt2-custom") {
    spec.kind = ModelSpec::Kind::kGpt2Custom;
    HARMONY_RETURN_IF_ERROR(json::ReadString(v, "name", &spec.name));
    HARMONY_RETURN_IF_ERROR(json::ReadDouble(v, "billions", &spec.billions));
  } else if (kind == "transformer") {
    spec.kind = ModelSpec::Kind::kTransformer;
    HARMONY_RETURN_IF_ERROR(json::ReadString(v, "name", &spec.transformer.name));
    spec.name = spec.transformer.name;
    HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "blocks", &spec.transformer.num_blocks));
    HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "hidden", &spec.transformer.hidden));
    HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "seq_len", &spec.transformer.seq_len));
    HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "heads", &spec.transformer.heads));
    HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "vocab", &spec.transformer.vocab));
    HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "is_bert", &spec.transformer.is_bert));
  } else {
    return Status::InvalidArgument("model: unknown kind '" + kind + "'");
  }
  return spec;
}

// ---------------------------------------------------------------------------
// MachineSpec
// ---------------------------------------------------------------------------

void WriteGpuSpec(const hw::GpuSpec& gpu, json::Writer* w) {
  w->BeginObject();
  w->Field("name", gpu.name);
  w->Field("memory_capacity", gpu.memory_capacity);
  w->Field("peak_flops", gpu.peak_flops);
  w->Field("usable_fraction", gpu.usable_fraction);
  w->EndObject();
}

namespace {

void WriteMachineSpec(const hw::MachineSpec& machine, json::Writer* w) {
  w->BeginObject();
  w->Field("name", machine.name);
  w->Key("gpu");
  WriteGpuSpec(machine.gpu, w);
  w->Field("num_gpus", machine.num_gpus);
  w->Field("num_switches", machine.num_switches);
  w->Key("gpu_to_switch");
  w->BeginArray();
  for (int s : machine.gpu_to_switch) w->Int(s);
  w->EndArray();
  w->Field("pcie_bw", machine.pcie_bw);
  w->Field("uplink_bw", machine.uplink_bw);
  w->Field("host_mem_bw", machine.host_mem_bw);
  w->Field("nvlink_bw", machine.nvlink_bw);
  w->Field("host_memory", machine.host_memory);
  w->Field("cpu_update_bw", machine.cpu_update_bw);
  // Heterogeneous-fleet fields: emitted only when present, so homogeneous
  // machines keep their historical canonical bytes (and cache fingerprints).
  if (!machine.per_gpu.empty()) {
    w->Key("per_gpu");
    w->BeginArray();
    for (const hw::GpuSpec& g : machine.per_gpu) WriteGpuSpec(g, w);
    w->EndArray();
  }
  if (!machine.link_bw_scale.empty()) {
    w->Key("link_bw_scale");
    w->BeginArray();
    for (double s : machine.link_bw_scale) w->Number(s);
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

json::Value MachineSpecToJson(const hw::MachineSpec& machine) {
  return Reparse([&machine](json::Writer* w) { WriteMachineSpec(machine, w); });
}

Result<hw::MachineSpec> MachineSpecFromJson(const json::Value& v) {
  if (!v.is_object()) return Status::InvalidArgument("machine: not an object");
  hw::MachineSpec m;
  HARMONY_RETURN_IF_ERROR(json::ReadString(v, "name", &m.name));
  const json::Value* gpu = v.Find("gpu");
  if (gpu == nullptr || !gpu->is_object()) {
    return Status::InvalidArgument("machine: 'gpu' missing or not an object");
  }
  HARMONY_RETURN_IF_ERROR(json::ReadString(*gpu, "name", &m.gpu.name));
  HARMONY_RETURN_IF_ERROR(json::ReadInt64(*gpu, "memory_capacity", &m.gpu.memory_capacity));
  HARMONY_RETURN_IF_ERROR(json::ReadDouble(*gpu, "peak_flops", &m.gpu.peak_flops));
  HARMONY_RETURN_IF_ERROR(json::ReadDouble(*gpu, "usable_fraction", &m.gpu.usable_fraction));
  HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "num_gpus", &m.num_gpus));
  HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "num_switches", &m.num_switches));
  std::vector<double> topo;
  HARMONY_RETURN_IF_ERROR(NumberArrayFromJson(v, "gpu_to_switch", &topo));
  for (double s : topo) {
    if (!json::IsIntegerIn(s, std::numeric_limits<int>::min(),
                           std::numeric_limits<int>::max())) {
      return Status::InvalidArgument(
          "machine: gpu_to_switch holds a non-integer");
    }
    m.gpu_to_switch.push_back(static_cast<int>(s));
  }
  if (static_cast<int>(m.gpu_to_switch.size()) != m.num_gpus) {
    return Status::InvalidArgument("machine: gpu_to_switch size != num_gpus");
  }
  HARMONY_RETURN_IF_ERROR(json::ReadDouble(v, "pcie_bw", &m.pcie_bw));
  HARMONY_RETURN_IF_ERROR(json::ReadDouble(v, "uplink_bw", &m.uplink_bw));
  HARMONY_RETURN_IF_ERROR(json::ReadDouble(v, "host_mem_bw", &m.host_mem_bw));
  HARMONY_RETURN_IF_ERROR(json::ReadDouble(v, "nvlink_bw", &m.nvlink_bw));
  HARMONY_RETURN_IF_ERROR(json::ReadInt64(v, "host_memory", &m.host_memory));
  HARMONY_RETURN_IF_ERROR(json::ReadDouble(v, "cpu_update_bw", &m.cpu_update_bw));
  if (m.num_gpus < 1) return Status::InvalidArgument("machine: num_gpus < 1");
  // Optional heterogeneous-fleet fields (absent from homogeneous peers).
  if (const json::Value* per = v.Find("per_gpu"); per != nullptr) {
    if (!per->is_array()) {
      return Status::InvalidArgument("machine: per_gpu is not an array");
    }
    for (size_t i = 0; i < per->size(); ++i) {
      const json::Value& pg = per->at(i);
      if (!pg.is_object()) {
        return Status::InvalidArgument("machine: per_gpu entry not an object");
      }
      hw::GpuSpec g;
      HARMONY_RETURN_IF_ERROR(json::ReadString(pg, "name", &g.name));
      HARMONY_RETURN_IF_ERROR(
          json::ReadInt64(pg, "memory_capacity", &g.memory_capacity));
      HARMONY_RETURN_IF_ERROR(json::ReadDouble(pg, "peak_flops", &g.peak_flops));
      HARMONY_RETURN_IF_ERROR(
          json::ReadDouble(pg, "usable_fraction", &g.usable_fraction));
      m.per_gpu.push_back(std::move(g));
    }
  }
  if (v.Find("link_bw_scale") != nullptr) {
    HARMONY_RETURN_IF_ERROR(
        NumberArrayFromJson(v, "link_bw_scale", &m.link_bw_scale));
  }
  HARMONY_RETURN_IF_ERROR(m.Validate());
  return m;
}

// ---------------------------------------------------------------------------
// SearchOptions / OptimizationFlags
// ---------------------------------------------------------------------------

namespace {

/// `canonical` keeps only the five knobs that change the chosen plan: the
/// thread count and keep_explored shape how the search runs, never its
/// result, so the fingerprint leaves them out.
void WriteSearchOptions(const core::SearchOptions& options, bool canonical,
                        json::Writer* w) {
  w->BeginObject();
  w->Field("u_fwd_max", options.u_fwd_max);
  w->Field("u_bwd_max", options.u_bwd_max);
  w->Field("capacity_fraction", options.capacity_fraction);
  w->Field("equi_fb", options.equi_fb);
  if (!canonical) {
    w->Field("num_threads", options.num_threads);
    w->Field("keep_explored", options.keep_explored);
  }
  w->Field("policy_mode", core::PolicyModeName(options.policy_mode));
  w->EndObject();
}

}  // namespace

json::Value SearchOptionsToJson(const core::SearchOptions& options) {
  return Reparse([&options](json::Writer* w) {
    WriteSearchOptions(options, /*canonical=*/false, w);
  });
}

Result<core::SearchOptions> SearchOptionsFromJson(const json::Value& v) {
  if (!v.is_object()) return Status::InvalidArgument("options: not an object");
  core::SearchOptions o;
  HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "u_fwd_max", &o.u_fwd_max));
  HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "u_bwd_max", &o.u_bwd_max));
  HARMONY_RETURN_IF_ERROR(json::ReadDouble(v, "capacity_fraction", &o.capacity_fraction));
  HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "equi_fb", &o.equi_fb));
  HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "num_threads", &o.num_threads));
  HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "keep_explored", &o.keep_explored));
  // Out-of-range values would trip CHECKs deep in the search (a non-positive
  // packing capacity aborts the process), so reject them at the boundary.
  if (!(o.capacity_fraction > 0.0 && o.capacity_fraction <= 1.0)) {
    return Status::InvalidArgument("options: capacity_fraction must be in (0, 1]");
  }
  if (o.u_fwd_max < 1 || o.u_bwd_max < 1) {
    return Status::InvalidArgument("options: u_fwd_max and u_bwd_max must be >= 1");
  }
  for (const auto& [name, value] :
       {std::pair{"u_fwd_max", o.u_fwd_max}, std::pair{"u_bwd_max", o.u_bwd_max}}) {
    if (value > kMaxRequestMicrobatch) {
      return Status::InvalidArgument(
          "options: " + std::string(name) + " " + std::to_string(value) +
          " exceeds " + std::to_string(kMaxRequestMicrobatch));
    }
  }
  if (o.num_threads > kMaxRequestThreads) {
    return Status::InvalidArgument(
        "options: num_threads " + std::to_string(o.num_threads) +
        " exceeds " + std::to_string(kMaxRequestThreads));
  }
  // Residency-policy knob: absent from pre-policy peers, so default to legacy.
  std::string policy_mode = "legacy";
  (void)json::ReadString(v, "policy_mode", &policy_mode);
  auto pm = core::PolicyModeFromName(policy_mode);
  HARMONY_RETURN_IF_ERROR(pm.status());
  o.policy_mode = pm.value();
  return o;
}

namespace {

void WriteOptimizationFlags(const core::OptimizationFlags& flags,
                            json::Writer* w) {
  w->BeginObject();
  w->Field("input_batch_grouping", flags.input_batch_grouping);
  w->Field("jit_update", flags.jit_update);
  w->Field("jit_compute", flags.jit_compute);
  w->Field("p2p_transfers", flags.p2p_transfers);
  w->Field("prefetch", flags.prefetch);
  w->Field("cpu_optimizer", flags.cpu_optimizer);
  w->Field("smart_eviction", flags.smart_eviction);
  // The stash policy lives in Configuration::policy and SearchOptions; the
  // key stays a constant so canonical bytes and fingerprints do not move.
  w->Field("use_recompute", true);
  w->EndObject();
}

}  // namespace

json::Value OptimizationFlagsToJson(const core::OptimizationFlags& flags) {
  return Reparse(
      [&flags](json::Writer* w) { WriteOptimizationFlags(flags, w); });
}

Result<core::OptimizationFlags> OptimizationFlagsFromJson(const json::Value& v) {
  if (!v.is_object()) return Status::InvalidArgument("flags: not an object");
  core::OptimizationFlags f;
  HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "input_batch_grouping", &f.input_batch_grouping));
  HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "jit_update", &f.jit_update));
  HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "jit_compute", &f.jit_compute));
  HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "p2p_transfers", &f.p2p_transfers));
  HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "prefetch", &f.prefetch));
  HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "cpu_optimizer", &f.cpu_optimizer));
  HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "smart_eviction", &f.smart_eviction));
  bool use_recompute = true;
  HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "use_recompute", &use_recompute));
  if (!use_recompute) {
    return Status::InvalidArgument(
        "flags: use_recompute must be true; select a keep-all stash with "
        "policy_mode=keep");
  }
  return f;
}

// ---------------------------------------------------------------------------
// Configuration / Estimate / RunMetrics
// ---------------------------------------------------------------------------

json::Value ConfigurationToJson(const core::Configuration& config) {
  json::Value v = json::Value::Object();
  v.Set("u_fwd", config.u_fwd);
  v.Set("u_bwd", config.u_bwd);
  v.Set("fwd_packs", PackListToJson(config.fwd_packs));
  v.Set("bwd_packs", PackListToJson(config.bwd_packs));
  v.Set("policy", config.policy.ToString());
  return v;
}

Result<core::Configuration> ConfigurationFromJson(const json::Value& v) {
  if (!v.is_object()) return Status::InvalidArgument("config: not an object");
  core::Configuration c;
  HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "u_fwd", &c.u_fwd));
  HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "u_bwd", &c.u_bwd));
  const json::Value* fwd = v.Find("fwd_packs");
  const json::Value* bwd = v.Find("bwd_packs");
  if (fwd == nullptr || bwd == nullptr) {
    return Status::InvalidArgument("config: missing pack lists");
  }
  auto f = PackListFromJson(*fwd, "fwd_packs");
  HARMONY_RETURN_IF_ERROR(f.status());
  auto b = PackListFromJson(*bwd, "bwd_packs");
  HARMONY_RETURN_IF_ERROR(b.status());
  c.fwd_packs = std::move(f).value();
  c.bwd_packs = std::move(b).value();
  // Residency policy: absent from pre-policy peers ⇒ empty table (legacy).
  std::string policy;
  (void)json::ReadString(v, "policy", &policy);
  auto table = model::PolicyTable::FromString(policy);
  HARMONY_RETURN_IF_ERROR(table.status());
  c.policy = std::move(table).value();
  return c;
}

json::Value EstimateToJson(const core::Estimate& estimate) {
  json::Value v = json::Value::Object();
  v.Set("iteration_time", estimate.iteration_time);
  v.Set("swap_bytes", estimate.swap_bytes);
  v.Set("p2p_bytes", estimate.p2p_bytes);
  return v;
}

Result<core::Estimate> EstimateFromJson(const json::Value& v) {
  if (!v.is_object()) return Status::InvalidArgument("estimate: not an object");
  core::Estimate e;
  HARMONY_RETURN_IF_ERROR(json::ReadDouble(v, "iteration_time", &e.iteration_time));
  HARMONY_RETURN_IF_ERROR(json::ReadInt64(v, "swap_bytes", &e.swap_bytes));
  HARMONY_RETURN_IF_ERROR(json::ReadInt64(v, "p2p_bytes", &e.p2p_bytes));
  return e;
}

json::Value RunMetricsToJson(const runtime::RunMetrics& metrics) {
  json::Value v = json::Value::Object();
  v.Set("iteration_time", metrics.iteration_time);
  v.Set("swap_in_bytes", BytesArrayToJson(metrics.swap_in_bytes));
  v.Set("swap_out_bytes", BytesArrayToJson(metrics.swap_out_bytes));
  v.Set("p2p_bytes", BytesArrayToJson(metrics.p2p_bytes));
  v.Set("compute_busy", TimesArrayToJson(metrics.compute_busy));
  v.Set("peak_device_bytes", BytesArrayToJson(metrics.peak_device_bytes));
  v.Set("peak_host_bytes", metrics.peak_host_bytes);
  v.Set("evictions", metrics.evictions);
  v.Set("clean_drops", metrics.clean_drops);
  v.Set("faults_injected", metrics.faults_injected);
  v.Set("faults_recovered", metrics.faults_recovered);
  v.Set("recovery_bytes", metrics.recovery_bytes);
  return v;
}

Result<runtime::RunMetrics> RunMetricsFromJson(const json::Value& v) {
  if (!v.is_object()) return Status::InvalidArgument("metrics: not an object");
  runtime::RunMetrics m;
  HARMONY_RETURN_IF_ERROR(json::ReadDouble(v, "iteration_time", &m.iteration_time));
  std::vector<double> tmp;
  // Per-device arrays: no machine has more than hw::kMaxGpus devices.
  auto read_array = [&v, &tmp](const char* key) {
    HARMONY_RETURN_IF_ERROR(NumberArrayFromJson(v, key, &tmp));
    if (tmp.size() > static_cast<size_t>(hw::kMaxGpus)) {
      return Status::InvalidArgument("metrics: field '" + std::string(key) +
                                     "' has more than " +
                                     std::to_string(hw::kMaxGpus) + " devices");
    }
    return Status::Ok();
  };
  auto read_bytes = [&read_array, &tmp](const char* key,
                                        runtime::PerDevice<Bytes>* out) {
    HARMONY_RETURN_IF_ERROR(read_array(key));
    for (double b : tmp) {
      if (!json::IsIntegerIn(b, std::numeric_limits<Bytes>::min(),
                             std::numeric_limits<Bytes>::max())) {
        return Status::InvalidArgument("metrics: field '" + std::string(key) +
                                       "' holds a non-integer");
      }
      out->push_back(static_cast<Bytes>(b));
    }
    return Status::Ok();
  };
  HARMONY_RETURN_IF_ERROR(read_bytes("swap_in_bytes", &m.swap_in_bytes));
  HARMONY_RETURN_IF_ERROR(read_bytes("swap_out_bytes", &m.swap_out_bytes));
  HARMONY_RETURN_IF_ERROR(read_bytes("p2p_bytes", &m.p2p_bytes));
  HARMONY_RETURN_IF_ERROR(read_array("compute_busy"));
  m.compute_busy.assign(tmp.begin(), tmp.end());
  HARMONY_RETURN_IF_ERROR(
      read_bytes("peak_device_bytes", &m.peak_device_bytes));
  HARMONY_RETURN_IF_ERROR(json::ReadInt64(v, "peak_host_bytes", &m.peak_host_bytes));
  HARMONY_RETURN_IF_ERROR(json::ReadInt64(v, "evictions", &m.evictions));
  HARMONY_RETURN_IF_ERROR(json::ReadInt64(v, "clean_drops", &m.clean_drops));
  // Chaos accounting: absent from pre-fault peers, so default to zero.
  (void)json::ReadInt64(v, "faults_injected", &m.faults_injected);
  (void)json::ReadInt64(v, "faults_recovered", &m.faults_recovered);
  (void)json::ReadInt64(v, "recovery_bytes", &m.recovery_bytes);
  return m;
}

// ---------------------------------------------------------------------------
// PlanRequest / PlanResponse
// ---------------------------------------------------------------------------

namespace {

/// Shared by the wire writer and the canonical fingerprint string: the
/// semantic members every encoding of a request starts with.
void AppendSemanticFields(const PlanRequest& request, bool canonical,
                          json::Writer* w) {
  w->Key("model");
  WriteModelSpec(request.model, w);
  w->Key("machine");
  WriteMachineSpec(request.machine, w);
  w->Field("mode", ModeWireName(request.mode));
  w->Field("minibatch", request.minibatch);
  w->Key("flags");
  WriteOptimizationFlags(request.flags, w);
  w->Key("options");
  WriteSearchOptions(request.options, canonical, w);
  w->Field("run_iteration", request.run_iteration);
}

}  // namespace

json::Value PlanRequestToJson(const PlanRequest& request) {
  return Reparse([&request](json::Writer* w) {
    w->BeginObject();
    AppendSemanticFields(request, /*canonical=*/false, w);
    w->Field("deadline_ms", request.deadline_ms);
    w->Field("bypass_cache", request.bypass_cache);
    w->EndObject();
  });
}

Result<PlanRequest> PlanRequestFromJson(const json::Value& v) {
  if (!v.is_object()) return Status::InvalidArgument("request: not an object");
  PlanRequest r;
  const json::Value* model = v.Find("model");
  if (model == nullptr) return Status::InvalidArgument("request: missing 'model'");
  auto m = ModelSpecFromJson(*model);
  HARMONY_RETURN_IF_ERROR(m.status());
  r.model = std::move(m).value();
  const json::Value* machine = v.Find("machine");
  if (machine == nullptr) return Status::InvalidArgument("request: missing 'machine'");
  auto mach = MachineSpecFromJson(*machine);
  HARMONY_RETURN_IF_ERROR(mach.status());
  r.machine = std::move(mach).value();
  std::string mode;
  HARMONY_RETURN_IF_ERROR(json::ReadString(v, "mode", &mode));
  auto md = ModeFromWireName(mode);
  HARMONY_RETURN_IF_ERROR(md.status());
  r.mode = md.value();
  HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "minibatch", &r.minibatch));
  if (r.minibatch < 1) return Status::InvalidArgument("request: minibatch < 1");
  if (r.minibatch > kMaxRequestMinibatch) {
    return Status::InvalidArgument(
        "request: minibatch " + std::to_string(r.minibatch) + " exceeds " +
        std::to_string(kMaxRequestMinibatch));
  }
  const json::Value* flags = v.Find("flags");
  if (flags == nullptr) return Status::InvalidArgument("request: missing 'flags'");
  auto f = OptimizationFlagsFromJson(*flags);
  HARMONY_RETURN_IF_ERROR(f.status());
  r.flags = f.value();
  const json::Value* options = v.Find("options");
  if (options == nullptr) return Status::InvalidArgument("request: missing 'options'");
  auto o = SearchOptionsFromJson(*options);
  HARMONY_RETURN_IF_ERROR(o.status());
  r.options = o.value();
  HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "run_iteration", &r.run_iteration));
  HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "deadline_ms", &r.deadline_ms));
  HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "bypass_cache", &r.bypass_cache));
  return r;
}

json::Value PlanResponseToJson(const PlanResponse& response) {
  json::Value v = json::Value::Object();
  v.Set("status", Status(response.status.code(), "").ToString());
  v.Set("message", response.status.message());
  v.Set("fingerprint", json::FingerprintHex(response.fingerprint));
  v.Set("cache_hit", response.cache_hit);
  v.Set("filled_from", response.filled_from);
  v.Set("retry_after_ms", response.retry_after_ms);
  v.Set("latency_seconds", response.latency_seconds);
  if (response.status.ok()) {
    v.Set("config", ConfigurationToJson(response.config));
    v.Set("estimate", EstimateToJson(response.estimate));
    v.Set("configs_explored", response.configs_explored);
    v.Set("configs_feasible", response.configs_feasible);
    v.Set("search_seconds", response.search_seconds);
    if (response.has_metrics) {
      v.Set("metrics", RunMetricsToJson(response.metrics));
    }
  }
  return v;
}

Result<PlanResponse> PlanResponseFromJson(const json::Value& v) {
  if (!v.is_object()) return Status::InvalidArgument("response: not an object");
  PlanResponse r;
  std::string code_name, message, fp_hex;
  HARMONY_RETURN_IF_ERROR(json::ReadString(v, "status", &code_name));
  HARMONY_RETURN_IF_ERROR(json::ReadString(v, "message", &message));
  auto code = StatusCodeFromName(code_name);
  HARMONY_RETURN_IF_ERROR(code.status());
  r.status = Status(code.value(), std::move(message));
  HARMONY_RETURN_IF_ERROR(json::ReadString(v, "fingerprint", &fp_hex));
  auto fp = json::ParseFingerprintHex(fp_hex);
  HARMONY_RETURN_IF_ERROR(fp.status());
  r.fingerprint = fp.value();
  HARMONY_RETURN_IF_ERROR(json::ReadBool(v, "cache_hit", &r.cache_hit));
  // Tier provenance: absent from pre-cluster peers, so default to "".
  (void)json::ReadString(v, "filled_from", &r.filled_from);
  HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "retry_after_ms", &r.retry_after_ms));
  HARMONY_RETURN_IF_ERROR(json::ReadDouble(v, "latency_seconds", &r.latency_seconds));
  if (!r.status.ok()) return r;
  const json::Value* config = v.Find("config");
  if (config == nullptr) return Status::InvalidArgument("response: missing 'config'");
  auto c = ConfigurationFromJson(*config);
  HARMONY_RETURN_IF_ERROR(c.status());
  r.config = std::move(c).value();
  const json::Value* estimate = v.Find("estimate");
  if (estimate == nullptr) return Status::InvalidArgument("response: missing 'estimate'");
  auto e = EstimateFromJson(*estimate);
  HARMONY_RETURN_IF_ERROR(e.status());
  r.estimate = e.value();
  HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "configs_explored", &r.configs_explored));
  HARMONY_RETURN_IF_ERROR(json::ReadInt(v, "configs_feasible", &r.configs_feasible));
  HARMONY_RETURN_IF_ERROR(json::ReadDouble(v, "search_seconds", &r.search_seconds));
  if (const json::Value* metrics = v.Find("metrics"); metrics != nullptr) {
    auto m = RunMetricsFromJson(*metrics);
    HARMONY_RETURN_IF_ERROR(m.status());
    r.metrics = std::move(m).value();
    r.has_metrics = true;
  }
  return r;
}

namespace {

/// The reference encoder of a plan reply frame.
std::string PlanReplyDom(const PlanResponse& response) {
  json::Value reply = json::Value::Object();
  reply.Set("type", "plan");
  reply.Set("response", PlanResponseToJson(response));
  return reply.Dump();
}

}  // namespace

HitReply EncodeHitReply(const PlanResponse& hit) {
  PlanResponse at_zero = hit;
  at_zero.latency_seconds = 0;
  const std::string frame = PlanReplyDom(at_zero);
  // Only status, an empty message, the fingerprint, cache_hit, an empty
  // filled_from and retry_after_ms precede the key, and inside a string a
  // quote is always escaped, so the first match is the member itself.
  constexpr std::string_view kKey = "\"latency_seconds\":0";
  const size_t at = frame.find(kKey);
  HARMONY_CHECK(at != std::string::npos) << frame;
  const size_t value = at + kKey.size() - 1;
  return HitReply{frame.substr(0, value), frame.substr(value + 1)};
}

std::string PlanReplyFrame(const PlanResponse& response) {
  if (response.hit_reply == nullptr) return PlanReplyDom(response);
  const HitReply& reply = *response.hit_reply;
  std::string frame;
  frame.reserve(reply.head.size() + 32 + reply.tail.size());
  frame += reply.head;
  json::AppendNumber(response.latency_seconds, &frame);
  frame += reply.tail;
  return frame;
}

json::Value CacheGetRequestToJson(const CacheGetRequest& request) {
  json::Value v = json::Value::Object();
  v.Set("type", "cache_get");
  v.Set("fingerprint", json::FingerprintHex(request.fingerprint));
  v.Set("canonical", request.canonical_request);
  return v;
}

Result<CacheGetRequest> CacheGetRequestFromJson(const json::Value& v) {
  if (!v.is_object()) return Status::InvalidArgument("cache_get: not an object");
  std::string type;
  HARMONY_RETURN_IF_ERROR(json::ReadString(v, "type", &type));
  if (type != "cache_get") {
    return Status::InvalidArgument("cache_get: envelope type is '" + type + "'");
  }
  CacheGetRequest r;
  std::string fp_hex;
  HARMONY_RETURN_IF_ERROR(json::ReadString(v, "fingerprint", &fp_hex));
  auto fp = json::ParseFingerprintHex(fp_hex);
  HARMONY_RETURN_IF_ERROR(fp.status());
  r.fingerprint = fp.value();
  HARMONY_RETURN_IF_ERROR(
      json::ReadString(v, "canonical", &r.canonical_request));
  // The fingerprint is a function of the bytes it travels with; a peer
  // that disagrees is confused or forging, not asking for a plan.
  if (r.fingerprint != json::Fnv1a(r.canonical_request)) {
    return Status::InvalidArgument(
        "cache_get: fingerprint is not the hash of the canonical request");
  }
  return r;
}

std::string CanonicalRequestJson(const PlanRequest& request) {
  std::string out;
  out.reserve(1024);
  json::Writer w(&out);
  w.BeginObject();
  AppendSemanticFields(request, /*canonical=*/true, &w);
  w.EndObject();
  return out;
}

uint64_t RequestFingerprint(const PlanRequest& request) {
  return json::Fnv1a(CanonicalRequestJson(request));
}

}  // namespace harmony::serve
