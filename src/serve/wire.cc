#include "serve/wire.h"

#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <type_traits>
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

/// One member a byte decoder reads, with the JSON type a missing or
/// mistyped occurrence is reported as.
struct Member {
  std::string_view key;
  const char* want;
};

template <size_t N>
constexpr uint32_t AllOf(const std::array<Member, N>&) {
  return (uint32_t{1} << N) - 1;
}

/// Walks the object at `r`: calls `read(i)`, with the reader at the value,
/// for the first occurrence of each key in `members`, and skips (still
/// validating) every other member, unknown or repeated. So the first
/// occurrence wins, as with json::Value::Find.
template <size_t N, typename ReadFn>
Status ReadMembers(json::Reader* r, std::string_view what,
                   const std::array<Member, N>& members, ReadFn read) {
  static_assert(N <= 32);
  if (r->Peek() != json::Value::Type::kObject) {
    return Status::InvalidArgument(std::string(what) + ": not an object");
  }
  HARMONY_RETURN_IF_ERROR(r->BeginObject());
  uint32_t seen = 0;
  std::string_view key;
  bool more = false;
  for (;;) {
    HARMONY_RETURN_IF_ERROR(r->NextMember(&key, &more));
    if (!more) return Status::Ok();
    size_t i = 0;
    // Member keys are never empty; the first byte settles most mismatches.
    while (i < N && ((seen >> i & 1) != 0 || members[i].key.size() != key.size() ||
                     members[i].key[0] != key[0] || members[i].key != key)) {
      ++i;
    }
    if (i == N) {
      HARMONY_RETURN_IF_ERROR(r->Skip());
      continue;
    }
    seen |= uint32_t{1} << i;
    HARMONY_RETURN_IF_ERROR(read(i));
  }
}

/// The first of the `required` members (a bit mask) missing from `got`.
template <size_t N>
Status Require(const std::array<Member, N>& members, uint32_t got,
               uint32_t required) {
  for (size_t i = 0; i < N; ++i) {
    if ((required >> i & 1) != 0 && (got >> i & 1) == 0) {
      return json::MissingOrMistyped(members[i].key, members[i].want);
    }
  }
  return Status::Ok();
}

/// Reads member `i`'s value into `*out` and sets bit `i` of `*got` when the
/// value has out's JSON type; skips any other value, still validating it,
/// so Require reports the member as missing or mistyped. Integers travel
/// as numbers; a double must be finite, since the parser maps 1e999 to inf
/// and canonical bytes would render that as null.
template <size_t N, typename T>
Status Take(json::Reader* r, const std::array<Member, N>& members, size_t i,
            uint32_t* got, T* out) {
  using Type = json::Value::Type;
  constexpr Type kWant = std::is_same_v<T, bool>          ? Type::kBool
                         : std::is_same_v<T, std::string> ? Type::kString
                                                          : Type::kNumber;
  if (r->Peek() != kWant) return r->Skip();
  *got |= uint32_t{1} << i;
  if constexpr (kWant == Type::kBool) {
    return r->ReadBool(out);
  } else if constexpr (kWant == Type::kString) {
    return r->ReadString(out);
  } else if constexpr (std::is_same_v<T, double>) {
    HARMONY_RETURN_IF_ERROR(r->ReadNumber(out));
    if (std::isfinite(*out)) return Status::Ok();
    return Status::InvalidArgument("json: field '" + std::string(members[i].key) +
                                   "' is not finite");
  } else {
    double d = 0;
    HARMONY_RETURN_IF_ERROR(r->ReadNumber(&d));
    return json::ToInteger(members[i].key, d, out);
  }
}

/// Reads the array at `r`, calling `item()` with the reader at each item.
template <typename ItemFn>
Status ReadArray(json::Reader* r, std::string_view key, ItemFn item) {
  if (r->Peek() != json::Value::Type::kArray) {
    return json::MissingOrMistyped(key, "array");
  }
  HARMONY_RETURN_IF_ERROR(r->BeginArray());
  bool more = false;
  for (;;) {
    HARMONY_RETURN_IF_ERROR(r->NextItem(&more));
    if (!more) return Status::Ok();
    HARMONY_RETURN_IF_ERROR(item());
  }
}

/// An array item that must be a finite number.
Status ReadNumberItem(json::Reader* r, std::string_view key, double* out) {
  if (r->Peek() != json::Value::Type::kNumber) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' has a non-numeric element");
  }
  HARMONY_RETURN_IF_ERROR(r->ReadNumber(out));
  if (!std::isfinite(*out)) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' has a non-finite element");
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

Status ModelSpec::Validate() const {
  if (kind == Kind::kGpt2Custom &&
      !(billions > 0 && billions <= kMaxModelBillions)) {
    return Status::InvalidArgument(
        "gpt2-custom: billions must be in (0, " +
        std::to_string(static_cast<int>(kMaxModelBillions)) + "]");
  }
  if (kind != Kind::kTransformer) return Status::Ok();
  const std::pair<const char*, std::pair<int, int>> dims[] = {
      {"blocks", {transformer.num_blocks, kMaxModelBlocks}},
      {"hidden", {transformer.hidden, kMaxModelHidden}},
      {"seq_len", {transformer.seq_len, kMaxModelSeqLen}},
      {"heads", {transformer.heads, kMaxModelHeads}},
      {"vocab", {transformer.vocab, kMaxModelVocab}}};
  for (const auto& [name, value_max] : dims) {
    const auto [value, max] = value_max;
    if (value < 1 || value > max) {
      return Status::InvalidArgument(
          "transformer: " + std::string(name) + " " + std::to_string(value) +
          " outside [1, " + std::to_string(max) + "]");
    }
  }
  return Status::Ok();
}

Result<model::LayerGraph> BuildModel(const ModelSpec& spec) {
  HARMONY_RETURN_IF_ERROR(spec.Validate());
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
      return model::Gpt2Custom(spec.billions);
    case ModelSpec::Kind::kTransformer:
      return model::BuildTransformer(spec.transformer);
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

namespace {

enum ModelMember { kKind, kName, kBillions, kBlocks, kHidden, kSeqLen, kHeads,
                   kVocab, kIsBert };
constexpr std::array<Member, 9> kModelMembers = {{
    {"kind", "string"}, {"name", "string"}, {"billions", "number"},
    {"blocks", "number"}, {"hidden", "number"}, {"seq_len", "number"},
    {"heads", "number"}, {"vocab", "number"}, {"is_bert", "bool"}}};

constexpr uint32_t Bit(int member) { return uint32_t{1} << member; }

}  // namespace

Status Decode(json::Reader* r, ModelSpec* out) {
  // Which members a spec needs depends on its kind, which may come last:
  // read every member of the right type, then require the kind's.
  uint32_t got = 0;
  std::string kind;
  double billions = 0;
  double dims[5] = {};  // blocks, hidden, seq_len, heads, vocab
  bool is_bert = false;
  HARMONY_RETURN_IF_ERROR(ReadMembers(r, "model", kModelMembers, [&](size_t i) {
    switch (i) {
      case kKind: return Take(r, kModelMembers, i, &got, &kind);
      case kName: return Take(r, kModelMembers, i, &got, &out->name);
      case kBillions: return Take(r, kModelMembers, i, &got, &billions);
      case kIsBert: return Take(r, kModelMembers, i, &got, &is_bert);
      default:  // an integer, converted once the kind says it is needed
        if (r->Peek() != json::Value::Type::kNumber) return r->Skip();
        got |= Bit(static_cast<int>(i));
        return r->ReadNumber(&dims[i - kBlocks]);
    }
  }));
  HARMONY_RETURN_IF_ERROR(Require(kModelMembers, got, Bit(kKind)));
  if (kind == "builtin") {
    out->kind = ModelSpec::Kind::kBuiltin;
    return Require(kModelMembers, got, Bit(kName));
  }
  if (kind == "gpt2-custom") {
    out->kind = ModelSpec::Kind::kGpt2Custom;
    HARMONY_RETURN_IF_ERROR(
        Require(kModelMembers, got, Bit(kName) | Bit(kBillions)));
    out->billions = billions;
    return out->Validate();
  }
  if (kind == "transformer") {
    out->kind = ModelSpec::Kind::kTransformer;
    HARMONY_RETURN_IF_ERROR(Require(kModelMembers, got,
                                    AllOf(kModelMembers) & ~Bit(kKind) &
                                        ~Bit(kBillions)));
    model::TransformerConfig& t = out->transformer;
    t.name = out->name;
    int* const fields[] = {&t.num_blocks, &t.hidden, &t.seq_len, &t.heads,
                           &t.vocab};
    for (int d = 0; d < 5; ++d) {
      HARMONY_RETURN_IF_ERROR(
          json::ToInteger(kModelMembers[kBlocks + d].key, dims[d], fields[d]));
    }
    t.is_bert = is_bert;
    return out->Validate();
  }
  return Status::InvalidArgument("model: unknown kind '" + kind + "'");
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

namespace {

constexpr std::array<Member, 4> kGpuMembers = {{{"name", "string"},
                                                {"memory_capacity", "number"},
                                                {"peak_flops", "number"},
                                                {"usable_fraction", "number"}}};

enum MachineMember { kMachineName, kGpu, kNumGpus, kNumSwitches, kGpuToSwitch,
                     kPcieBw, kUplinkBw, kHostMemBw, kNvlinkBw, kHostMemory,
                     kCpuUpdateBw, kPerGpu, kLinkBwScale };
constexpr std::array<Member, 13> kMachineMembers = {{
    {"name", "string"}, {"gpu", "object"}, {"num_gpus", "number"},
    {"num_switches", "number"}, {"gpu_to_switch", "array"},
    {"pcie_bw", "number"}, {"uplink_bw", "number"},
    {"host_mem_bw", "number"}, {"nvlink_bw", "number"},
    {"host_memory", "number"}, {"cpu_update_bw", "number"},
    {"per_gpu", "array"}, {"link_bw_scale", "array"}}};

}  // namespace

Status Decode(json::Reader* r, hw::GpuSpec* out) {
  uint32_t got = 0;
  HARMONY_RETURN_IF_ERROR(ReadMembers(r, "gpu", kGpuMembers, [&](size_t i) {
    switch (i) {
      case 0: return Take(r, kGpuMembers, i, &got, &out->name);
      case 1: return Take(r, kGpuMembers, i, &got, &out->memory_capacity);
      case 2: return Take(r, kGpuMembers, i, &got, &out->peak_flops);
      default:
        return Take(r, kGpuMembers, i, &got, &out->usable_fraction);
    }
  }));
  return Require(kGpuMembers, got, AllOf(kGpuMembers));
}

Status Decode(json::Reader* r, hw::MachineSpec* out) {
  // The heterogeneous-fleet members are optional: homogeneous peers omit them.
  out->gpu_to_switch.clear();
  out->per_gpu.clear();
  out->link_bw_scale.clear();
  uint32_t got = 0;
  HARMONY_RETURN_IF_ERROR(ReadMembers(r, "machine", kMachineMembers, [&](size_t i) {
    switch (i) {
      case kMachineName: return Take(r, kMachineMembers, i, &got, &out->name);
      case kGpu:
        got |= Bit(kGpu);
        return Decode(r, &out->gpu);
      case kNumGpus: return Take(r, kMachineMembers, i, &got, &out->num_gpus);
      case kNumSwitches:
        return Take(r, kMachineMembers, i, &got, &out->num_switches);
      case kGpuToSwitch:
        got |= Bit(kGpuToSwitch);
        return ReadArray(r, "gpu_to_switch", [&] {
          double d = 0;
          int s = 0;
          HARMONY_RETURN_IF_ERROR(ReadNumberItem(r, "gpu_to_switch", &d));
          HARMONY_RETURN_IF_ERROR(json::ToInteger("gpu_to_switch", d, &s));
          out->gpu_to_switch.push_back(s);
          return Status::Ok();
        });
      case kPcieBw: return Take(r, kMachineMembers, i, &got, &out->pcie_bw);
      case kUplinkBw: return Take(r, kMachineMembers, i, &got, &out->uplink_bw);
      case kHostMemBw:
        return Take(r, kMachineMembers, i, &got, &out->host_mem_bw);
      case kNvlinkBw: return Take(r, kMachineMembers, i, &got, &out->nvlink_bw);
      case kHostMemory:
        return Take(r, kMachineMembers, i, &got, &out->host_memory);
      case kCpuUpdateBw:
        return Take(r, kMachineMembers, i, &got, &out->cpu_update_bw);
      case kPerGpu:
        return ReadArray(r, "per_gpu", [&] {
          return Decode(r, &out->per_gpu.emplace_back());
        });
      default:
        return ReadArray(r, "link_bw_scale", [&] {
          return ReadNumberItem(r, "link_bw_scale",
                                &out->link_bw_scale.emplace_back());
        });
    }
  }));
  HARMONY_RETURN_IF_ERROR(Require(kMachineMembers, got,
                                  Bit(kPerGpu) - 1));
  return out->Validate();
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

namespace {

enum OptionsMember { kUFwdMax, kUBwdMax, kCapacityFraction, kEquiFb,
                     kNumThreads, kKeepExplored, kPolicyMode };
constexpr std::array<Member, 7> kOptionsMembers = {{
    {"u_fwd_max", "number"}, {"u_bwd_max", "number"},
    {"capacity_fraction", "number"}, {"equi_fb", "bool"},
    {"num_threads", "number"}, {"keep_explored", "bool"},
    {"policy_mode", "string"}}};

}  // namespace

Status Decode(json::Reader* r, core::SearchOptions* out) {
  uint32_t got = 0;
  std::string policy_mode;
  HARMONY_RETURN_IF_ERROR(ReadMembers(r, "options", kOptionsMembers, [&](size_t i) {
    switch (i) {
      case kUFwdMax: return Take(r, kOptionsMembers, i, &got, &out->u_fwd_max);
      case kUBwdMax: return Take(r, kOptionsMembers, i, &got, &out->u_bwd_max);
      case kCapacityFraction:
        return Take(r, kOptionsMembers, i, &got, &out->capacity_fraction);
      case kEquiFb: return Take(r, kOptionsMembers, i, &got, &out->equi_fb);
      case kNumThreads:
        return Take(r, kOptionsMembers, i, &got, &out->num_threads);
      case kKeepExplored:
        return Take(r, kOptionsMembers, i, &got, &out->keep_explored);
      default:
        // Absent from pre-policy peers; when present, it names a mode.
        if (r->Peek() != json::Value::Type::kString) {
          return json::MissingOrMistyped("policy_mode", "string");
        }
        got |= Bit(kPolicyMode);
        return r->ReadString(&policy_mode);
    }
  }));
  HARMONY_RETURN_IF_ERROR(Require(kOptionsMembers, got, Bit(kPolicyMode) - 1));
  // Out-of-range values would trip CHECKs deep in the search (a non-positive
  // packing capacity aborts the process), so reject them at the boundary.
  if (!(out->capacity_fraction > 0.0 && out->capacity_fraction <= 1.0)) {
    return Status::InvalidArgument("options: capacity_fraction must be in (0, 1]");
  }
  if (out->u_fwd_max < 1 || out->u_bwd_max < 1) {
    return Status::InvalidArgument("options: u_fwd_max and u_bwd_max must be >= 1");
  }
  for (const auto& [name, value] : {std::pair{"u_fwd_max", out->u_fwd_max},
                                    std::pair{"u_bwd_max", out->u_bwd_max}}) {
    if (value > kMaxRequestMicrobatch) {
      return Status::InvalidArgument(
          "options: " + std::string(name) + " " + std::to_string(value) +
          " exceeds " + std::to_string(kMaxRequestMicrobatch));
    }
  }
  if (out->num_threads > kMaxRequestThreads) {
    return Status::InvalidArgument(
        "options: num_threads " + std::to_string(out->num_threads) +
        " exceeds " + std::to_string(kMaxRequestThreads));
  }
  if ((got & Bit(kPolicyMode)) == 0) policy_mode = "legacy";
  auto pm = core::PolicyModeFromName(policy_mode);
  HARMONY_RETURN_IF_ERROR(pm.status());
  out->policy_mode = pm.value();
  return Status::Ok();
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

namespace {

constexpr std::array<Member, 8> kFlagsMembers = {{
    {"input_batch_grouping", "bool"}, {"jit_update", "bool"},
    {"jit_compute", "bool"}, {"p2p_transfers", "bool"}, {"prefetch", "bool"},
    {"cpu_optimizer", "bool"}, {"smart_eviction", "bool"},
    {"use_recompute", "bool"}}};

}  // namespace

Status Decode(json::Reader* r, core::OptimizationFlags* out) {
  uint32_t got = 0;
  bool use_recompute = true;
  bool* const fields[] = {&out->input_batch_grouping, &out->jit_update,
                          &out->jit_compute,          &out->p2p_transfers,
                          &out->prefetch,             &out->cpu_optimizer,
                          &out->smart_eviction,       &use_recompute};
  HARMONY_RETURN_IF_ERROR(ReadMembers(r, "flags", kFlagsMembers, [&](size_t i) {
    return Take(r, kFlagsMembers, i, &got, fields[i]);
  }));
  HARMONY_RETURN_IF_ERROR(Require(kFlagsMembers, got, AllOf(kFlagsMembers)));
  if (!use_recompute) {
    return Status::InvalidArgument(
        "flags: use_recompute must be true; select a keep-all stash with "
        "policy_mode=keep");
  }
  return Status::Ok();
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
    const json::Value* arr = v.Find(key);
    if (arr == nullptr || !arr->is_array()) {
      return json::MissingOrMistyped(key, "array");
    }
    tmp.clear();
    for (const json::Value& item : arr->items()) {
      if (!item.is_number()) {
        return Status::InvalidArgument("field '" + std::string(key) +
                                       "' has a non-numeric element");
      }
      tmp.push_back(item.AsDouble());
    }
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

void WritePlanRequest(const PlanRequest& request, json::Writer* w) {
  w->BeginObject();
  AppendSemanticFields(request, /*canonical=*/false, w);
  w->Field("deadline_ms", request.deadline_ms);
  w->Field("bypass_cache", request.bypass_cache);
  w->EndObject();
}

json::Value PlanRequestToJson(const PlanRequest& request) {
  return Reparse([&request](json::Writer* w) { WritePlanRequest(request, w); });
}

namespace {

enum RequestMember { kModel, kMachine, kMode, kMinibatch, kFlags, kOptions,
                     kRunIteration, kDeadlineMs, kBypassCache };
constexpr std::array<Member, 9> kRequestMembers = {{
    {"model", "object"}, {"machine", "object"}, {"mode", "string"},
    {"minibatch", "number"}, {"flags", "object"}, {"options", "object"},
    {"run_iteration", "bool"}, {"deadline_ms", "number"},
    {"bypass_cache", "bool"}}};

}  // namespace

Status Decode(json::Reader* r, PlanRequest* out) {
  uint32_t got = 0;
  std::string mode;
  HARMONY_RETURN_IF_ERROR(ReadMembers(r, "request", kRequestMembers, [&](size_t i) {
    switch (i) {
      case kModel:
        got |= Bit(kModel);
        return Decode(r, &out->model);
      case kMachine:
        got |= Bit(kMachine);
        return Decode(r, &out->machine);
      case kMode: return Take(r, kRequestMembers, i, &got, &mode);
      case kMinibatch: return Take(r, kRequestMembers, i, &got, &out->minibatch);
      case kFlags:
        got |= Bit(kFlags);
        return Decode(r, &out->flags);
      case kOptions:
        got |= Bit(kOptions);
        return Decode(r, &out->options);
      case kRunIteration:
        return Take(r, kRequestMembers, i, &got, &out->run_iteration);
      case kDeadlineMs:
        return Take(r, kRequestMembers, i, &got, &out->deadline_ms);
      default: return Take(r, kRequestMembers, i, &got, &out->bypass_cache);
    }
  }));
  HARMONY_RETURN_IF_ERROR(Require(kRequestMembers, got, AllOf(kRequestMembers)));
  auto md = ModeFromWireName(mode);
  HARMONY_RETURN_IF_ERROR(md.status());
  out->mode = md.value();
  if (out->minibatch < 1) return Status::InvalidArgument("request: minibatch < 1");
  if (out->minibatch > kMaxRequestMinibatch) {
    return Status::InvalidArgument(
        "request: minibatch " + std::to_string(out->minibatch) + " exceeds " +
        std::to_string(kMaxRequestMinibatch));
  }
  return Status::Ok();
}

Result<PlanRequest> PlanRequestFromJson(const json::Value& v) {
  return DecodeBytes<PlanRequest>(v.Dump());
}

Result<Envelope> ScanEnvelope(std::string_view frame) {
  json::Reader r(frame);
  Envelope envelope;
  if (r.Peek() != json::Value::Type::kObject) {
    HARMONY_RETURN_IF_ERROR(r.Skip());
    HARMONY_RETURN_IF_ERROR(r.Finish());
    return envelope;
  }
  HARMONY_RETURN_IF_ERROR(r.BeginObject());
  bool type_seen = false;
  std::string_view key;
  bool more = false;
  for (;;) {
    HARMONY_RETURN_IF_ERROR(r.NextMember(&key, &more));
    if (!more) break;
    if (key == "type" && !type_seen) {
      type_seen = true;
      if (r.Peek() == json::Value::Type::kString) {
        envelope.has_type = true;
        HARMONY_RETURN_IF_ERROR(r.ReadString(&envelope.type));
        continue;
      }
    } else if (key == "request" && !envelope.has_request) {
      envelope.has_request = true;
      const json::Reader at_request = r;
      envelope.request_status = Decode(&r, &envelope.request);
      if (envelope.request_status.ok()) continue;
      // A frame that is not JSON is a bad frame, whatever its request
      // lacks: re-read the request as bare JSON.
      r = at_request;
    }
    HARMONY_RETURN_IF_ERROR(r.Skip());
  }
  HARMONY_RETURN_IF_ERROR(r.Finish());
  return envelope;
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
