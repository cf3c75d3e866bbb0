// Golden tests for the serving wire format (serve/wire.h): canonical JSON
// round trips must be byte-identical, and the request fingerprints of the
// paper's evaluation models are pinned so any accidental change to a writer
// (which would silently split the plan cache across releases) fails loudly.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/json.h"
#include "common/rng.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "wire_corpus.h"

// Counts global operator new calls while armed, so a test can bound how much
// a code path allocates.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Every delete funnels through one out-of-line release, so the compiler never
// pairs an inlined free() with a new-expression at a call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace harmony {
namespace {

using serve::ModelSpec;
using serve::PlanRequest;
using serve::PlanResponse;
using wire_corpus::CorpusRequest;

// ---------------------------------------------------------------------------
// json::Value fundamentals
// ---------------------------------------------------------------------------

TEST(Json, CanonicalNumberRendering) {
  EXPECT_EQ(json::Value::Int(0).Dump(), "0");
  EXPECT_EQ(json::Value::Int(-7).Dump(), "-7");
  EXPECT_EQ(json::Value::Number(42.0).Dump(), "42");  // integral double
  EXPECT_EQ(json::Value::Number(0.5).Dump(), "0.5");
  EXPECT_EQ(json::Value::Int(int64_t{1} << 40).Dump(), "1099511627776");
}

TEST(Json, CanonicalObjectAndArray) {
  json::Value v = json::Value::Object();
  v.Set("b", 1);
  v.Set("a", "x\"y\n");
  json::Value arr = json::Value::Array();
  arr.Append(json::Value::Bool(true));
  arr.Append(json::Value::Null());
  v.Set("list", std::move(arr));
  // Insertion order, no whitespace, escapes for quote and newline.
  EXPECT_EQ(v.Dump(), "{\"b\":1,\"a\":\"x\\\"y\\n\",\"list\":[true,null]}");
}

TEST(Json, ParseDumpRoundTripIsByteIdentical) {
  const std::string doc =
      "{\"name\":\"GPT2\",\"n\":64,\"frac\":0.85,\"on\":true,"
      "\"packs\":[[0,9],[10,18]],\"nested\":{\"x\":null}}";
  const auto parsed = json::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().Dump(), doc);
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(json::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(json::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(json::Parse("{\"a\"").ok());
  EXPECT_FALSE(json::Parse("").ok());
}

TEST(Json, Fnv1aMatchesReferenceVectors) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(json::Fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(json::Fnv1a("a"), 12638187200555641996ull);
  EXPECT_EQ(json::FingerprintHex(0xdeadbeefull), "00000000deadbeef");
}

// ---------------------------------------------------------------------------
// Round trips: serialize -> parse -> serialize must be byte-identical
// ---------------------------------------------------------------------------

template <typename T, typename ToJson, typename FromJson>
void ExpectRoundTrip(const T& value, ToJson to_json, FromJson from_json) {
  const std::string first = to_json(value).Dump();
  const auto parsed = json::Parse(first);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const auto back = from_json(parsed.value());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(to_json(back.value()).Dump(), first);
}

/// The request types decode from bytes (serve::Decode), as the daemon reads
/// them from a frame.
template <typename T, typename ToJson>
void ExpectRoundTrip(const T& value, ToJson to_json) {
  const std::string first = to_json(value).Dump();
  const auto parsed = json::Parse(first);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const auto back = serve::DecodeBytes<T>(first);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(to_json(back.value()).Dump(), first);
}

/// Decodes T from the bytes of `v`.
template <typename T>
Result<T> FromBytes(const json::Value& v) {
  return serve::DecodeBytes<T>(v.Dump());
}

TEST(Wire, ModelSpecRoundTrips) {
  for (const char* name : {"BERT96", "GPT2", "GPT2-20B", "VGG416"}) {
    const auto spec = ModelSpec::FromName(name);
    ASSERT_TRUE(spec.ok()) << spec.status();
    ExpectRoundTrip(spec.value(), serve::ModelSpecToJson);
  }
  ModelSpec custom;
  custom.kind = ModelSpec::Kind::kTransformer;
  custom.transformer.name = "tiny";
  custom.transformer.num_blocks = 4;
  custom.transformer.hidden = 256;
  custom.transformer.seq_len = 128;
  custom.transformer.heads = 4;
  custom.transformer.vocab = 1000;
  ExpectRoundTrip(custom, serve::ModelSpecToJson);
}

TEST(Wire, MachineSpecRoundTrips) {
  ExpectRoundTrip(hw::MachineSpec::Commodity4Gpu(), serve::MachineSpecToJson);
  ExpectRoundTrip(hw::MachineSpec::Commodity8Gpu().WithNumGpus(8),
                  serve::MachineSpecToJson);
}

TEST(Wire, HeterogeneousMachineSpecRoundTrips) {
  hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  hw::GpuSpec shrunk = m.gpu;
  shrunk.name += "-shrunk";
  shrunk.memory_capacity = shrunk.usable_memory() - GiB(2.0);
  shrunk.usable_fraction = 1.0;
  m = m.WithGpuOverride(1, shrunk).WithLinkScale(m.LinkSwitchUp(0), 0.25);
  ExpectRoundTrip(m, serve::MachineSpecToJson);
  // A degraded daemon-side ingest sees exactly the synthesized fleet.
  const auto parsed = FromBytes<hw::MachineSpec>(serve::MachineSpecToJson(m));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GpuAt(1).usable_memory(), shrunk.usable_memory());
  EXPECT_EQ(parsed.value().LinkScaleAt(m.LinkSwitchUp(0)), 0.25);
}

// The heterogeneous fields are emitted only when set: a homogeneous machine
// keeps its historical canonical bytes, so every fingerprint pinned before
// the fleet extension — and every deployed cache keyed by one — survives.
TEST(Wire, HomogeneousMachineCanonicalBytesOmitFleetFields) {
  const std::string dump =
      serve::MachineSpecToJson(hw::MachineSpec::Commodity4Gpu()).Dump();
  EXPECT_EQ(dump.find("per_gpu"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("link_bw_scale"), std::string::npos) << dump;
}

TEST(Wire, MachineSpecIngestValidatesFleetFields) {
  // Corrupt the scale vector: wrong length must be rejected at ingest, not
  // discovered as an out-of-bounds read inside the planner. The writer
  // serializes the struct verbatim, so a malformed struct yields exactly the
  // malformed document a broken or hostile peer would send.
  hw::MachineSpec short_vec = hw::MachineSpec::Commodity4Gpu();
  short_vec.link_bw_scale.assign(1, 0.5);
  EXPECT_FALSE(
      FromBytes<hw::MachineSpec>(serve::MachineSpecToJson(short_vec)).ok());

  hw::MachineSpec negative = hw::MachineSpec::Commodity4Gpu();
  negative.link_bw_scale.assign(static_cast<size_t>(negative.NumLinks()), 1.0);
  negative.link_bw_scale[0] = -0.5;
  EXPECT_FALSE(
      FromBytes<hw::MachineSpec>(serve::MachineSpecToJson(negative)).ok());

  hw::MachineSpec bad_gpu = hw::MachineSpec::Commodity4Gpu();
  bad_gpu.per_gpu.assign(static_cast<size_t>(bad_gpu.num_gpus), bad_gpu.gpu);
  bad_gpu.per_gpu[2].memory_capacity = 0;
  EXPECT_FALSE(
      FromBytes<hw::MachineSpec>(serve::MachineSpecToJson(bad_gpu)).ok());
}

TEST(Wire, DeviceCountsPastTheRuntimeLimitAreRejected) {
  // The runtime keeps device sets as 32-bit masks, so a machine or a metrics
  // record with more than hw::kMaxGpus devices is refused at ingest. A full
  // record round-trips, past PerDevice's inline capacity.
  hw::MachineSpec wide = hw::MachineSpec::Commodity8Gpu();
  wide.num_gpus = hw::kMaxGpus + 1;
  wide.gpu_to_switch.assign(static_cast<size_t>(wide.num_gpus), 0);
  EXPECT_FALSE(wide.Validate().ok());
  EXPECT_FALSE(FromBytes<hw::MachineSpec>(serve::MachineSpecToJson(wide)).ok());
  wide.num_gpus = hw::kMaxGpus;
  wide.gpu_to_switch.pop_back();
  EXPECT_TRUE(wide.Validate().ok());

  runtime::RunMetrics m;
  for (int d = 0; d < hw::kMaxGpus; ++d) {
    m.swap_in_bytes.push_back(d);
    m.swap_out_bytes.push_back(d);
    m.p2p_bytes.push_back(d);
    m.compute_busy.push_back(0.5 * d);
    m.peak_device_bytes.push_back(d);
  }
  json::Value v = serve::RunMetricsToJson(m);
  auto full = serve::RunMetricsFromJson(v);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full.value().compute_busy, m.compute_busy);
  for (const std::string key : {"swap_in_bytes", "compute_busy"}) {
    json::Value arr = json::Value::Array();
    for (int d = 0; d <= hw::kMaxGpus; ++d) arr.Append(json::Value::Int(d));
    json::Value over = json::Value::Object();
    for (const auto& [name, value] : v.members()) {
      over.Set(name, name == key ? arr : value);
    }
    EXPECT_FALSE(serve::RunMetricsFromJson(over).ok()) << key;
  }
}

TEST(Wire, SearchOptionsAndFlagsRoundTrip) {
  core::SearchOptions options;
  options.u_fwd_max = 16;
  options.capacity_fraction = 0.7;
  options.equi_fb = true;
  options.num_threads = 4;
  options.policy_mode = core::PolicyMode::kSweep;
  ExpectRoundTrip(options, serve::SearchOptionsToJson);
  // A pre-policy peer omits the knob entirely: it must default to legacy.
  const auto parsed = json::Parse(
      "{\"u_fwd_max\":32,\"u_bwd_max\":32,\"capacity_fraction\":0.85,"
      "\"equi_fb\":false,\"num_threads\":1,\"keep_explored\":false}");
  ASSERT_TRUE(parsed.ok());
  const auto legacy = FromBytes<core::SearchOptions>(parsed.value());
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  EXPECT_EQ(legacy.value().policy_mode, core::PolicyMode::kLegacy);
  core::OptimizationFlags flags;
  flags.jit_compute = false;
  ExpectRoundTrip(flags, serve::OptimizationFlagsToJson);
}

TEST(Wire, OutOfRangeSearchOptionsAreRejected) {
  // A capacity_fraction <= 0 would reach the packing CHECK and abort the
  // daemon, so out-of-range knobs must fail at decode.
  std::vector<core::SearchOptions> bad(4);
  bad[0].capacity_fraction = -1.0;
  bad[1].capacity_fraction = 0.0;
  bad[2].capacity_fraction = 1.5;
  bad[3].u_bwd_max = 0;
  for (const core::SearchOptions& options : bad) {
    const json::Value v = serve::SearchOptionsToJson(options);
    const auto decoded = FromBytes<core::SearchOptions>(v);
    ASSERT_FALSE(decoded.ok()) << v.Dump();
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << v.Dump();
  }

  // A valid request at the edges still round-trips byte-identically...
  PlanRequest request;
  request.model = ModelSpec::FromName("GPT2").value();
  request.options.capacity_fraction = 1.0;
  request.options.u_bwd_max = 1;
  ExpectRoundTrip(request, serve::PlanRequestToJson);
  // ...and a bad one is refused on the daemon's decode path.
  request.options.capacity_fraction = 0.0;
  const auto rejected =
      FromBytes<PlanRequest>(serve::PlanRequestToJson(request));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(Wire, OversizedMinibatchAndMicrobatchCapsAreRejected) {
  // Each task holds minibatch / u pieces, so an unbounded minibatch runs a
  // search far past its deadline; decode refuses it and names the field.
  PlanRequest request;
  request.model = ModelSpec::FromName("GPT2").value();
  request.minibatch = serve::kMaxRequestMinibatch;
  request.options.u_fwd_max = serve::kMaxRequestMicrobatch;
  request.options.u_bwd_max = serve::kMaxRequestMicrobatch;
  // At the caps a request still round-trips byte-identically.
  ExpectRoundTrip(request, serve::PlanRequestToJson);

  auto expect_rejected = [](const PlanRequest& r, const std::string& field) {
    const auto decoded =
        FromBytes<PlanRequest>(serve::PlanRequestToJson(r));
    ASSERT_FALSE(decoded.ok()) << field;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(decoded.status().message().find(field), std::string::npos)
        << decoded.status();
  };
  PlanRequest big = request;
  big.minibatch = 2000000000;
  expect_rejected(big, "minibatch");
  big = request;
  big.minibatch = serve::kMaxRequestMinibatch + 1;
  expect_rejected(big, "minibatch");
  big = request;
  big.options.u_fwd_max = serve::kMaxRequestMicrobatch + 1;
  expect_rejected(big, "u_fwd_max");
  big = request;
  big.options.u_bwd_max = 1 << 30;
  expect_rejected(big, "u_bwd_max");
}

TEST(Wire, OversizedNumThreadsIsRejected) {
  // num_threads caps the pool workers a cold request's search may use, and
  // decode caps the client's choice. Decode only: no search runs here.
  PlanRequest request;
  request.model = ModelSpec::FromName("GPT2").value();
  request.options.num_threads = serve::kMaxRequestThreads;
  ExpectRoundTrip(request, serve::PlanRequestToJson);
  for (int threads : {serve::kMaxRequestThreads + 1, 8191, 1 << 30}) {
    request.options.num_threads = threads;
    const auto decoded =
        FromBytes<PlanRequest>(serve::PlanRequestToJson(request));
    ASSERT_FALSE(decoded.ok()) << threads;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("num_threads"),
              std::string::npos)
        << decoded.status();
  }
}

TEST(Wire, UseRecomputeFalseIsRejected) {
  // The stash policy travels as SearchOptions::policy_mode; the flags key is
  // a constant `true`, kept so canonical bytes and fingerprints hold.
  const std::string flags =
      "{\"input_batch_grouping\":true,\"jit_update\":true,"
      "\"jit_compute\":true,\"p2p_transfers\":true,\"prefetch\":true,"
      "\"cpu_optimizer\":true,\"smart_eviction\":true,\"use_recompute\":";
  const auto on = json::Parse(flags + "true}");
  ASSERT_TRUE(on.ok());
  EXPECT_TRUE(serve::DecodeBytes<core::OptimizationFlags>(flags + "true}").ok());
  EXPECT_EQ(serve::OptimizationFlagsToJson(core::OptimizationFlags{}).Dump(),
            on.value().Dump());

  const auto off = json::Parse(flags + "false}");
  ASSERT_TRUE(off.ok());
  const auto decoded =
      serve::DecodeBytes<core::OptimizationFlags>(flags + "false}");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("policy_mode=keep"),
            std::string::npos)
      << decoded.status();
}

TEST(Wire, ConfigurationRoundTrips) {
  core::Configuration config;
  config.u_fwd = 4;
  config.u_bwd = 2;
  config.fwd_packs = {{0, 9}, {10, 18}, {19, 27}};
  config.bwd_packs = {{0, 13}, {14, 27}};
  ExpectRoundTrip(config, serve::ConfigurationToJson,
                  serve::ConfigurationFromJson);
  // Non-empty residency table rides along (RLE form).
  config.policy = model::PolicyTable::Uniform(28, model::StashPolicy::kRecompute);
  config.policy.Set(5, model::StashPolicy::kSwap);
  config.policy.Set(6, model::StashPolicy::kKeep);
  ExpectRoundTrip(config, serve::ConfigurationToJson,
                  serve::ConfigurationFromJson);
}

TEST(Wire, PlanRequestRoundTrips) {
  PlanRequest request;
  request.model = ModelSpec::FromName("BERT96").value();
  request.minibatch = 8;
  request.deadline_ms = 250;
  request.bypass_cache = true;
  ExpectRoundTrip(request, serve::PlanRequestToJson);
}

TEST(Wire, PlanResponseRoundTrips) {
  PlanResponse ok;
  ok.fingerprint = 0x4a33fc51dbc2632cull;
  ok.cache_hit = true;
  ok.latency_seconds = 6.25e-05;
  ok.config.u_fwd = 2;
  ok.config.u_bwd = 1;
  ok.config.fwd_packs = {{0, 9}, {10, 18}};
  ok.config.bwd_packs = {{0, 18}};
  ok.estimate.iteration_time = 4.3;
  ok.estimate.swap_bytes = GiB(12);
  ok.configs_explored = 512;
  ExpectRoundTrip(ok, serve::PlanResponseToJson, serve::PlanResponseFromJson);

  PlanResponse rejected;
  rejected.status = Status::ResourceExhausted("admission queue full");
  rejected.retry_after_ms = 50;
  ExpectRoundTrip(rejected, serve::PlanResponseToJson,
                  serve::PlanResponseFromJson);

  // The cluster tier's fill provenance travels in-band; a pre-cluster peer
  // omitting it must still parse (filled_from stays "").
  PlanResponse filled = ok;
  filled.cache_hit = false;
  filled.filled_from = "disk";
  ExpectRoundTrip(filled, serve::PlanResponseToJson,
                  serve::PlanResponseFromJson);
}

// A cache hit's reply frame is encoded once and later spliced with the
// hit's latency; it must be byte-for-byte the frame the reference encoder
// renders for the same response.
std::string ReferenceReplyFrame(const PlanResponse& response) {
  json::Value reply = json::Value::Object();
  reply.Set("type", "plan");
  reply.Set("response", serve::PlanResponseToJson(response));
  return reply.Dump();
}

TEST(Wire, SplicedHitReplyMatchesReferenceEncoding) {
  PlanResponse hit;
  hit.fingerprint = 0x5161815ad1542bc2ull;
  hit.cache_hit = true;
  hit.config.u_fwd = 4;
  hit.config.u_bwd = 2;
  hit.config.fwd_packs = {{0, 9}, {10, 18}};
  hit.config.bwd_packs = {{0, 18}};
  hit.config.policy = model::PolicyTable::Uniform(19, model::StashPolicy::kSwap);
  hit.estimate.iteration_time = 4.3;
  hit.estimate.swap_bytes = GiB(12);
  hit.configs_explored = 512;
  hit.configs_feasible = 77;
  hit.search_seconds = 0.0123;
  PlanResponse with_metrics = hit;
  with_metrics.has_metrics = true;
  with_metrics.metrics.iteration_time = 3.9;
  with_metrics.metrics.swap_in_bytes = {GiB(1), GiB(2)};
  with_metrics.metrics.swap_out_bytes = {GiB(1), 0};
  with_metrics.metrics.p2p_bytes = {0, 12345};
  with_metrics.metrics.compute_busy = {1.5, 2.25};
  with_metrics.metrics.peak_device_bytes = {GiB(10), GiB(9)};
  with_metrics.metrics.evictions = 3;

  for (PlanResponse response : {hit, with_metrics}) {
    response.hit_reply =
        std::make_shared<const serve::HitReply>(serve::EncodeHitReply(response));
    for (double latency : {0.0, 1e-7, 0.5}) {
      response.latency_seconds = latency;
      EXPECT_EQ(serve::PlanReplyFrame(response), ReferenceReplyFrame(response))
          << "latency " << latency;
    }
  }

  // Without a pre-encoded reply the frame is the reference encoding.
  PlanResponse miss = hit;
  miss.cache_hit = false;
  miss.latency_seconds = 0.25;
  EXPECT_EQ(serve::PlanReplyFrame(miss), ReferenceReplyFrame(miss));

  hit.hit_reply =
      std::make_shared<const serve::HitReply>(serve::EncodeHitReply(hit));
  hit.latency_seconds = 1e-7;
  EXPECT_EQ(serve::PlanReplyFrame(hit),
            "{\"type\":\"plan\",\"response\":{\"status\":\"OK\",\"message\":\"\","
            "\"fingerprint\":\"5161815ad1542bc2\",\"cache_hit\":true,"
            "\"filled_from\":\"\",\"retry_after_ms\":0,\"latency_seconds\":1e-07,"
            "\"config\":{\"u_fwd\":4,\"u_bwd\":2,\"fwd_packs\":[[0,9],[10,18]],"
            "\"bwd_packs\":[[0,18]],\"policy\":\"s0-18\"},\"estimate\":{"
            "\"iteration_time\":4.3,\"swap_bytes\":12884901888,\"p2p_bytes\":0},"
            "\"configs_explored\":512,\"configs_feasible\":77,"
            "\"search_seconds\":0.0123}}");
}

TEST(Wire, CacheGetRequestRoundTrips) {
  serve::CacheGetRequest get;
  get.canonical_request = "{\"model\":\"GPT2\"}";
  get.fingerprint = json::Fnv1a(get.canonical_request);
  auto parsed = serve::CacheGetRequestFromJson(serve::CacheGetRequestToJson(get));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().fingerprint, get.fingerprint);
  EXPECT_EQ(parsed.value().canonical_request, get.canonical_request);
  // Wrong envelope type must be rejected, not silently accepted.
  json::Value wrong = json::Value::Object();
  wrong.Set("type", "plan");
  wrong.Set("fingerprint", "5161815ad1542bc2");
  wrong.Set("canonical", "x");
  EXPECT_FALSE(serve::CacheGetRequestFromJson(wrong).ok());
}

// Integer fields travel as JSON numbers (doubles). A value that is not an
// integer, or does not fit the field, must be refused by name: a wrapped
// `blocks` would otherwise fingerprint as a different, valid request.
TEST(Wire, IntegerFieldsRejectNonIntegralAndOutOfRange) {
  PlanRequest request;
  request.model.kind = ModelSpec::Kind::kTransformer;
  request.model.transformer.name = "tiny";
  request.model.name = "tiny";
  request.model.transformer.num_blocks = 7;
  ExpectRoundTrip(request, serve::PlanRequestToJson);

  const std::string valid = serve::PlanRequestToJson(request).Dump();
  auto with = [&valid](const std::string& field, const std::string& number) {
    const std::string key = "\"" + field + "\":";
    const size_t at = valid.find(key);
    EXPECT_NE(at, std::string::npos) << field;
    const size_t end = valid.find_first_of(",}", at + key.size());
    return valid.substr(0, at + key.size()) + number + valid.substr(end);
  };
  for (const char* field : {"blocks", "memory_capacity", "minibatch"}) {
    for (const char* number : {"4294967297", "4.7", "-1e19", "1e999"}) {
      if (std::string(field) == "memory_capacity" &&
          std::string(number) == "4294967297") {
        continue;  // a valid int64
      }
      const auto parsed = json::Parse(with(field, number));
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      const auto decoded = serve::DecodeBytes<PlanRequest>(with(field, number));
      ASSERT_FALSE(decoded.ok()) << field << "=" << number;
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(decoded.status().message().find(field), std::string::npos)
          << decoded.status();
    }
  }
}

/// `valid` with the first value of member `field` replaced by `value`.
std::string WithValue(const std::string& valid, const std::string& field,
                      const std::string& value) {
  const std::string key = "\"" + field + "\":";
  const size_t at = valid.find(key);
  EXPECT_NE(at, std::string::npos) << field;
  const size_t start = at + key.size();
  const size_t end = valid[start] == '['
                         ? valid.find_first_of(",]", start + 1)
                         : valid.find_first_of(",}", start);
  const size_t from = valid[start] == '[' ? start + 1 : start;
  return valid.substr(0, from) + value + valid.substr(end);
}

// The parser maps 1e999 to inf. A double field must be finite: a request
// that planned with an infinite bandwidth would fingerprint through
// canonical bytes that render it as null, which decode to nothing.
TEST(Wire, NonFiniteDoublesAreRejected) {
  PlanRequest request;
  request.model = ModelSpec::FromName("GPT2-8B").value();
  request.machine = request.machine.WithLinkScale(request.machine.LinkSwitchUp(0), 0.5);
  request.machine.per_gpu.assign(static_cast<size_t>(request.machine.num_gpus),
                                 request.machine.gpu);
  const std::string valid = serve::PlanRequestToJson(request).Dump();
  ASSERT_TRUE(serve::DecodeBytes<PlanRequest>(valid).ok());
  for (const char* field :
       {"billions", "peak_flops", "usable_fraction", "pcie_bw", "uplink_bw",
        "host_mem_bw", "nvlink_bw", "cpu_update_bw", "link_bw_scale",
        "capacity_fraction"}) {
    for (const char* number : {"1e999", "-1e999"}) {
      const std::string bytes = WithValue(valid, field, number);
      ASSERT_TRUE(json::Parse(bytes).ok()) << bytes;
      const auto decoded = serve::DecodeBytes<PlanRequest>(bytes);
      ASSERT_FALSE(decoded.ok()) << field << "=" << number;
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(decoded.status().message().find(field), std::string::npos)
          << decoded.status();
    }
  }
  // The per-GPU specs are the second and later "peak_flops" members.
  const std::string per_gpu =
      valid.substr(0, valid.find("\"per_gpu\"")) +
      WithValue(valid.substr(valid.find("\"per_gpu\"")), "peak_flops", "1e999");
  EXPECT_FALSE(serve::DecodeBytes<PlanRequest>(per_gpu).ok());

  // In-process callers build a MachineSpec without decoding one.
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {kInf, -kInf, kNan}) {
    for (double hw::MachineSpec::*bw :
         {&hw::MachineSpec::pcie_bw, &hw::MachineSpec::uplink_bw,
          &hw::MachineSpec::host_mem_bw, &hw::MachineSpec::nvlink_bw,
          &hw::MachineSpec::cpu_update_bw}) {
      hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
      m.*bw = bad;
      EXPECT_FALSE(m.Validate().ok()) << bad;
    }
    hw::MachineSpec flops = hw::MachineSpec::Commodity4Gpu();
    flops.gpu.peak_flops = bad;
    EXPECT_FALSE(flops.Validate().ok()) << bad;
    hw::MachineSpec scale = hw::MachineSpec::Commodity4Gpu();
    scale.link_bw_scale.assign(static_cast<size_t>(scale.NumLinks()), 1.0);
    scale.link_bw_scale[1] = bad;
    EXPECT_FALSE(scale.Validate().ok()) << bad;
  }
}

// A model's dimensions are bounded: memory grows with each, and a
// gpt2-custom's billions feed an int hidden size. One past a bound is
// refused at decode, naming the field, and by BuildModel for in-process
// callers; every bound itself decodes.
TEST(Wire, ModelDimensionsAreBounded) {
  PlanRequest request;
  request.model.kind = ModelSpec::Kind::kTransformer;
  request.model.name = request.model.transformer.name = "bounded";
  model::TransformerConfig& t = request.model.transformer;
  t.num_blocks = serve::kMaxModelBlocks;
  t.hidden = serve::kMaxModelHidden;
  t.seq_len = serve::kMaxModelSeqLen;
  t.heads = serve::kMaxModelHeads;
  t.vocab = serve::kMaxModelVocab;
  ExpectRoundTrip(request, serve::PlanRequestToJson);
  const std::string valid = serve::PlanRequestToJson(request).Dump();
  for (const auto& [field, over] :
       {std::pair{"blocks", serve::kMaxModelBlocks + 1},
        std::pair{"hidden", serve::kMaxModelHidden + 1},
        std::pair{"seq_len", serve::kMaxModelSeqLen + 1},
        std::pair{"heads", serve::kMaxModelHeads + 1},
        std::pair{"vocab", serve::kMaxModelVocab + 1}, std::pair{"blocks", 0},
        std::pair{"vocab", -1}}) {
    const auto decoded = serve::DecodeBytes<PlanRequest>(
        WithValue(valid, field, std::to_string(over)));
    ASSERT_FALSE(decoded.ok()) << field << "=" << over;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find(field), std::string::npos)
        << decoded.status();
  }
  ModelSpec too_deep = request.model;
  too_deep.transformer.num_blocks = 2000000000;
  EXPECT_EQ(serve::BuildModel(too_deep).status().code(),
            StatusCode::kInvalidArgument);

  PlanRequest gpt2;
  gpt2.model.kind = ModelSpec::Kind::kGpt2Custom;
  gpt2.model.name = "GPT2-custom";
  gpt2.model.billions = serve::kMaxModelBillions;
  ExpectRoundTrip(gpt2, serve::PlanRequestToJson);
  const std::string gpt2_bytes = serve::PlanRequestToJson(gpt2).Dump();
  for (const char* billions : {"10000.5", "1e15", "0", "-3"}) {
    const auto decoded = serve::DecodeBytes<PlanRequest>(
        WithValue(gpt2_bytes, "billions", billions));
    ASSERT_FALSE(decoded.ok()) << billions;
    EXPECT_NE(decoded.status().message().find("billions"), std::string::npos)
        << decoded.status();
  }
  ModelSpec huge = gpt2.model;
  huge.billions = 1e15;
  EXPECT_EQ(serve::BuildModel(huge).status().code(),
            StatusCode::kInvalidArgument);
}

// policy_mode is optional for pre-policy peers, but one that is present
// names a mode: a number is not read as the legacy default.
TEST(Wire, PolicyModeMustBeAModeName) {
  core::SearchOptions options;
  options.policy_mode = core::PolicyMode::kSweep;
  const std::string valid = serve::SearchOptionsToJson(options).Dump();
  const auto sweep = serve::DecodeBytes<core::SearchOptions>(valid);
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  EXPECT_EQ(sweep.value().policy_mode, core::PolicyMode::kSweep);
  for (const char* value : {"3", "null", "true", "[]", "{}", "\"fastest\""}) {
    const auto decoded =
        serve::DecodeBytes<core::SearchOptions>(WithValue(valid, "policy_mode", value));
    ASSERT_FALSE(decoded.ok()) << value;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("policy"), std::string::npos)
        << decoded.status();
  }
}

// Fingerprints a peer sends are 16 lower- or upper-case hex digits, and a
// cache_get's must be the hash of the canonical bytes it carries.
TEST(Wire, PeerFingerprintsAreValidated) {
  serve::CacheGetRequest get;
  get.canonical_request = "{\"model\":\"GPT2\"}";
  get.fingerprint = json::Fnv1a(get.canonical_request);
  ASSERT_TRUE(
      serve::CacheGetRequestFromJson(serve::CacheGetRequestToJson(get)).ok());
  for (const std::string fp :
       {"zz-not-hex", "", "5161815ad1542bc", "5161815ad1542bc2ff",
        " 161815ad1542bc2", "-161815ad1542bc2", "0x61815ad1542bc2",
        "5161815ad1542bc2"}) {
    json::Value v = serve::CacheGetRequestToJson(get);
    json::Value forged = json::Value::Object();
    for (const auto& [key, value] : v.members()) {
      forged.Set(key, key == "fingerprint" ? json::Value::Str(fp) : value);
    }
    const auto decoded = serve::CacheGetRequestFromJson(forged);
    EXPECT_FALSE(decoded.ok()) << "fingerprint '" << fp << "'";
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }

  PlanResponse response;
  response.fingerprint = 0x5161815ad1542bc2ull;
  json::Value v = serve::PlanResponseToJson(response);
  ASSERT_TRUE(serve::PlanResponseFromJson(v).ok());
  json::Value forged = json::Value::Object();
  for (const auto& [key, value] : v.members()) {
    forged.Set(key, key == "fingerprint" ? json::Value::Str("zz-not-hex")
                                         : value);
  }
  const auto decoded = serve::PlanResponseFromJson(forged);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// The peer-fill frame is part of the deployed wire surface the moment two
// daemon versions coexist in one tier: pin its canonical bytes the same way
// request fingerprints are pinned. If a deliberate protocol change lands,
// re-pin here and call out the mixed-tier implications in DESIGN.md §13.
TEST(Wire, CacheGetEnvelopeIsPinned) {
  serve::CacheGetRequest get;
  get.fingerprint = 0x5161815ad1542bc2ull;
  get.canonical_request = "canonical-bytes";
  const std::string envelope = serve::CacheGetRequestToJson(get).Dump();
  EXPECT_EQ(envelope,
            "{\"type\":\"cache_get\",\"fingerprint\":\"5161815ad1542bc2\","
            "\"canonical\":\"canonical-bytes\"}");
  EXPECT_EQ(json::FingerprintHex(json::Fnv1a(envelope)), "051f268a748bef0b");
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

PlanRequest Bert96Request() {
  PlanRequest request;
  request.model = ModelSpec::FromName("BERT96").value();
  request.machine = hw::MachineSpec::Commodity4Gpu();
  request.mode = core::HarmonyMode::kPipelineParallel;
  request.minibatch = 8;
  return request;
}

PlanRequest Gpt2Request() {
  PlanRequest request;
  request.model = ModelSpec::FromName("GPT2").value();
  request.machine = hw::MachineSpec::Commodity4Gpu();
  request.mode = core::HarmonyMode::kPipelineParallel;
  request.minibatch = 64;
  return request;
}

// Pinned goldens: these exact values are what deployed caches are keyed by.
// If a deliberate wire-format change lands, re-pin them in the same change
// and call out the cache invalidation in DESIGN.md §9.
//
// Re-pinned when policy_mode became the fifth canonical search knob (the
// residency-policy axis): every request now fingerprints differently from
// pre-policy builds, deliberately splitting the cache across that release
// (see DESIGN.md §9 / §12).
TEST(Fingerprint, PinnedGoldens) {
  EXPECT_EQ(json::FingerprintHex(serve::RequestFingerprint(Bert96Request())),
            "44e5f25ec89cd9e1");
  EXPECT_EQ(json::FingerprintHex(serve::RequestFingerprint(Gpt2Request())),
            "5161815ad1542bc2");
}

// A degraded (heterogeneous) machine must fingerprint distinctly from the
// nominal one — a re-plan served from the nominal cache entry would be the
// plan that is already failing. The degraded request's fingerprint is pinned
// alongside the nominal goldens: re-plans are cacheable tier-wide too.
TEST(Fingerprint, DegradedMachineSplitsTheCache) {
  const uint64_t base = serve::RequestFingerprint(Bert96Request());
  PlanRequest r = Bert96Request();
  r.machine = r.machine.WithLinkScale(r.machine.LinkSwitchUp(0), 0.25);
  EXPECT_NE(serve::RequestFingerprint(r), base);
  EXPECT_EQ(json::FingerprintHex(serve::RequestFingerprint(r)),
            "ab196806acb2b17e");

  PlanRequest s = Bert96Request();
  hw::GpuSpec shrunk = s.machine.gpu;
  shrunk.name += "-shrunk";
  shrunk.memory_capacity = shrunk.usable_memory() - GiB(2.0);
  shrunk.usable_fraction = 1.0;
  s.machine = s.machine.WithGpuOverride(1, shrunk);
  EXPECT_NE(serve::RequestFingerprint(s), base);
  EXPECT_EQ(json::FingerprintHex(serve::RequestFingerprint(s)),
            "e4cdf99f26c1ff79");
}

TEST(Fingerprint, ExecutionHintsDoNotChangeIt) {
  const uint64_t base = serve::RequestFingerprint(Bert96Request());
  PlanRequest hinted = Bert96Request();
  hinted.deadline_ms = 1000;
  hinted.bypass_cache = true;
  hinted.options.num_threads = 8;      // bit-identical result by contract
  hinted.options.keep_explored = true;
  EXPECT_EQ(serve::RequestFingerprint(hinted), base);
}

TEST(Fingerprint, SemanticFieldsChangeIt) {
  const uint64_t base = serve::RequestFingerprint(Bert96Request());
  PlanRequest r = Bert96Request();
  r.minibatch = 16;
  EXPECT_NE(serve::RequestFingerprint(r), base);
  r = Bert96Request();
  r.mode = core::HarmonyMode::kDataParallel;
  EXPECT_NE(serve::RequestFingerprint(r), base);
  r = Bert96Request();
  r.run_iteration = true;  // the response differs, so the key must too
  EXPECT_NE(serve::RequestFingerprint(r), base);
  r = Bert96Request();
  r.options.u_fwd_max = 16;
  EXPECT_NE(serve::RequestFingerprint(r), base);
  r = Bert96Request();
  r.machine = r.machine.WithNumGpus(2);
  EXPECT_NE(serve::RequestFingerprint(r), base);
}

// Field-by-field audit of SearchOptions: the canonical encoding keeps exactly
// the knobs that change the chosen plan and drops everything that only
// affects how the search runs. A knob drifting between the two camps either
// splits the cache for no reason or — worse — serves a stale plan for a
// semantically different request.
TEST(Fingerprint, SearchOptionsAudit) {
  const uint64_t base = serve::RequestFingerprint(Bert96Request());

  // Semantic knobs: each one alone must move the fingerprint.
  {
    PlanRequest r = Bert96Request();
    r.options.u_fwd_max = 16;
    EXPECT_NE(serve::RequestFingerprint(r), base) << "u_fwd_max";
  }
  {
    PlanRequest r = Bert96Request();
    r.options.u_bwd_max = 16;
    EXPECT_NE(serve::RequestFingerprint(r), base) << "u_bwd_max";
  }
  {
    PlanRequest r = Bert96Request();
    r.options.capacity_fraction = 0.5;
    EXPECT_NE(serve::RequestFingerprint(r), base) << "capacity_fraction";
  }
  {
    PlanRequest r = Bert96Request();
    r.options.equi_fb = true;
    EXPECT_NE(serve::RequestFingerprint(r), base) << "equi_fb";
  }
  // The residency-policy axis picks a different winner, so it must key the
  // cache; every mode maps to a distinct fingerprint.
  std::set<uint64_t> policy_prints;
  for (const core::PolicyMode mode :
       {core::PolicyMode::kLegacy, core::PolicyMode::kRecomputeAll,
        core::PolicyMode::kKeepAll, core::PolicyMode::kSwapAll,
        core::PolicyMode::kHybridGreedy, core::PolicyMode::kSweep}) {
    PlanRequest r = Bert96Request();
    r.options.policy_mode = mode;
    policy_prints.insert(serve::RequestFingerprint(r));
  }
  EXPECT_EQ(policy_prints.size(), 6u);
  EXPECT_EQ(policy_prints.count(base), 1u);  // kLegacy == the default request

  // Execution-shape knobs: bit-identical results by contract, so they must
  // NOT move the fingerprint.
  {
    PlanRequest r = Bert96Request();
    r.options.num_threads = 32;
    EXPECT_EQ(serve::RequestFingerprint(r), base) << "num_threads";
  }
  {
    PlanRequest r = Bert96Request();
    r.options.keep_explored = true;
    EXPECT_EQ(serve::RequestFingerprint(r), base) << "keep_explored";
  }
  {
    common::CancelToken cancel;
    PlanRequest r = Bert96Request();
    r.options.cancel = &cancel;
    EXPECT_EQ(serve::RequestFingerprint(r), base) << "cancel";
  }
}

TEST(Fingerprint, MatchesCanonicalJsonHash) {
  const PlanRequest request = Gpt2Request();
  EXPECT_EQ(serve::RequestFingerprint(request),
            json::Fnv1a(serve::CanonicalRequestJson(request)));
  // The canonical string itself round-trips through the parser unchanged.
  const std::string canonical = serve::CanonicalRequestJson(request);
  const auto parsed = json::Parse(canonical);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Dump(), canonical);
}


// ---------------------------------------------------------------------------
// Number edge cases: each input parses to the pinned bits and dumps to the
// pinned bytes (recorded before the parser moved to std::from_chars).
// ---------------------------------------------------------------------------

struct NumberCase {
  const char* text;
  uint64_t bits;
  const char* dump;
};

TEST(Json, NumberEdgeCasesParseAndDumpBitIdentically) {
  const NumberCase cases[] = {
      {"5e-324", 0x0000000000000001ull, "5e-324"},
      {"1.7976931348623157e308", 0x7fefffffffffffffull,
       "1.7976931348623157e+308"},
      {"9007199254740992", 0x4340000000000000ull, "9007199254740992"},
      {"9007199254740994", 0x4340000000000001ull, "9007199254740994"},
      {"-0", 0x8000000000000000ull, "0"},
      {"0.1", 0x3fb999999999999aull, "0.1"},
      {"1e-400", 0x0000000000000000ull, "0"},
      {"+5", 0x4014000000000000ull, "5"},
      {"1.", 0x3ff0000000000000ull, "1"},
      {"1e999", 0x7ff0000000000000ull, "null"},
      {"-12345678901234567890", 0xc3e56a95319d63e1ull,
       "-12345678901234567168"},
      {"2.5E+3", 0x40a3880000000000ull, "2500"},
  };
  for (const NumberCase& c : cases) {
    const auto parsed = json::Parse(c.text);
    ASSERT_TRUE(parsed.ok()) << c.text << ": " << parsed.status();
    ASSERT_TRUE(parsed.value().is_number()) << c.text;
    const double d = parsed.value().AsDouble();
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    EXPECT_EQ(bits, c.bits) << c.text;
    EXPECT_EQ(parsed.value().Dump(), c.dump) << c.text;
  }
}

// ---------------------------------------------------------------------------
// Seeded corpus (wire_corpus.h): one combined hash over the canonical and
// wire bytes of 64 generated requests, pinned before the DOM-free writers
// replaced the Value-built encodings.
// ---------------------------------------------------------------------------

// The client writes its plan envelope straight from the struct; the bytes
// must be those of the Value-built envelope (replayed frames depend on it).
TEST(Wire, ClientPlanEnvelopeMatchesTheValueEncoding) {
  Rng rng(0x5eedc0de);
  for (int i = 0; i < 64; ++i) {
    const PlanRequest request = CorpusRequest(&rng, i);
    EXPECT_EQ(serve::ServeClient::EncodePlanEnvelope(request),
              "{\"type\":\"plan\",\"request\":" +
                  serve::PlanRequestToJson(request).Dump() + "}")
        << i;
  }
}

TEST(Fingerprint, SeededCorpusIsPinned) {
  Rng rng(0x5eedc0de);
  std::string canonical, wire;
  for (int i = 0; i < 64; ++i) {
    const PlanRequest request = CorpusRequest(&rng, i);
    const std::string c = serve::CanonicalRequestJson(request);
    EXPECT_EQ(serve::RequestFingerprint(request), json::Fnv1a(c));
    canonical += c;
    canonical.push_back('\n');
    const std::string w = serve::PlanRequestToJson(request).Dump();
    // Every generated request survives the daemon's decode path unchanged.
    const auto parsed = json::Parse(w);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const auto back = serve::DecodeBytes<PlanRequest>(w);
    ASSERT_TRUE(back.ok()) << i << ": " << back.status() << "\n" << w;
    EXPECT_EQ(serve::PlanRequestToJson(back.value()).Dump(), w);
    wire += w;
    wire.push_back('\n');
  }
  EXPECT_EQ(json::FingerprintHex(json::Fnv1a(canonical)), "27c43ec1aabce8c6");
  EXPECT_EQ(json::FingerprintHex(json::Fnv1a(wire)), "8d014d12d94c6afc");
}

// ---------------------------------------------------------------------------
// The daemon's plan-frame decode allocates only the request's own heap
// ---------------------------------------------------------------------------

TEST(Wire, PlanFrameDecodeAllocationsAreBounded) {
  // A serve_mixed-shape frame: a generated transformer on the 4-GPU server,
  // "type" after "request". The DOM decode (json::Parse, then a walk of the
  // Value) made 162 allocations for it.
  PlanRequest r;
  r.model.kind = ModelSpec::Kind::kTransformer;
  r.model.name = "gen-b17-h768-s128";
  r.model.transformer.name = r.model.name;
  r.model.transformer.num_blocks = 17;
  r.model.transformer.hidden = 768;
  r.model.transformer.seq_len = 128;
  r.model.transformer.heads = 16;
  r.model.transformer.vocab = 32000;
  r.minibatch = 16;
  r.options.u_fwd_max = 3;
  r.options.u_bwd_max = 4;
  r.options.policy_mode = core::PolicyMode::kSweep;
  r.options.num_threads = 1;
  r.deadline_ms = 60123;
  const std::string body = serve::PlanRequestToJson(r).Dump();
  const std::string frame = "{\"request\":" + body + ",\"type\":\"plan\"}";

  g_allocs = 0;
  g_count_allocs = true;
  const auto envelope = serve::ScanEnvelope(frame);
  g_count_allocs = false;
  ASSERT_TRUE(envelope.ok()) << envelope.status();
  ASSERT_TRUE(envelope.value().request_status.ok())
      << envelope.value().request_status;
  EXPECT_EQ(envelope.value().type, "plan");
  EXPECT_EQ(serve::PlanRequestToJson(envelope.value().request).Dump(), body);
  // The model's and the transformer's names, the machine's name and its
  // gpu_to_switch: the strings past the small-string buffer and the vector.
  EXPECT_LE(g_allocs.load(), 4);
  std::printf("%lld allocations to decode a %zu-byte plan frame\n",
              static_cast<long long>(g_allocs.load()), frame.size());
}

}  // namespace
}  // namespace harmony
