// Golden tests for the serving wire format (serve/wire.h): canonical JSON
// round trips must be byte-identical, and the request fingerprints of the
// paper's evaluation models are pinned so any accidental change to a writer
// (which would silently split the plan cache across releases) fails loudly.

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/json.h"
#include "common/rng.h"
#include "serve/wire.h"

namespace harmony {
namespace {

using serve::ModelSpec;
using serve::PlanRequest;
using serve::PlanResponse;

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

TEST(Wire, ModelSpecRoundTrips) {
  for (const char* name : {"BERT96", "GPT2", "GPT2-20B", "VGG416"}) {
    const auto spec = ModelSpec::FromName(name);
    ASSERT_TRUE(spec.ok()) << spec.status();
    ExpectRoundTrip(spec.value(), serve::ModelSpecToJson,
                    serve::ModelSpecFromJson);
  }
  ModelSpec custom;
  custom.kind = ModelSpec::Kind::kTransformer;
  custom.transformer.name = "tiny";
  custom.transformer.num_blocks = 4;
  custom.transformer.hidden = 256;
  custom.transformer.seq_len = 128;
  custom.transformer.heads = 4;
  custom.transformer.vocab = 1000;
  ExpectRoundTrip(custom, serve::ModelSpecToJson, serve::ModelSpecFromJson);
}

TEST(Wire, MachineSpecRoundTrips) {
  ExpectRoundTrip(hw::MachineSpec::Commodity4Gpu(), serve::MachineSpecToJson,
                  serve::MachineSpecFromJson);
  ExpectRoundTrip(hw::MachineSpec::Commodity8Gpu().WithNumGpus(8),
                  serve::MachineSpecToJson, serve::MachineSpecFromJson);
}

TEST(Wire, HeterogeneousMachineSpecRoundTrips) {
  hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  hw::GpuSpec shrunk = m.gpu;
  shrunk.name += "-shrunk";
  shrunk.memory_capacity = shrunk.usable_memory() - GiB(2.0);
  shrunk.usable_fraction = 1.0;
  m = m.WithGpuOverride(1, shrunk).WithLinkScale(m.LinkSwitchUp(0), 0.25);
  ExpectRoundTrip(m, serve::MachineSpecToJson, serve::MachineSpecFromJson);
  // A degraded daemon-side ingest sees exactly the synthesized fleet.
  const auto parsed = serve::MachineSpecFromJson(serve::MachineSpecToJson(m));
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
      serve::MachineSpecFromJson(serve::MachineSpecToJson(short_vec)).ok());

  hw::MachineSpec negative = hw::MachineSpec::Commodity4Gpu();
  negative.link_bw_scale.assign(static_cast<size_t>(negative.NumLinks()), 1.0);
  negative.link_bw_scale[0] = -0.5;
  EXPECT_FALSE(
      serve::MachineSpecFromJson(serve::MachineSpecToJson(negative)).ok());

  hw::MachineSpec bad_gpu = hw::MachineSpec::Commodity4Gpu();
  bad_gpu.per_gpu.assign(static_cast<size_t>(bad_gpu.num_gpus), bad_gpu.gpu);
  bad_gpu.per_gpu[2].memory_capacity = 0;
  EXPECT_FALSE(
      serve::MachineSpecFromJson(serve::MachineSpecToJson(bad_gpu)).ok());
}

TEST(Wire, SearchOptionsAndFlagsRoundTrip) {
  core::SearchOptions options;
  options.u_fwd_max = 16;
  options.capacity_fraction = 0.7;
  options.equi_fb = true;
  options.num_threads = 4;
  options.policy_mode = core::PolicyMode::kSweep;
  ExpectRoundTrip(options, serve::SearchOptionsToJson,
                  serve::SearchOptionsFromJson);
  // A pre-policy peer omits the knob entirely: it must default to legacy.
  const auto parsed = json::Parse(
      "{\"u_fwd_max\":32,\"u_bwd_max\":32,\"capacity_fraction\":0.85,"
      "\"equi_fb\":false,\"num_threads\":1,\"keep_explored\":false}");
  ASSERT_TRUE(parsed.ok());
  const auto legacy = serve::SearchOptionsFromJson(parsed.value());
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  EXPECT_EQ(legacy.value().policy_mode, core::PolicyMode::kLegacy);
  core::OptimizationFlags flags;
  flags.jit_compute = false;
  ExpectRoundTrip(flags, serve::OptimizationFlagsToJson,
                  serve::OptimizationFlagsFromJson);
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
    const auto decoded = serve::SearchOptionsFromJson(v);
    ASSERT_FALSE(decoded.ok()) << v.Dump();
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << v.Dump();
  }

  // A valid request at the edges still round-trips byte-identically...
  PlanRequest request;
  request.model = ModelSpec::FromName("GPT2").value();
  request.options.capacity_fraction = 1.0;
  request.options.u_bwd_max = 1;
  ExpectRoundTrip(request, serve::PlanRequestToJson,
                  serve::PlanRequestFromJson);
  // ...and a bad one is refused on the daemon's decode path.
  request.options.capacity_fraction = 0.0;
  const auto rejected =
      serve::PlanRequestFromJson(serve::PlanRequestToJson(request));
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
  ExpectRoundTrip(request, serve::PlanRequestToJson,
                  serve::PlanRequestFromJson);

  auto expect_rejected = [](const PlanRequest& r, const std::string& field) {
    const auto decoded =
        serve::PlanRequestFromJson(serve::PlanRequestToJson(r));
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
  // A cold request's search spawns min(num_threads, candidates) threads, so
  // decode caps the client's choice. Decode only: no search runs here.
  PlanRequest request;
  request.model = ModelSpec::FromName("GPT2").value();
  request.options.num_threads = serve::kMaxRequestThreads;
  ExpectRoundTrip(request, serve::PlanRequestToJson,
                  serve::PlanRequestFromJson);
  for (int threads : {serve::kMaxRequestThreads + 1, 8191, 1 << 30}) {
    request.options.num_threads = threads;
    const auto decoded =
        serve::PlanRequestFromJson(serve::PlanRequestToJson(request));
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
  EXPECT_TRUE(serve::OptimizationFlagsFromJson(on.value()).ok());
  EXPECT_EQ(serve::OptimizationFlagsToJson(core::OptimizationFlags{}).Dump(),
            on.value().Dump());

  const auto off = json::Parse(flags + "false}");
  ASSERT_TRUE(off.ok());
  const auto decoded = serve::OptimizationFlagsFromJson(off.value());
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
  ExpectRoundTrip(request, serve::PlanRequestToJson,
                  serve::PlanRequestFromJson);
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
  ExpectRoundTrip(request, serve::PlanRequestToJson,
                  serve::PlanRequestFromJson);

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
      const auto decoded = serve::PlanRequestFromJson(parsed.value());
      ASSERT_FALSE(decoded.ok()) << field << "=" << number;
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(decoded.status().message().find(field), std::string::npos)
          << decoded.status();
    }
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
// Seeded corpus: one combined hash over the canonical and wire bytes of 64
// generated requests, pinned before the DOM-free writers replaced the
// Value-built encodings. Covers every ModelSpec kind, heterogeneous
// machines, both modes, every PolicyMode, fractional doubles, integers past
// 2^53 and names that need escaping.
// ---------------------------------------------------------------------------

std::string CorpusName(Rng* rng, const std::string& stem) {
  static const char* kOddities[] = {"\"", "\\", "\n", "\x01", "\xc3\xa9",
                                    "\xe2\x82\xac", "\t", "/"};
  std::string name = stem;
  const int extras = static_cast<int>(rng->NextBounded(3));
  for (int i = 0; i < extras; ++i) {
    name += kOddities[rng->NextBounded(std::size(kOddities))];
    name += std::to_string(rng->NextBounded(100));
  }
  return name;
}

hw::GpuSpec CorpusGpu(Rng* rng) {
  hw::GpuSpec g;
  g.name = CorpusName(rng, "gpu");
  g.memory_capacity = rng->NextBounded(4) == 0
                          ? static_cast<Bytes>(rng->NextInt(int64_t{1} << 53,
                                                            int64_t{1} << 60))
                          : static_cast<Bytes>(rng->NextInt(1, int64_t{1} << 40));
  g.peak_flops = 1e12 + rng->NextDouble() * 1e14;
  g.usable_fraction = 0.5 + rng->NextDouble() / 2;
  return g;
}

PlanRequest CorpusRequest(Rng* rng, int i) {
  PlanRequest r;
  switch (i % 3) {
    case 0: {
      static const char* kBuiltins[] = {"BERT-Large", "BERT96", "GPT2",
                                        "GPT2-Medium", "VGG416", "ResNet1K"};
      r.model.kind = ModelSpec::Kind::kBuiltin;
      r.model.name = rng->NextBounded(4) == 0
                         ? CorpusName(rng, "custom")
                         : kBuiltins[rng->NextBounded(std::size(kBuiltins))];
      break;
    }
    case 1:
      r.model.kind = ModelSpec::Kind::kGpt2Custom;
      r.model.billions = 0.1 + rng->NextDouble() * 40;
      r.model.name = "GPT2-" + std::to_string(r.model.billions) + "B";
      break;
    default:
      r.model.kind = ModelSpec::Kind::kTransformer;
      r.model.transformer.name = CorpusName(rng, "tx");
      r.model.name = r.model.transformer.name;
      r.model.transformer.num_blocks = static_cast<int>(rng->NextInt(1, 96));
      r.model.transformer.hidden = static_cast<int>(rng->NextInt(64, 8192));
      r.model.transformer.seq_len = static_cast<int>(rng->NextInt(16, 2048));
      r.model.transformer.heads = static_cast<int>(rng->NextInt(1, 64));
      r.model.transformer.vocab = static_cast<int>(rng->NextInt(100, 60000));
      r.model.transformer.is_bert = rng->NextBounded(2) == 0;
      break;
  }
  r.machine = rng->NextBounded(2) == 0 ? hw::MachineSpec::Commodity4Gpu()
                                       : hw::MachineSpec::Commodity8Gpu();
  r.machine.name = CorpusName(rng, r.machine.name);
  r.machine.gpu = CorpusGpu(rng);
  r.machine.pcie_bw *= 0.5 + rng->NextDouble();
  r.machine.host_memory = static_cast<Bytes>(rng->NextInt(1, int64_t{1} << 42));
  r.machine.cpu_update_bw = rng->NextDouble() * 1e11;
  if (i % 4 == 1 || i % 4 == 3) {
    r.machine.per_gpu.clear();
    for (int g = 0; g < r.machine.num_gpus; ++g) {
      r.machine.per_gpu.push_back(CorpusGpu(rng));
    }
  }
  if (i % 4 >= 2) {
    r.machine.link_bw_scale.clear();
    for (int l = 0; l < r.machine.NumLinks(); ++l) {
      r.machine.link_bw_scale.push_back(0.05 + rng->NextDouble());
    }
  }
  r.mode = i % 2 == 0 ? core::HarmonyMode::kPipelineParallel
                      : core::HarmonyMode::kDataParallel;
  r.minibatch = static_cast<int>(rng->NextInt(1, 512));
  r.flags.input_batch_grouping = rng->NextBounded(2) == 0;
  r.flags.jit_update = rng->NextBounded(2) == 0;
  r.flags.jit_compute = rng->NextBounded(2) == 0;
  r.flags.p2p_transfers = rng->NextBounded(2) == 0;
  r.flags.prefetch = rng->NextBounded(2) == 0;
  r.flags.cpu_optimizer = rng->NextBounded(2) == 0;
  r.flags.smart_eviction = rng->NextBounded(2) == 0;
  r.options.u_fwd_max = static_cast<int>(rng->NextInt(1, 64));
  r.options.u_bwd_max = static_cast<int>(rng->NextInt(1, 64));
  r.options.capacity_fraction = 0.05 + rng->NextDouble() * 0.95;
  r.options.equi_fb = rng->NextBounded(2) == 0;
  r.options.num_threads = static_cast<int>(rng->NextInt(1, 8));
  r.options.keep_explored = rng->NextBounded(2) == 0;
  r.options.policy_mode = static_cast<core::PolicyMode>(i % 6);
  r.run_iteration = rng->NextBounded(2) == 0;
  r.deadline_ms = static_cast<int>(rng->NextInt(0, 100000));
  r.bypass_cache = rng->NextBounded(2) == 0;
  return r;
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
    const auto back = serve::PlanRequestFromJson(parsed.value());
    ASSERT_TRUE(back.ok()) << i << ": " << back.status() << "\n" << w;
    EXPECT_EQ(serve::PlanRequestToJson(back.value()).Dump(), w);
    wire += w;
    wire.push_back('\n');
  }
  EXPECT_EQ(json::FingerprintHex(json::Fnv1a(canonical)), "27c43ec1aabce8c6");
  EXPECT_EQ(json::FingerprintHex(json::Fnv1a(wire)), "8d014d12d94c6afc");
}

}  // namespace
}  // namespace harmony
