#ifndef HARMONY_SERVE_WIRE_H_
#define HARMONY_SERVE_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/json.h"
#include "common/status.h"
#include "core/config.h"
#include "core/search.h"
#include "hw/machine.h"
#include "model/memory.h"
#include "model/models.h"
#include "runtime/runtime.h"

namespace harmony::serve {

/// The wire format of the planning service (DESIGN.md §9): canonical JSON
/// encodings of the planner's request and response types, plus the FNV-1a
/// request fingerprint the PlanCache is addressed by.
///
/// Canonicality contract: every `*ToJson` writer emits members in a fixed
/// order with json::Value's canonical number/string rendering, so
/// serialize -> parse -> serialize is byte-identical and the fingerprint of
/// a request is stable across processes and releases. wire_test pins
/// fingerprints for BERT96/GPT-2 requests and a seeded corpus; changing any
/// writer breaks those goldens loudly instead of silently splitting the
/// cache.
///
/// The request types (ModelSpec, GpuSpec, MachineSpec, flags, options,
/// PlanRequest) each have one field list, a `Write*` routine on a
/// json::Writer: the fingerprint is written straight from the struct, and
/// their `*ToJson` Values are parsed from the same bytes.

/// What model to plan for. Models are described by *specs* (builder
/// parameters), not serialized layer graphs: a spec is a few bytes, fully
/// determines the LayerGraph (builders are deterministic), and is therefore
/// the natural content-address component.
struct ModelSpec {
  enum class Kind : uint8_t {
    kBuiltin,      // one of the paper's evaluation models, by name
    kGpt2Custom,   // GPT2 scaled to `billions` parameters (Sec 5.7)
    kTransformer,  // fully custom transformer (model::TransformerConfig)
  };
  Kind kind = Kind::kBuiltin;
  /// Builtin name ("GPT2", "BERT96", ...) or display name for custom kinds.
  std::string name;
  double billions = 0;  // kGpt2Custom only
  model::TransformerConfig transformer;  // kTransformer only

  /// Parses the CLI model grammar shared with harmony_plan: builtin names
  /// plus "GPT2-<N>B".
  static Result<ModelSpec> FromName(const std::string& name);
};

/// Materializes the spec's layer graph (InvalidArgument for unknown names).
Result<model::LayerGraph> BuildModel(const ModelSpec& spec);

/// The optimizer the paper trains this model family with (Sec 5.1): SGD
/// with momentum for the CNNs, Adam for the transformers.
model::Optimizer DefaultOptimizer(const ModelSpec& spec);

/// Decode-time upper bounds. A task holds minibatch / u microbatch pieces,
/// so an unbounded minibatch makes one search run for minutes past its
/// deadline; requests above these caps are InvalidArgument at decode.
inline constexpr int kMaxRequestMinibatch = 65536;
/// Cap on SearchOptions::u_fwd_max and u_bwd_max.
inline constexpr int kMaxRequestMicrobatch = 1024;
/// Cap on SearchOptions::num_threads: a cold request's search spawns up to
/// that many threads, so the client must not pick an unbounded number.
inline constexpr int kMaxRequestThreads = 64;

/// A planning request: everything Algorithm 1 needs, plus execution hints.
struct PlanRequest {
  ModelSpec model;
  hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  core::HarmonyMode mode = core::HarmonyMode::kPipelineParallel;
  int minibatch = 1;
  core::OptimizationFlags flags;
  core::SearchOptions options;
  /// Also execute one simulated iteration of the chosen plan and attach its
  /// RunMetrics to the response. Fingerprinted (the response differs).
  bool run_iteration = false;

  // --- execution hints: affect *how* the request runs, never the plan, and
  // --- are therefore excluded from the fingerprint.
  int deadline_ms = 0;       // 0 = no deadline
  bool bypass_cache = false; // force a fresh search (cold-path debugging)
};

/// The {"type":"plan","response":...} reply frame of a plan-cache hit, split
/// around its latency_seconds value — the only bytes that differ between
/// two hits on one cached plan.
struct HitReply {
  std::string head;  // through "latency_seconds":
  std::string tail;  // everything after the latency value
};

/// A planning response. `status` uses the serving codes for load-shedding
/// (ResourceExhausted + retry_after_ms), deadlines (DeadlineExceeded) and
/// drain (Unavailable) in addition to search failures.
struct PlanResponse {
  Status status = Status::Ok();
  uint64_t fingerprint = 0;
  bool cache_hit = false;
  /// How the cluster tier resolved a local miss without a search: "" (a
  /// normal hit or a locally searched plan), "peer" (fetched from the
  /// fingerprint's owner daemon), or "disk" (revived from the warm store).
  std::string filled_from;
  int retry_after_ms = 0;        // set when status is ResourceExhausted
  double latency_seconds = 0;    // service-side end-to-end latency

  core::Configuration config;
  core::Estimate estimate;
  int configs_explored = 0;
  int configs_feasible = 0;
  double search_seconds = 0;     // wall time of the (cold) search

  bool has_metrics = false;
  runtime::RunMetrics metrics;   // when the request asked to run_iteration

  /// Set on plan-cache hits only: this response's reply frame, encoded when
  /// the plan entered the cache. Never on the wire.
  std::shared_ptr<const HitReply> hit_reply;
};

/// Encodes `hit` (status OK, cache_hit set, no fill source) with the
/// reference encoder below and splits it around the latency.
HitReply EncodeHitReply(const PlanResponse& hit);

/// The {"type":"plan","response":PlanResponseToJson(response)} frame the
/// daemon answers a plan envelope with. A hit splices its latency into
/// `hit_reply`; every other response is rendered through the Value.
std::string PlanReplyFrame(const PlanResponse& response);

// --- per-type JSON writers/readers (fixed member order; see contract) -----
void WriteModelSpec(const ModelSpec& spec, json::Writer* w);
void WriteGpuSpec(const hw::GpuSpec& gpu, json::Writer* w);

json::Value ModelSpecToJson(const ModelSpec& spec);
Result<ModelSpec> ModelSpecFromJson(const json::Value& v);

json::Value MachineSpecToJson(const hw::MachineSpec& machine);
Result<hw::MachineSpec> MachineSpecFromJson(const json::Value& v);

json::Value SearchOptionsToJson(const core::SearchOptions& options);
Result<core::SearchOptions> SearchOptionsFromJson(const json::Value& v);

json::Value OptimizationFlagsToJson(const core::OptimizationFlags& flags);
Result<core::OptimizationFlags> OptimizationFlagsFromJson(const json::Value& v);

json::Value ConfigurationToJson(const core::Configuration& config);
Result<core::Configuration> ConfigurationFromJson(const json::Value& v);

json::Value EstimateToJson(const core::Estimate& estimate);
Result<core::Estimate> EstimateFromJson(const json::Value& v);

json::Value RunMetricsToJson(const runtime::RunMetrics& metrics);
Result<runtime::RunMetrics> RunMetricsFromJson(const json::Value& v);

json::Value PlanRequestToJson(const PlanRequest& request);
Result<PlanRequest> PlanRequestFromJson(const json::Value& v);

json::Value PlanResponseToJson(const PlanResponse& response);
Result<PlanResponse> PlanResponseFromJson(const json::Value& v);

/// The cluster tier's peer-fill probe (DESIGN.md §13): a daemon that missed
/// its PlanCache asks the fingerprint's owner whether *it* holds the plan.
/// Lookup-only on the owner side — a cache_get never starts a search and
/// never forwards, so a tier-wide stampede can't recurse. The canonical
/// request bytes ride along so the owner verifies them exactly like a local
/// Lookup does: a fingerprint collision degrades to a miss across the wire
/// too.
struct CacheGetRequest {
  uint64_t fingerprint = 0;
  std::string canonical_request;
};

/// Full {"type":"cache_get",...} envelope (fixed member order; the frame
/// bytes are part of the wire contract and pinned in wire_test).
json::Value CacheGetRequestToJson(const CacheGetRequest& request);
Result<CacheGetRequest> CacheGetRequestFromJson(const json::Value& v);

/// Canonical byte string the fingerprint hashes: the request's semantic
/// fields only (model, machine, mode, minibatch, flags, the four semantic
/// search knobs, run_iteration). Execution hints (deadline, cache bypass)
/// and result-identical knobs (num_threads, keep_explored — the search is
/// bit-identical at any thread count) are deliberately excluded, so a
/// retried request with a longer deadline still hits the cache.
std::string CanonicalRequestJson(const PlanRequest& request);

/// FNV-1a over CanonicalRequestJson — the plan cache's content address.
uint64_t RequestFingerprint(const PlanRequest& request);

}  // namespace harmony::serve

#endif  // HARMONY_SERVE_WIRE_H_
