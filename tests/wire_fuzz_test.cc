// A deterministic mutation corpus of plan frames (ctest label `fuzz`).
//
// Seeded serve_mixed-style frames, with members shuffled two levels deep and
// names that need escaping (wire_corpus.h), are mutated by truncation at
// every offset, single-byte substitutions, bit flips, duplicated and unknown
// members, \u-escaped keys and values, nesting at the parser's depth cap
// and trailing garbage. Every frame goes through the daemon's plan-frame
// decode. Each outcome must be OK or InvalidArgument, and one FNV-1a hash
// over all outcomes (the decoded request's canonical bytes and execution
// hints, or the status code) is pinned, so a decoder change that moves the
// accept set or a decoded value fails here.
//
// The pinned test uses fixed seeds. WireFuzz.RandomSeedOutcomesAreValid
// draws a fresh seed (or takes HARMONY_FUZZ_SEED) and prints it, so a red
// run replays by exporting the printed seed.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "serve/wire.h"
#include "wire_corpus.h"

namespace harmony {
namespace {

using serve::PlanRequest;

/// The daemon's decode of one frame up to the PlanRequest it would plan
/// (PlanServer::DispatchFrame). Every frame the daemon answers with an
/// error frame, or that is not a plan envelope, is an InvalidArgument here.
Result<PlanRequest> DecodeFrame(std::string_view frame) {
  auto envelope = serve::ScanEnvelope(frame);
  if (!envelope.ok()) return envelope.status();
  if (!envelope.value().has_type) {
    return Status::InvalidArgument("envelope missing \"type\"");
  }
  if (envelope.value().type != "plan") {
    return Status::InvalidArgument("not a plan envelope");
  }
  if (!envelope.value().has_request) {
    return Status::InvalidArgument("plan envelope missing \"request\"");
  }
  if (!envelope.value().request_status.ok()) {
    return envelope.value().request_status;
  }
  return envelope.value().request;
}

/// The byte path agrees with the DOM: the envelope scan accepts exactly the
/// frames json::Parse accepts, and rejects the others with the same
/// message; a request it decodes, the Value adapter decodes too, to the
/// same request.
void ExpectSameAsDom(std::string_view frame, const Result<PlanRequest>& decoded) {
  const auto scanned = serve::ScanEnvelope(frame);
  const auto parsed = json::Parse(frame);
  ASSERT_EQ(scanned.ok(), parsed.ok()) << frame;
  if (!parsed.ok()) {
    EXPECT_EQ(scanned.status().message(), parsed.status().message()) << frame;
    return;
  }
  if (!decoded.ok()) return;
  const auto adapted = serve::PlanRequestFromJson(*parsed.value().Find("request"));
  ASSERT_TRUE(adapted.ok()) << adapted.status() << "\n" << frame;
  EXPECT_EQ(serve::PlanRequestToJson(adapted.value()).Dump(),
            serve::PlanRequestToJson(decoded.value()).Dump());
}

/// One outcome as bytes: the canonical request plus the four fields the
/// canonical form leaves out, or the status code.
std::string Outcome(const Result<PlanRequest>& r) {
  if (!r.ok()) {
    return "status " + std::to_string(static_cast<int>(r.status().code()));
  }
  const PlanRequest& q = r.value();
  return serve::CanonicalRequestJson(q) + " " + std::to_string(q.deadline_ms) +
         " " + std::to_string(q.bypass_cache) + " " +
         std::to_string(q.options.num_threads) + " " +
         std::to_string(q.options.keep_explored);
}

/// Rebuilds `v` with the members of every object down to `depth` levels in
/// a seeded order, as perfbench's serve_mixed frames are.
json::Value Shuffled(const json::Value& v, Rng* rng, int depth) {
  if (!v.is_object() || depth == 0) return v;
  std::vector<size_t> order(v.members().size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBounded(i)]);
  }
  json::Value out = json::Value::Object();
  for (size_t i : order) {
    const auto& [key, member] = v.members()[i];
    out.Set(key, Shuffled(member, rng, depth - 1));
  }
  return out;
}

/// The envelope of corpus request `i`, with "type" first or last.
json::Value BaseEnvelope(Rng* corpus, Rng* shuffle, int i) {
  const PlanRequest r = wire_corpus::CorpusRequest(corpus, i);
  json::Value body = Shuffled(serve::PlanRequestToJson(r), shuffle, 2);
  json::Value envelope = json::Value::Object();
  if (shuffle->NextBounded(2) == 0) {
    envelope.Set("type", "plan");
    envelope.Set("request", std::move(body));
  } else {
    envelope.Set("request", std::move(body));
    envelope.Set("type", "plan");
  }
  return envelope;
}

/// `frame` with whitespace after every structural byte outside strings.
std::string Spaced(std::string_view frame, Rng* rng) {
  static const char* kWs[] = {" ", "\n", "\t", "\r\n  "};
  std::string out;
  bool in_string = false;
  for (size_t i = 0; i < frame.size(); ++i) {
    const char c = frame[i];
    out.push_back(c);
    if (in_string) {
      if (c == '\\' && i + 1 < frame.size()) {
        out.push_back(frame[++i]);
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[' || c == ',' || c == ':') {
      out += kWs[rng->NextBounded(4)];
    }
  }
  return " " + out + "\n";
}

/// Rebuilds the object at `path` (member keys from the root of `v`) with
/// `edit`; false when the path names no object.
template <typename Edit>
bool EditAt(json::Value* v, const std::vector<std::string>& path, size_t at,
            Edit edit) {
  if (!v->is_object()) return false;
  if (at == path.size()) {
    edit(v);
    return true;
  }
  json::Value out = json::Value::Object();
  bool found = false;
  for (const auto& [key, member] : v->members()) {
    json::Value m = member;
    if (!found && key == path[at]) found = EditAt(&m, path, at + 1, edit);
    out.Set(key, std::move(m));
  }
  *v = std::move(out);
  return found;
}

/// The object at `path` with member (key, value) placed first or last.
std::string WithMember(const json::Value& envelope,
                       const std::vector<std::string>& path,
                       const std::string& key, const json::Value& value,
                       bool first) {
  json::Value v = envelope;
  const bool found = EditAt(&v, path, 0, [&](json::Value* obj) {
    json::Value out = json::Value::Object();
    if (first) out.Set(key, value);
    for (const auto& [k, m] : obj->members()) out.Set(k, m);
    if (!first) out.Set(key, value);
    *obj = std::move(out);
  });
  EXPECT_TRUE(found);
  return v.Dump();
}

/// `n` nested arrays (or single-member objects) around a 0.
json::Value Nested(int n, bool objects) {
  json::Value v = json::Value::Int(0);
  for (int i = 0; i < n; ++i) {
    json::Value outer = objects ? json::Value::Object() : json::Value::Array();
    if (objects) {
      outer.Set("a", std::move(v));
    } else {
      outer.Append(std::move(v));
    }
    v = std::move(outer);
  }
  return v;
}

const json::Value* At(const json::Value& v, const std::vector<std::string>& path) {
  const json::Value* cur = &v;
  for (const std::string& key : path) {
    cur = cur->is_object() ? cur->Find(key) : nullptr;
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

/// Every frame of the pinned corpus, derived from `kBases` seeded envelopes.
std::vector<std::string> PinnedCorpus() {
  constexpr int kBases = 12;  // every model kind x every fleet-field shape
  Rng corpus(0x5eedc0de);     // the SeededCorpusIsPinned request stream
  Rng rng(0xf0220001);
  std::vector<std::string> frames = {
      "", "{}", "[]", "null", "\"plan\"", "{\"type\":\"plan\"}",
      "{\"type\":\"plan\",\"request\":null}", "{\"type\":\"plan\",\"request\":{}}",
      "{\"type\":\"ping\"}", "{\"type\":3}"};
  const std::vector<std::vector<std::string>> objects = {
      {},
      {"request"},
      {"request", "model"},
      {"request", "machine"},
      {"request", "machine", "gpu"},
      {"request", "flags"},
      {"request", "options"}};
  const std::vector<json::Value> values = {
      json::Value::Int(-1),         json::Value::Int(0),
      json::Value::Int(1),          json::Value::Int(4097),
      json::Value::Int(65537),      json::Value::Number(2.5),
      json::Value::Number(1e15),    json::Value::Str("x"),
      json::Value::Str("pp"),       json::Value::Str("plan"),
      json::Value::Str("sweep"),    json::Value::Bool(true),
      json::Value::Null(),          json::Value::Object(),
      json::Value::Array()};
  for (int b = 0; b < kBases; ++b) {
    const json::Value envelope = BaseEnvelope(&corpus, &rng, b);
    const std::string base = envelope.Dump();
    frames.push_back(base);
    frames.push_back(Spaced(base, &rng));

    for (size_t n = 0; n < base.size(); ++n) frames.push_back(base.substr(0, n));

    static const std::string kBytes = "{}[]:,\"\\ 0123456789.eE+-tfnu";
    for (int k = 0; k < 192; ++k) {
      std::string f = base;
      const size_t at = rng.NextBounded(f.size());
      f[at] = rng.NextBounded(4) == 0
                  ? static_cast<char>(rng.NextBounded(256))
                  : kBytes[rng.NextBounded(kBytes.size())];
      frames.push_back(std::move(f));
    }
    for (int k = 0; k < 192; ++k) {
      std::string f = base;
      const size_t at = rng.NextBounded(f.size());
      f[at] = static_cast<char>(f[at] ^ (1 << rng.NextBounded(8)));
      frames.push_back(std::move(f));
    }

    // Duplicated members (placed first, the copy wins; placed last, the
    // original does) and unknown members, on every object of the frame.
    for (const auto& path : objects) {
      const json::Value* obj = At(envelope, path);
      HARMONY_CHECK(obj != nullptr);
      std::vector<std::string> keys = {"zz_unknown"};
      for (const auto& [key, member] : obj->members()) keys.push_back(key);
      for (const std::string& key : keys) {
        for (const json::Value& value : values) {
          frames.push_back(WithMember(envelope, path, key, value, true));
          frames.push_back(WithMember(envelope, path, key, value, false));
        }
      }
    }
    // Non-finite doubles: the generic parser maps them to +-inf.
    for (const auto& [path, key] :
         std::vector<std::pair<std::vector<std::string>, std::string>>{
             {{"request", "machine", "gpu"}, "peak_flops"},
             {{"request", "machine"}, "pcie_bw"},
             {{"request", "machine"}, "uplink_bw"},
             {{"request", "machine"}, "host_mem_bw"},
             {{"request", "machine"}, "nvlink_bw"},
             {{"request", "machine"}, "cpu_update_bw"},
             {{"request", "model"}, "billions"},
             {{"request", "options"}, "capacity_fraction"}}) {
      for (const char* number : {"1e999", "-1e999"}) {
        std::string f = WithMember(envelope, path, key, json::Value::Int(7), true);
        const std::string from = "\"" + key + "\":7";
        f.replace(f.find(from), from.size(), "\"" + key + "\":" + number);
        frames.push_back(std::move(f));
      }
    }

    // \u-escaped keys and string values, one occurrence at a time, with
    // lower- and upper-case hex digits.
    for (const char* word :
         {"type", "request", "model", "kind", "name", "machine", "gpu",
          "mode", "minibatch", "flags", "options", "policy_mode", "plan",
          "pp", "dp", "deadline_ms", "bypass_cache", "per_gpu",
          "link_bw_scale", "use_recompute", "num_threads"}) {
      const std::string quoted = "\"" + std::string(word) + "\"";
      for (size_t at = base.find(quoted); at != std::string::npos;
           at = base.find(quoted, at + 1)) {
        for (const char* hex : {"0123456789abcdef", "0123456789ABCDEF"}) {
          const unsigned char c = static_cast<unsigned char>(word[0]);
          const std::string escape = std::string("\\u00") + hex[c >> 4] + hex[c & 0xf];
          std::string f = base;
          f.replace(at + 1, 1, escape);
          frames.push_back(std::move(f));
        }
      }
    }

    // Nesting at the cap: the envelope is depth 0, so a member of the
    // object at `path` sits at depth path.size() + 1; a value 64 deep
    // parses, 65 deep does not.
    for (const auto& path : objects) {
      const int member_depth = static_cast<int>(path.size()) + 1;
      for (int depth : {64, 65}) {
        for (bool as_objects : {false, true}) {
          frames.push_back(WithMember(envelope, path, "zz_deep",
                                      Nested(depth - member_depth, as_objects),
                                      rng.NextBounded(2) == 0));
        }
      }
    }

    for (const char* tail : {" ", "\n\t\r ", "x", "}", "{}", ",", "null", "]"}) {
      frames.push_back(base + tail);
    }
    frames.push_back(base + std::string(1, '\0'));
  }
  return frames;
}

TEST(WireFuzz, PlanFrameOutcomesArePinned) {
  const std::vector<std::string> frames = PinnedCorpus();
  std::string outcomes;
  int ok = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    const auto decoded = DecodeFrame(frames[i]);
    ExpectSameAsDom(frames[i], decoded);
    if (decoded.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "frame " << i << ": " << decoded.status() << "\n" << frames[i];
    }
    outcomes += Outcome(decoded);
    outcomes.push_back('\n');
  }
  EXPECT_EQ(frames.size(), 42360u);
  EXPECT_EQ(ok, 13408);
  EXPECT_EQ(json::FingerprintHex(json::Fnv1a(outcomes)), "b838e4eb78c0b681");
}

TEST(WireFuzz, RandomSeedOutcomesAreValid) {
  uint64_t seed;
  if (const char* env = std::getenv("HARMONY_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 0);
  } else {
    seed = std::random_device{}();
  }
  std::printf("fuzz seed = %llu  (rerun: HARMONY_FUZZ_SEED=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  Rng rng(seed);
  Rng corpus = rng.Split(1);
  std::vector<std::string> bases;
  for (int b = 0; b < 12; ++b) bases.push_back(BaseEnvelope(&corpus, &rng, b).Dump());
  for (int k = 0; k < 4000; ++k) {
    std::string f = bases[rng.NextBounded(bases.size())];
    const int edits = 1 + static_cast<int>(rng.NextBounded(3));
    for (int e = 0; e < edits && !f.empty(); ++e) {
      const size_t at = rng.NextBounded(f.size());
      switch (rng.NextBounded(4)) {
        case 0: f[at] = static_cast<char>(rng.NextBounded(256)); break;
        case 1: f[at] = static_cast<char>(f[at] ^ (1 << rng.NextBounded(8))); break;
        case 2: f.erase(at, 1 + rng.NextBounded(8)); break;
        default: f.insert(at, f.substr(rng.NextBounded(f.size()), 1 + rng.NextBounded(16)));
      }
    }
    const auto decoded = DecodeFrame(f);
    ExpectSameAsDom(f, decoded);
    if (!decoded.ok()) {
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "seed " << seed << " frame " << k << ": " << decoded.status();
    }
  }
}

}  // namespace
}  // namespace harmony
