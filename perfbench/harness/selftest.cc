// Self-test of the benchmark's own code: the percentile routine on known
// inputs, and the workload generators (same seed, same bytes; serve_mixed
// frames pairwise distinct yet fingerprinted like the pool). Run it with
// `python3 perfbench/run.py --self-test`.

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++failures;                                                     \
      std::fprintf(stderr, "%s:%d: FAILED %s\n", __FILE__, __LINE__, #cond); \
    }                                                                 \
  } while (0)

using harmony::serve::PlanRequest;
using harmony::serve::PlanRequestToJson;
using harmony::serve::RequestFingerprint;

std::string Bytes(const PlanRequest& r) { return PlanRequestToJson(r).Dump(); }

void NearestRankOnKnownInputs() {
  using perfbench::NearestRank;
  const std::vector<double> ten = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  EXPECT(NearestRank(ten, 50).value == 5);
  EXPECT(NearestRank(ten, 90).value == 9);
  EXPECT(NearestRank(ten, 99).value == 10);
  EXPECT(NearestRank(ten, 100).value == 10);
  EXPECT(NearestRank(ten, 0).value == 1);
  EXPECT(NearestRank(ten, 10).value == 1);
  EXPECT(NearestRank(ten, 11).value == 2);
  EXPECT(NearestRank(ten, 50).n == 10);
  EXPECT(NearestRank({42}, 99).value == 42);
  EXPECT(NearestRank({}, 50).n == 0);
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  EXPECT(NearestRank(thousand, 99).value == 990);  // ten samples above it
  EXPECT(NearestRank(thousand, 50).value == 500);
  EXPECT(NearestRank({1, 2, 3, 4}, 50).value == 2);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT(NearestRank(hundred, 90).value == 90);
  EXPECT(NearestRank(hundred, 99).value == 99);
}

void PlanJobsRepeatPerSeed() {
  std::set<std::string> seed1, seed2;
  for (int i = 0; i < 128; ++i) {
    EXPECT(Bytes(perfbench::PlanJob(1, i)) == Bytes(perfbench::PlanJob(1, i)));
    seed1.insert(Bytes(perfbench::PlanJob(1, i)));
    seed2.insert(Bytes(perfbench::PlanJob(2, i)));
  }
  EXPECT(seed1 != seed2);
  // Each block of 64 holds every (machine, mode, policy, model kind) class
  // four times, whatever the seed.
  for (uint64_t seed : {1u, 7u}) {
    std::map<std::string, int> classes;
    for (int i = 0; i < 64; ++i) {
      const PlanRequest r = perfbench::PlanJob(seed, i);
      const std::string key =
          std::to_string(r.machine.num_gpus) + harmony::core::HarmonyModeName(r.mode) +
          harmony::core::PolicyModeName(r.options.policy_mode) +
          (r.model.kind == harmony::serve::ModelSpec::Kind::kBuiltin ? "b" : "g");
      ++classes[key];
    }
    EXPECT(classes.size() == 16);
    for (const auto& [key, count] : classes) EXPECT(count == 4);
  }
}

void ServeInputsRepeatPerSeed() {
  const std::vector<PlanRequest> pool = perfbench::ServePool(3);
  const std::vector<PlanRequest> again = perfbench::ServePool(3);
  EXPECT(static_cast<int>(pool.size()) == perfbench::kPoolSize);
  std::set<uint64_t> fps;
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT(Bytes(pool[i]) == Bytes(again[i]));
    fps.insert(RequestFingerprint(pool[i]));
  }
  EXPECT(fps.size() == pool.size());
  for (const PlanRequest& r : perfbench::NovelRequests(3, 50, pool)) {
    EXPECT(fps.insert(RequestFingerprint(r)).second);  // misses the pool
  }
  const perfbench::PoolSchedule a(3, perfbench::kPoolSize), b(3, perfbench::kPoolSize);
  for (int k = 0; k < 10000; ++k) EXPECT(a[k] == b[k]);
}

void MixedFramesAreDistinctButSharePoolFingerprints() {
  const std::vector<PlanRequest> pool = perfbench::ServePool(5);
  const perfbench::PoolSchedule schedule(5, perfbench::kPoolSize);
  const perfbench::MixedFrames frames(5, pool), same(5, pool);
  std::set<std::string> replay;
  for (const PlanRequest& r : pool) {
    replay.insert(harmony::serve::ServeClient::EncodePlanEnvelope(r));
  }
  std::set<std::string> seen;
  for (int64_t k = 0; k < 3000; ++k) {
    const int p = schedule[k];
    const std::string frame = frames.Frame(k, p);
    EXPECT(frame == same.Frame(k, p));
    EXPECT(seen.insert(frame).second);  // pairwise distinct
    EXPECT(replay.count(frame) == 0);   // never the replay bytes
    auto envelope = harmony::json::Parse(frame);
    EXPECT(envelope.ok());
    if (!envelope.ok()) continue;
    const harmony::json::Value* body = envelope.value().Find("request");
    EXPECT(body != nullptr);
    if (body == nullptr) continue;
    auto request = harmony::serve::PlanRequestFromJson(*body);
    EXPECT(request.ok());
    if (request.ok()) {
      EXPECT(RequestFingerprint(request.value()) == RequestFingerprint(pool[p]));
    }
  }
}

}  // namespace

int main() {
  NearestRankOnKnownInputs();
  PlanJobsRepeatPerSeed();
  ServeInputsRepeatPerSeed();
  MixedFramesAreDistinctButSharePoolFingerprints();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: ok\n");
  return 0;
}
