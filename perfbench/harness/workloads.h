#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "profile/profiler.h"
#include "report.h"
#include "serve/wire.h"

namespace perfbench {

/// Seeded input generators. Everything a workload feeds the program comes
/// from here and is a pure function of the seed (and an index), so the same
/// seed always produces the same bytes.

/// The i-th plan_cold job. Every block of 64 jobs holds each class
/// (builtin vs generated transformer, 4 vs 8 GPUs, pp vs dp, legacy vs
/// sweep) at each of four size levels once; the seed picks the order and
/// perturbs the generated models. A fixed mix keeps the medians of one seed
/// close to those of another.
harmony::serve::PlanRequest PlanJob(uint64_t seed, int index);

/// The canonical wire encoding of a configuration: what "bit-identical
/// plans" compares.
inline std::string ConfigJson(const harmony::core::Configuration& config) {
  return harmony::serve::ConfigurationToJson(config).Dump();
}

/// A request's model as planning consumes it.
struct Profiled {
  harmony::model::SequentialModel model;
  harmony::profile::ProfileDb profiles;
};

/// Builds and profiles the request's model the way the planning service
/// does, as spans `model.build` and `profile.profile` of operation `op`.
Profiled BuildAndProfile(const harmony::serve::PlanRequest& r, Spans* spans, int64_t op);

/// Every fourth plan_cold job also runs the adaptive loop.
inline bool PlanJobAdapts(int index) { return index % 4 == 3; }

/// The serve workloads' warm pool: `kPoolSize` plan requests for small
/// generated transformers, one per fixed shape, pairwise distinct
/// fingerprints.
inline constexpr int kPoolSize = 32;
std::vector<harmony::serve::PlanRequest> ServePool(uint64_t seed);

/// `count` requests whose fingerprints differ from the pool's and from each
/// other: the serve_mixed stream that must miss the cache.
std::vector<harmony::serve::PlanRequest> NovelRequests(uint64_t seed, int count,
                                              const std::vector<harmony::serve::PlanRequest>& pool);

/// Pool index of the k-th scheduled request (shared by both serve workloads).
class PoolSchedule {
 public:
  PoolSchedule(uint64_t seed, int pool_size);
  int operator[](int64_t k) const {
    return order_[static_cast<size_t>(k) % order_.size()];
  }

 private:
  std::vector<int> order_;
};

/// serve_mixed frames: each pool request pre-rendered in several seeded
/// member orders, with the deadline left as a slot. Frame(k) fills the slot
/// with a deadline unique to k, so no two frames of a run are byte-identical
/// while every frame keeps its pool entry's fingerprint.
class MixedFrames {
 public:
  MixedFrames(uint64_t seed, const std::vector<harmony::serve::PlanRequest>& pool);
  std::string Frame(int64_t k, int pool_index) const;

 private:
  static constexpr int kVariants = 8;
  struct Template {
    std::string head, tail;  // frame bytes before / after the deadline value
  };
  uint64_t seed_;
  std::vector<std::vector<Template>> templates_;  // [pool][variant]
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
