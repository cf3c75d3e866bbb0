// The bounded configuration search (DESIGN.md §3 "Threading model", §8 "Lane
// floor"): the lane floor never exceeds the estimate it bounds, and a search
// that skips candidates by it returns exactly what the exhaustive sweep
// returns.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "core/estimator.h"
#include "core/search.h"
#include "graph_corpus.h"
#include "model/models.h"
#include "profile/profiler.h"

// Counts global operator new calls while armed, so a test can assert that a
// code path allocates nothing.
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

namespace harmony::core {
namespace {

profile::ProfileDb ProfileOf(const model::LayerGraph& graph,
                             const hw::MachineSpec& machine) {
  return profile::Profiler(machine.gpu, {}).Profile(model::Sequentialize(graph));
}

model::LayerGraph PaperModel(const std::string& name) {
  if (name == "BERT96") return model::Bert96();
  if (name == "GPT2") return model::Gpt2();
  if (name == "VGG416") return model::Vgg416();
  return model::ResNet1K();
}

constexpr PolicyMode kAllModes[] = {
    PolicyMode::kLegacy,  PolicyMode::kRecomputeAll, PolicyMode::kKeepAll,
    PolicyMode::kSwapAll, PolicyMode::kHybridGreedy, PolicyMode::kSweep};

TimeSec FloorOf(const profile::ProfileDb& db, const hw::MachineSpec& machine,
                const Configuration& config, HarmonyMode mode, int devices,
                int minibatch, const OptimizationFlags& flags) {
  const LaneFloor floor(db, machine, mode, devices, minibatch, flags,
                        std::max(config.u_fwd, config.u_bwd));
  return floor.Bound(config, floor.ForPolicy(config.policy, config.u_bwd));
}

// Every Harmony graph of the seeded corpus: PP and DP with uneven shares,
// ragged remainders, every flag ablation and every policy table. The 8-GPU
// draw gives PP lanes that outnumber the backward slots, so some lanes'
// top slot is a forward slot and their drain runs through the backward pass.
TEST(LaneFloor, NeverAboveEstimateOnCorpus) {
  struct Case {
    hw::MachineSpec machine;
    int max_devices;
  };
  for (const Case& m : {Case{hw::MachineSpec::Commodity4Gpu(), 4},
                        Case{hw::MachineSpec::Commodity8Gpu(), 8}}) {
    SCOPED_TRACE(m.max_devices);
    const profile::ProfileDb db =
        ProfileOf(model::TinyTransformer(16, 512, 128), m.machine);
    const RuntimeEstimator estimator(db, m.machine);
    int checked = 0;
    int forward_top = 0;  // PP graphs with a lane whose top slot is forward
    for (const corpus::CorpusGraph& c :
         corpus::SeededGraphCorpus(db, m.machine, 17, m.max_devices)) {
      if (!c.harmony) continue;
      const TimeSec floor = FloorOf(db, m.machine, c.config, c.mode,
                                    c.devices, c.minibatch, c.flags);
      const TimeSec estimate =
          estimator.EstimateIteration(c.graph).iteration_time;
      EXPECT_GT(floor, 0.0) << c.name;
      EXPECT_TRUE(floor <= estimate)
          << c.name << ": floor " << floor << " > estimate " << estimate;
      ++checked;
      if (c.mode == HarmonyMode::kPipelineParallel &&
          static_cast<int>(c.config.bwd_packs.size()) < c.devices &&
          !c.config.fwd_packs.empty()) {
        ++forward_top;
      }
    }
    EXPECT_EQ(checked, 288);
    EXPECT_GT(forward_top, 0);
  }
}

// A warm floor allocates nothing: Bound builds both passes into per-thread
// storage, and Compose only reads them.
TEST(LaneFloor, WarmBoundAllocatesNothing) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity8Gpu();
  const profile::ProfileDb db =
      ProfileOf(model::TinyTransformer(16, 512, 128), machine);
  const int R = db.num_layers();
  std::vector<Configuration> configs;
  for (int u : {1, 3, 4}) {
    for (int min_packs : {1, 6}) {
      configs.push_back(corpus::PackedConfig(db, u, u, MiB(256), min_packs));
    }
  }
  OptimizationFlags no_prefetch;
  no_prefetch.prefetch = false;
  for (HarmonyMode mode :
       {HarmonyMode::kPipelineParallel, HarmonyMode::kDataParallel}) {
    for (const OptimizationFlags& flags : {OptimizationFlags{}, no_prefetch}) {
      const LaneFloor floor(db, machine, mode, machine.num_gpus, 13, flags, 4);
      std::vector<LaneFloor::Policy> policies;
      for (const Configuration& c : configs) {
        PolicyTable mixed = PolicyTable::Uniform(R, StashPolicy::kRecompute);
        for (int l = 0; l < R; l += 3) mixed.Set(l, StashPolicy::kSwap);
        policies.push_back(floor.ForPolicy(mixed, c.u_bwd));
      }
      std::vector<double> cold;
      for (size_t i = 0; i < configs.size(); ++i) {
        cold.push_back(floor.Bound(configs[i], policies[i]));
      }
      LaneFloor::Pass fwd, bwd;
      floor.ForwardPass(configs[0].u_fwd, configs[0].fwd_packs,
                        configs[0].bwd_packs.back(), &fwd);
      floor.BackwardPass(configs[0].bwd_packs, policies[0], &bwd);
      std::vector<double> warm(configs.size());
      g_allocs = 0;
      g_count_allocs = true;
      for (size_t i = 0; i < configs.size(); ++i) {
        warm[i] = floor.Bound(configs[i], policies[i]);
      }
      const double composed = floor.Compose(fwd, bwd);
      g_count_allocs = false;
      EXPECT_EQ(g_allocs.load(), 0);
      for (size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(warm[i]),
                  std::bit_cast<uint64_t>(cold[i]));
      }
      EXPECT_EQ(std::bit_cast<uint64_t>(composed),
                std::bit_cast<uint64_t>(cold[0]));
    }
  }
}

// One keep_explored search per (model, mode): every explored candidate's
// floor is at most its estimate, for every policy mode and the flag
// ablations that reshape the lanes or the floor's terms: no jit-compute (the
// drain stops at the loss), no grouping, no prefetch (every later fetch is
// exposed) and no CPU optimizer (a GPU update follows each backward task).
// Two cases run on 8 GPUs at a ragged minibatch of 13, where PP lanes can
// outnumber the backward slots. The model is a std::string, not a const
// char*: gtest prints a char pointer's address into the listed test name,
// which would change the name from run to run.
class LaneFloorSearchTest
    : public ::testing::TestWithParam<std::tuple<std::string, HarmonyMode>> {};

TEST_P(LaneFloorSearchTest, NeverAboveEstimateOnExploredCandidates) {
  const auto [name, mode] = GetParam();
  OptimizationFlags no_jit_compute;
  no_jit_compute.jit_compute = false;
  OptimizationFlags no_grouping;
  no_grouping.input_batch_grouping = false;
  OptimizationFlags no_prefetch;
  no_prefetch.prefetch = false;
  OptimizationFlags no_cpu_optimizer;
  no_cpu_optimizer.cpu_optimizer = false;
  struct Case {
    PolicyMode policy;
    OptimizationFlags flags;
    int gpus = 4;
    int minibatch = 16;
    int u_max = 6;
  };
  std::vector<Case> cases;
  for (PolicyMode p : kAllModes) cases.push_back({p, OptimizationFlags{}});
  cases.push_back({PolicyMode::kSweep, no_jit_compute});
  cases.push_back({PolicyMode::kLegacy, no_grouping});
  cases.push_back({PolicyMode::kHybridGreedy, no_prefetch});
  cases.push_back({PolicyMode::kSweep, no_cpu_optimizer});
  cases.push_back({PolicyMode::kLegacy, OptimizationFlags{}, 8, 13, 5});
  cases.push_back({PolicyMode::kHybridGreedy, no_cpu_optimizer, 8, 13, 5});
  const profile::ProfileDb db4 =
      ProfileOf(PaperModel(name), hw::MachineSpec::Commodity4Gpu());
  const profile::ProfileDb db8 =
      ProfileOf(PaperModel(name), hw::MachineSpec::Commodity8Gpu());
  int searched = 0;
  int forward_top = 0;  // PP candidates with a lane whose top slot is forward
  for (const Case& c : cases) {
    const hw::MachineSpec machine = c.gpus == 4
                                        ? hw::MachineSpec::Commodity4Gpu()
                                        : hw::MachineSpec::Commodity8Gpu();
    const profile::ProfileDb& db = c.gpus == 4 ? db4 : db8;
    SearchOptions opts;
    opts.u_fwd_max = c.u_max;
    opts.u_bwd_max = c.u_max;
    opts.num_threads = 2;
    opts.keep_explored = true;
    opts.policy_mode = c.policy;
    const auto result =
        SearchConfiguration(db, machine, mode, c.minibatch, c.flags, opts);
    if (!result.ok()) {
      // Keeping every layer's stash can fit nowhere on the grid.
      ASSERT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << result.status();
      continue;
    }
    ++searched;
    const SearchResult& r = result.value();
    ASSERT_FALSE(r.explored.empty());
    EXPECT_EQ(r.configs_estimated, r.configs_feasible);
    for (const ExploredConfig& e : r.explored) {
      const TimeSec floor = FloorOf(db, machine, e.config, mode,
                                    machine.num_gpus, c.minibatch, c.flags);
      ASSERT_TRUE(floor <= e.estimate.iteration_time)
          << PolicyModeName(c.policy) << " on " << c.gpus << " GPUs, mb "
          << c.minibatch << " " << e.config.ToString() << ": floor " << floor
          << " > estimate " << e.estimate.iteration_time;
      if (static_cast<int>(e.config.bwd_packs.size()) < machine.num_gpus &&
          !e.config.fwd_packs.empty()) {
        ++forward_top;
      }
    }
  }
  EXPECT_GE(searched, 10);
  if (mode == HarmonyMode::kPipelineParallel) {
    EXPECT_GT(forward_top, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperModels, LaneFloorSearchTest,
    ::testing::Combine(::testing::Values("BERT96", "GPT2", "VGG416",
                                         "ResNet1K"),
                       ::testing::Values(HarmonyMode::kPipelineParallel,
                                         HarmonyMode::kDataParallel)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == HarmonyMode::kDataParallel ? "_DP"
                                                                    : "_PP");
    });

// The bounded search equals the exhaustive (keep_explored) one at 1, 2 and
// 4 threads: same winner, same estimate bits, same explored/feasible counts,
// for every policy mode and for the Equi-FB slice (Table 4).
class BoundedSearchParityTest
    : public ::testing::TestWithParam<std::tuple<std::string, HarmonyMode>> {};

TEST_P(BoundedSearchParityTest, MatchesExhaustiveSearch) {
  const auto [name, mode] = GetParam();
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const profile::ProfileDb db = ProfileOf(PaperModel(name), machine);
  std::vector<std::pair<PolicyMode, bool>> cases;  // (policy, equi_fb)
  for (PolicyMode policy : kAllModes) cases.emplace_back(policy, false);
  cases.emplace_back(PolicyMode::kLegacy, true);
  cases.emplace_back(PolicyMode::kSweep, true);
  for (const auto& [policy, equi_fb] : cases) {
    SearchOptions opts;
    opts.u_fwd_max = 12;
    opts.u_bwd_max = 12;
    opts.policy_mode = policy;
    opts.equi_fb = equi_fb;
    opts.keep_explored = true;
    const auto full =
        SearchConfiguration(db, machine, mode, 64, OptimizationFlags{}, opts);
    opts.keep_explored = false;
    for (int threads : {1, 2, 4}) {
      opts.num_threads = threads;
      const auto bounded =
          SearchConfiguration(db, machine, mode, 64, OptimizationFlags{}, opts);
      ASSERT_EQ(bounded.status().code(), full.status().code())
          << PolicyModeName(policy) << ": " << bounded.status() << " vs "
          << full.status();
      if (!full.ok()) continue;  // keep-all fits nowhere: both searches agree
      const SearchResult& a = full.value();
      const SearchResult& b = bounded.value();
      const std::string where =
          std::string(PolicyModeName(policy)) + (equi_fb ? " equi-fb" : "") +
          " at " + std::to_string(threads) + " threads";
      EXPECT_EQ(b.best.u_fwd, a.best.u_fwd) << where;
      EXPECT_EQ(b.best.u_bwd, a.best.u_bwd) << where;
      EXPECT_EQ(b.best.fwd_packs, a.best.fwd_packs) << where;
      EXPECT_EQ(b.best.bwd_packs, a.best.bwd_packs) << where;
      EXPECT_EQ(b.best.policy, a.best.policy) << where;
      EXPECT_EQ(std::bit_cast<uint64_t>(b.best_estimate.iteration_time),
                std::bit_cast<uint64_t>(a.best_estimate.iteration_time))
          << where;
      EXPECT_EQ(b.best_estimate.swap_bytes, a.best_estimate.swap_bytes)
          << where;
      EXPECT_EQ(b.best_estimate.p2p_bytes, a.best_estimate.p2p_bytes) << where;
      EXPECT_EQ(b.configs_explored, a.configs_explored) << where;
      EXPECT_EQ(b.configs_feasible, a.configs_feasible) << where;
      EXPECT_TRUE(b.explored.empty()) << where;
      EXPECT_GE(b.configs_estimated, 1) << where;
      EXPECT_LE(b.configs_estimated, b.configs_feasible) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1Models, BoundedSearchParityTest,
    ::testing::Combine(::testing::Values("BERT96", "GPT2"),
                       ::testing::Values(HarmonyMode::kPipelineParallel,
                                         HarmonyMode::kDataParallel)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == HarmonyMode::kDataParallel ? "_DP"
                                                                    : "_PP");
    });

// The set-up request of the serving benchmarks: GPT2 PP at minibatch 64 on
// the default grid. At one thread the count is deterministic, and the floor
// rules out all but 2% of the grid, a bound that a floor without the drain
// and the exposed fetches (178 of 8,192 estimated) fails.
TEST(BoundedSearch, PrunesMostOfGpt2Pp64) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const profile::ProfileDb db = ProfileOf(model::Gpt2(), machine);
  const auto result =
      SearchConfiguration(db, machine, HarmonyMode::kPipelineParallel, 64,
                          OptimizationFlags{}, SearchOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  const SearchResult& r = result.value();
  EXPECT_GT(r.configs_feasible, 0);
  EXPECT_LT(r.configs_estimated * 50, r.configs_feasible)
      << r.configs_estimated << " of " << r.configs_feasible << " estimated";
}

// One-thread PP searches at minibatch 64 on the default grid (Table 1's
// setting, on 4 and 8 GPUs): how many candidates the bounded search
// estimates, and the winner's estimate bits. The counts measure how tight
// the lane floor is, so a tighter floor may only lower them. The winner
// bits are the exhaustive sweep's.
TEST(BoundedSearch, SerialPp64EstimateCounts) {
  struct Case {
    const char* model;
    int gpus;
    int estimated;
    uint64_t best_bits;
  };
  const Case cases[] = {
      {"GPT2", 4, 118, 0x404a79dc547db3efULL},
      {"GPT2", 8, 1224, 0x404065de98c8514eULL},
      {"BERT96", 4, 348, 0x4034ce5f266af385ULL},
      {"BERT96", 8, 286, 0x402779ca4e2c9d52ULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.model) + " on " + std::to_string(c.gpus));
    const hw::MachineSpec machine = c.gpus == 4
                                        ? hw::MachineSpec::Commodity4Gpu()
                                        : hw::MachineSpec::Commodity8Gpu();
    const profile::ProfileDb db = ProfileOf(PaperModel(c.model), machine);
    const auto result =
        SearchConfiguration(db, machine, HarmonyMode::kPipelineParallel, 64,
                            OptimizationFlags{}, SearchOptions{});
    ASSERT_TRUE(result.ok()) << result.status();
    const SearchResult& r = result.value();
    EXPECT_EQ(r.configs_explored, 8192);
    EXPECT_EQ(r.configs_feasible, 8192);
    EXPECT_EQ(r.configs_estimated, c.estimated);
    EXPECT_EQ(std::bit_cast<uint64_t>(r.best_estimate.iteration_time),
              c.best_bits);
  }
}

// Forward floors {1, N, 2N, 4N} often yield the same forward packs (the floor
// is clamped to the forward layers, or the natural packing already exceeds
// it), and backward floors the same backward packs. The bounded search
// estimates each distinct (U_B, U_F, backward packs, forward packs) at most
// once, while the explored and feasible counts still cover every grid point
// and the winner is the exhaustive sweep's, bit for bit. The pinned counts
// and winner bits are those of the search before duplicates were skipped.
TEST(BoundedSearch, DuplicateCandidatesAreEstimatedOnce) {
  struct Case {
    const char* name;
    model::LayerGraph layers;
    int minibatch;
    Bytes gpu_memory;  // 0 = the machine's own
    int explored;
    uint64_t best_bits;
  };
  const Case cases[] = {
      {"GPT2 pp 64", model::Gpt2(), 64, 0, 8192, 0x404a79dc547db3efULL},
      // 20 layers: every forward pass has fewer layers than the 4N floor.
      {"TinyTransformer pp 8", model::TinyTransformer(16, 512, 128), 8,
       MiB(512), 512, 0x3fb4072deded0d1bULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
    if (c.gpu_memory > 0) machine.gpu.memory_capacity = c.gpu_memory;
    const profile::ProfileDb db = ProfileOf(c.layers, machine);
    SearchOptions opts;
    opts.keep_explored = true;
    const auto full =
        SearchConfiguration(db, machine, HarmonyMode::kPipelineParallel,
                            c.minibatch, OptimizationFlags{}, opts);
    opts.keep_explored = false;
    const auto bounded =
        SearchConfiguration(db, machine, HarmonyMode::kPipelineParallel,
                            c.minibatch, OptimizationFlags{}, opts);
    ASSERT_TRUE(full.ok()) << full.status();
    ASSERT_TRUE(bounded.ok()) << bounded.status();
    const SearchResult& a = full.value();
    const SearchResult& b = bounded.value();

    // keep_explored still estimates and lists every feasible grid point.
    EXPECT_EQ(a.configs_estimated, a.configs_feasible);
    EXPECT_EQ(static_cast<int>(a.explored.size()), a.configs_feasible);
    // Legacy mode has one table per point, so the distinct candidate tables
    // are the distinct four-tuples among the explored points.
    std::vector<const Configuration*> distinct;
    for (const ExploredConfig& e : a.explored) {
      const Configuration& x = e.config;
      if (std::none_of(distinct.begin(), distinct.end(),
                       [&](const Configuration* y) {
                         return x.u_bwd == y->u_bwd && x.u_fwd == y->u_fwd &&
                                x.bwd_packs == y->bwd_packs &&
                                x.fwd_packs == y->fwd_packs;
                       })) {
        distinct.push_back(&x);
      }
      if (c.gpu_memory > 0) {
        EXPECT_LT(x.bwd_packs.back().lo, 4 * machine.num_gpus);
      }
    }
    EXPECT_LT(distinct.size(), a.explored.size()) << "no duplicates to skip";
    EXPECT_LE(b.configs_estimated, static_cast<int>(distinct.size()));

    for (const SearchResult* r : {&a, &b}) {
      EXPECT_EQ(r->configs_explored, c.explored);
      EXPECT_EQ(r->configs_feasible, c.explored);  // every point fits
      EXPECT_EQ(std::bit_cast<uint64_t>(r->best_estimate.iteration_time),
                c.best_bits);
    }
    EXPECT_EQ(b.best.u_fwd, a.best.u_fwd);
    EXPECT_EQ(b.best.u_bwd, a.best.u_bwd);
    EXPECT_EQ(b.best.fwd_packs, a.best.fwd_packs);
    EXPECT_EQ(b.best.bwd_packs, a.best.bwd_packs);
    EXPECT_EQ(b.best_estimate.swap_bytes, a.best_estimate.swap_bytes);
    EXPECT_EQ(b.best_estimate.p2p_bytes, a.best_estimate.p2p_bytes);
  }
}

// A token tripped before the call stops the search in its prep pass, before
// any candidate is estimated: the status names the phase, so this holds
// without depending on timing.
TEST(BoundedSearch, CancelledTokenStopsThePrepPass) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const profile::ProfileDb db = ProfileOf(model::Gpt2(), machine);
  common::CancelToken cancelled;
  cancelled.Cancel();
  common::CancelToken expired;
  expired.SetDeadline(common::CancelToken::Clock::now() -
                      std::chrono::seconds(1));
  for (const common::CancelToken* token : {&cancelled, &expired}) {
    SearchOptions opts;
    opts.num_threads = 4;
    opts.cancel = token;
    const auto result =
        SearchConfiguration(db, machine, HarmonyMode::kPipelineParallel, 64,
                            OptimizationFlags{}, opts);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), token == &cancelled
                                          ? StatusCode::kCancelled
                                          : StatusCode::kDeadlineExceeded);
    EXPECT_NE(result.status().message().find("preparing candidates"),
              std::string::npos)
        << result.status();
  }
}

}  // namespace
}  // namespace harmony::core
