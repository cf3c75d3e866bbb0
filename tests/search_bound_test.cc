// The bounded configuration search (DESIGN.md §3 "Threading model", §8 "Lane
// floor"): the lane floor never exceeds the estimate it bounds, and a search
// that skips candidates by it returns exactly what the exhaustive sweep
// returns.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "core/estimator.h"
#include "core/search.h"
#include "graph_corpus.h"
#include "model/models.h"
#include "profile/profiler.h"

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
// ragged remainders, every flag ablation and every policy table.
TEST(LaneFloor, NeverAboveEstimateOnCorpus) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const profile::ProfileDb db =
      ProfileOf(model::TinyTransformer(16, 512, 128), machine);
  const RuntimeEstimator estimator(db, machine);
  int checked = 0;
  for (const corpus::CorpusGraph& c : corpus::SeededGraphCorpus(db, machine)) {
    if (!c.harmony) continue;
    const TimeSec floor = FloorOf(db, machine, c.config, c.mode, c.devices,
                                  c.minibatch, c.flags);
    const TimeSec estimate = estimator.EstimateIteration(c.graph).iteration_time;
    EXPECT_GT(floor, 0.0) << c.name;
    EXPECT_TRUE(floor <= estimate)
        << c.name << ": floor " << floor << " > estimate " << estimate;
    ++checked;
  }
  EXPECT_EQ(checked, 288);
}

// One keep_explored search per (model, mode): every explored candidate's
// floor is at most its estimate, for every policy mode and two flag
// ablations that reshape the lanes.
class LaneFloorSearchTest
    : public ::testing::TestWithParam<std::tuple<const char*, HarmonyMode>> {};

TEST_P(LaneFloorSearchTest, NeverAboveEstimateOnExploredCandidates) {
  const auto [name, mode] = GetParam();
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const profile::ProfileDb db = ProfileOf(PaperModel(name), machine);
  constexpr int kMinibatch = 16;
  OptimizationFlags no_jit_compute;
  no_jit_compute.jit_compute = false;
  OptimizationFlags no_grouping;
  no_grouping.input_batch_grouping = false;
  struct Case {
    PolicyMode policy;
    OptimizationFlags flags;
  };
  std::vector<Case> cases;
  for (PolicyMode p : kAllModes) cases.push_back({p, OptimizationFlags{}});
  cases.push_back({PolicyMode::kSweep, no_jit_compute});
  cases.push_back({PolicyMode::kLegacy, no_grouping});
  int searched = 0;
  for (const Case& c : cases) {
    SearchOptions opts;
    opts.u_fwd_max = 6;
    opts.u_bwd_max = 6;
    opts.num_threads = 2;
    opts.keep_explored = true;
    opts.policy_mode = c.policy;
    const auto result =
        SearchConfiguration(db, machine, mode, kMinibatch, c.flags, opts);
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
                                    machine.num_gpus, kMinibatch, c.flags);
      ASSERT_TRUE(floor <= e.estimate.iteration_time)
          << PolicyModeName(c.policy) << " " << e.config.ToString()
          << ": floor " << floor << " > estimate "
          << e.estimate.iteration_time;
    }
  }
  EXPECT_GE(searched, 6);
}

INSTANTIATE_TEST_SUITE_P(
    PaperModels, LaneFloorSearchTest,
    ::testing::Combine(::testing::Values("BERT96", "GPT2", "VGG416",
                                         "ResNet1K"),
                       ::testing::Values(HarmonyMode::kPipelineParallel,
                                         HarmonyMode::kDataParallel)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == HarmonyMode::kDataParallel ? "_DP"
                                                                    : "_PP");
    });

// The bounded search equals the exhaustive (keep_explored) one at 1, 2 and
// 4 threads: same winner, same estimate bits, same explored/feasible counts,
// for every policy mode and for the Equi-FB slice (Table 4).
class BoundedSearchParityTest
    : public ::testing::TestWithParam<std::tuple<const char*, HarmonyMode>> {};

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
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == HarmonyMode::kDataParallel ? "_DP"
                                                                    : "_PP");
    });

// The set-up request of the serving benchmarks: GPT2 PP at minibatch 64 on
// the default grid. At one thread the count is deterministic, and the floor
// rules out most of the grid.
TEST(BoundedSearch, PrunesMostOfGpt2Pp64) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const profile::ProfileDb db = ProfileOf(model::Gpt2(), machine);
  const auto result =
      SearchConfiguration(db, machine, HarmonyMode::kPipelineParallel, 64,
                          OptimizationFlags{}, SearchOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  const SearchResult& r = result.value();
  EXPECT_GT(r.configs_feasible, 0);
  EXPECT_LT(r.configs_estimated * 10, r.configs_feasible * 3)
      << r.configs_estimated << " of " << r.configs_feasible << " estimated";
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
