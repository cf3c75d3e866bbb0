// The parallel configuration search must be a pure wall-time optimization:
// for any worker count it returns bit-identical results to the serial
// reference — same best configuration, same estimate, same explored /
// feasible counts (DESIGN.md "Threading model").

#include <gtest/gtest.h>

#include <vector>

#include "core/search.h"
#include "model/models.h"
#include "profile/profiler.h"

namespace harmony::core {
namespace {

class SearchParallelTest : public ::testing::TestWithParam<const char*> {
 protected:
  SearchParallelTest() : machine_(hw::MachineSpec::Commodity4Gpu()) {}

  profile::ProfileDb Profiles() const {
    model::LayerGraph graph = std::string(GetParam()) == "BERT96"
                                  ? model::Bert96()
                                  : model::Gpt2();
    const model::SequentialModel seq = model::Sequentialize(graph);
    return profile::Profiler(machine_.gpu, {}).Profile(seq);
  }

  SearchResult Search(const profile::ProfileDb& db, HarmonyMode mode,
                      int num_threads) const {
    SearchOptions opts;
    opts.u_fwd_max = 16;
    opts.u_bwd_max = 16;
    opts.num_threads = num_threads;
    const auto result =
        SearchConfiguration(db, machine_, mode, 64, OptimizationFlags{}, opts);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.value();
  }

  hw::MachineSpec machine_;
};

TEST_P(SearchParallelTest, ThreadCountInvariantPipelineParallel) {
  const profile::ProfileDb db = Profiles();
  const SearchResult serial = Search(db, HarmonyMode::kPipelineParallel, 1);
  for (int threads : {2, 8}) {
    const SearchResult par = Search(db, HarmonyMode::kPipelineParallel, threads);
    EXPECT_EQ(par.best.u_fwd, serial.best.u_fwd) << threads << " threads";
    EXPECT_EQ(par.best.u_bwd, serial.best.u_bwd) << threads << " threads";
    EXPECT_EQ(par.best.fwd_packs, serial.best.fwd_packs);
    EXPECT_EQ(par.best.bwd_packs, serial.best.bwd_packs);
    // Bit-identical, not just close: the same pure evaluations are merged by
    // the same deterministic rule regardless of which worker ran them.
    EXPECT_EQ(par.best_estimate.iteration_time,
              serial.best_estimate.iteration_time);
    EXPECT_EQ(par.best_estimate.swap_bytes, serial.best_estimate.swap_bytes);
    EXPECT_EQ(par.best_estimate.p2p_bytes, serial.best_estimate.p2p_bytes);
    EXPECT_EQ(par.configs_explored, serial.configs_explored);
    EXPECT_EQ(par.configs_feasible, serial.configs_feasible);
  }
}

TEST_P(SearchParallelTest, ThreadCountInvariantDataParallel) {
  const profile::ProfileDb db = Profiles();
  const SearchResult serial = Search(db, HarmonyMode::kDataParallel, 1);
  const SearchResult par = Search(db, HarmonyMode::kDataParallel, 4);
  EXPECT_EQ(par.best.u_fwd, serial.best.u_fwd);
  EXPECT_EQ(par.best.u_bwd, serial.best.u_bwd);
  EXPECT_EQ(par.best.fwd_packs, serial.best.fwd_packs);
  EXPECT_EQ(par.best.bwd_packs, serial.best.bwd_packs);
  EXPECT_EQ(par.best_estimate.iteration_time,
            serial.best_estimate.iteration_time);
  EXPECT_EQ(par.configs_explored, serial.configs_explored);
  EXPECT_EQ(par.configs_feasible, serial.configs_feasible);
}

INSTANTIATE_TEST_SUITE_P(Table1Models, SearchParallelTest,
                         ::testing::Values("BERT96", "GPT2"),
                         [](const auto& info) { return info.param; });

TEST(SearchExplored, DroppedByDefaultKeptOnRequest) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const model::SequentialModel seq =
      model::Sequentialize(model::TinyTransformer(16, 512, 128));
  const profile::ProfileDb db = profile::Profiler(machine.gpu, {}).Profile(seq);
  hw::MachineSpec small = machine;
  small.gpu.memory_capacity = MiB(512);

  SearchOptions opts;
  opts.u_fwd_max = 4;
  opts.u_bwd_max = 4;
  opts.num_threads = 2;
  const auto dropped = SearchConfiguration(
      db, small, HarmonyMode::kPipelineParallel, 8, OptimizationFlags{}, opts);
  ASSERT_TRUE(dropped.ok());
  EXPECT_TRUE(dropped.value().explored.empty());

  opts.keep_explored = true;
  const auto kept = SearchConfiguration(
      db, small, HarmonyMode::kPipelineParallel, 8, OptimizationFlags{}, opts);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(static_cast<int>(kept.value().explored.size()),
            kept.value().configs_feasible);
  EXPECT_EQ(kept.value().configs_feasible, dropped.value().configs_feasible);
}

}  // namespace
}  // namespace harmony::core
