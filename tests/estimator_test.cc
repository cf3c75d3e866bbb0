#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "baselines/baselines.h"
#include "core/estimator.h"
#include "core/packing.h"
#include "model/models.h"
#include "profile/profiler.h"
#include "graph_corpus.h"
#include "reference_plan.h"

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

struct Fixture {
  Fixture()
      : machine(hw::MachineSpec::Commodity4Gpu()),
        model(model::Sequentialize(model::TinyTransformer(16, 512, 128))),
        db(profile::Profiler(machine.gpu, {}).Profile(model)) {}

  Configuration Config(int u_fwd, int u_bwd) const {
    PackingOptions opts;
    opts.capacity = MiB(512);
    Configuration c;
    c.u_fwd = u_fwd;
    c.u_bwd = u_bwd;
    c.bwd_packs = BackwardPacks(u_bwd, db, opts).value();
    opts.min_packs = 4;
    c.fwd_packs = ForwardPacks(u_fwd, c.bwd_packs, db, opts).value();
    return c;
  }

  hw::MachineSpec machine;
  model::SequentialModel model;
  profile::ProfileDb db;
};

TEST(Estimator, LowerBoundedByComputeAndPositive) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, f.db);
  const RuntimeEstimator est(f.db, f.machine);
  const Estimate e = est.EstimateIteration(g);
  // Per-GPU compute: total fwd+recompute+bwd work / N is a hard lower bound.
  double total = 0;
  for (int l = 0; l < f.db.num_layers(); ++l) {
    total += 8 / 2 * (2 * f.db.FwdTime(l, 2) + f.db.BwdTime(l, 2));
  }
  EXPECT_GT(e.iteration_time, total / 4 * 0.9);
  EXPECT_GT(e.swap_bytes, 0);
}

TEST(Estimator, SwapBytesTrackWeightTraffic) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, f.db);
  const RuntimeEstimator est(f.db, f.machine);
  const Estimate e = est.EstimateIteration(g);
  const Bytes params = f.db.PackParamBytes(0, f.db.num_layers() - 1);
  // Harmony PP: roughly 3|W| (fwd in, bwd in, grads out) plus checkpoints.
  EXPECT_GE(e.swap_bytes, 2 * params);
  EXPECT_LE(e.swap_bytes, 6 * params);
}

TEST(Estimator, DataParallelSwapsScaleWithReplicas) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph pp = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, f.db);
  const TaskGraph dp = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kDataParallel, 4, 8, OptimizationFlags{}, f.db);
  const RuntimeEstimator est(f.db, f.machine);
  EXPECT_GT(est.EstimateIteration(dp).swap_bytes,
            2 * est.EstimateIteration(pp).swap_bytes);
}

TEST(Estimator, P2pOffIsSlower) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  OptimizationFlags on, off;
  off.p2p_transfers = false;
  const RuntimeEstimator est(f.db, f.machine);
  const auto g_on = GenerateHarmonyTaskGraph(c, HarmonyMode::kPipelineParallel,
                                             4, 8, on, f.db);
  const auto g_off = GenerateHarmonyTaskGraph(c, HarmonyMode::kPipelineParallel,
                                              4, 8, off, f.db);
  const Estimate e_on = est.EstimateIteration(g_on);
  const Estimate e_off = est.EstimateIteration(g_off);
  EXPECT_GT(e_on.p2p_bytes, 0);
  EXPECT_EQ(e_off.p2p_bytes, 0);
  EXPECT_GE(e_off.iteration_time, e_on.iteration_time);
  EXPECT_GT(e_off.swap_bytes, e_on.swap_bytes);
}

TEST(Estimator, PrefetchHidesWeightFetches) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  OptimizationFlags on, off;
  off.prefetch = false;
  const RuntimeEstimator est(f.db, f.machine);
  const auto g_on = GenerateHarmonyTaskGraph(c, HarmonyMode::kPipelineParallel,
                                             4, 8, on, f.db);
  const auto g_off = GenerateHarmonyTaskGraph(c, HarmonyMode::kPipelineParallel,
                                              4, 8, off, f.db);
  EXPECT_LE(est.EstimateIteration(g_on).iteration_time,
            est.EstimateIteration(g_off).iteration_time);
}

TEST(Estimator, GroupingOnIsFasterOrEqual) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  OptimizationFlags on, off;
  off.input_batch_grouping = false;
  const RuntimeEstimator est(f.db, f.machine);
  const auto g_on =
      GenerateHarmonyTaskGraph(c, HarmonyMode::kDataParallel, 4, 16, on, f.db);
  const auto g_off =
      GenerateHarmonyTaskGraph(c, HarmonyMode::kDataParallel, 4, 16, off, f.db);
  EXPECT_LE(est.EstimateIteration(g_on).swap_bytes,
            est.EstimateIteration(g_off).swap_bytes);
}

TEST(Estimator, MoreMicrobatchesMoreTime) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const RuntimeEstimator est(f.db, f.machine);
  const auto g8 = GenerateHarmonyTaskGraph(c, HarmonyMode::kPipelineParallel, 4,
                                           8, OptimizationFlags{}, f.db);
  const auto g16 = GenerateHarmonyTaskGraph(c, HarmonyMode::kPipelineParallel, 4,
                                            16, OptimizationFlags{}, f.db);
  EXPECT_GT(est.EstimateIteration(g16).iteration_time,
            est.EstimateIteration(g8).iteration_time);
}

// Golden regression for the ready-queue estimator rewrite: exact
// EstimateIteration outputs for a handful of task graphs, captured from the
// original O(passes x lanes) fixpoint-sweep implementation. The rewrite must
// keep these bit-for-bit (iteration times are a pure function of dependency
// end times, so scheduling order cannot move them; byte counters are sums),
// so times compare by their bit patterns, not within a ULP tolerance.
TEST(Estimator, GoldenSchedulesPinnedAcrossRewrite) {
  const Fixture f;
  const Configuration c22 = f.Config(2, 2);

  struct Golden {
    const char* name;
    HarmonyMode mode;
    int minibatch;
    OptimizationFlags flags;
    double time;
    Bytes swap;
    Bytes p2p;
  };
  OptimizationFlags all_on;
  OptimizationFlags no_p2p;
  no_p2p.p2p_transfers = false;
  OptimizationFlags no_prefetch;
  no_prefetch.prefetch = false;
  OptimizationFlags no_jit_update;
  no_jit_update.jit_update = false;
  OptimizationFlags no_grouping;
  no_grouping.input_batch_grouping = false;

  const Golden goldens[] = {
      {"pp", HarmonyMode::kPipelineParallel, 8, all_on,
       0.12359152136902132, 511320064, 10485760},
      {"dp", HarmonyMode::kDataParallel, 8, all_on,
       0.13466751933169979, 2045280256, 0},
      {"pp_no_p2p", HarmonyMode::kPipelineParallel, 8, no_p2p,
       0.12379975896093309, 532291584, 0},
      {"pp_no_prefetch", HarmonyMode::kPipelineParallel, 8, no_prefetch,
       0.12446235119103652, 511320064, 10485760},
      {"pp_rigid_update", HarmonyMode::kPipelineParallel, 8, no_jit_update,
       0.12359152136902132, 511320064, 10485760},
      {"dp_ungrouped", HarmonyMode::kDataParallel, 16, no_grouping,
       0.22929044485236438, 4090560512, 0},
  };
  const RuntimeEstimator est(f.db, f.machine);
  for (const Golden& g : goldens) {
    const TaskGraph graph =
        GenerateHarmonyTaskGraph(c22, g.mode, 4, g.minibatch, g.flags, f.db);
    const Estimate e = est.EstimateIteration(graph);
    EXPECT_EQ(std::bit_cast<uint64_t>(e.iteration_time),
              std::bit_cast<uint64_t>(g.time))
        << g.name;
    EXPECT_EQ(e.swap_bytes, g.swap) << g.name;
    EXPECT_EQ(e.p2p_bytes, g.p2p) << g.name;
  }

  // A second configuration shape: U_F != U_B with a coarser forward floor.
  const Configuration c41 = [&]() {
    PackingOptions opts;
    opts.capacity = MiB(512);
    Configuration c;
    c.u_fwd = 4;
    c.u_bwd = 1;
    c.bwd_packs = BackwardPacks(1, f.db, opts).value();
    opts.min_packs = 2;
    c.fwd_packs = ForwardPacks(4, c.bwd_packs, f.db, opts).value();
    return c;
  }();
  const TaskGraph graph = GenerateHarmonyTaskGraph(
      c41, HarmonyMode::kPipelineParallel, 4, 12, all_on, f.db);
  const Estimate e = est.EstimateIteration(graph);
  EXPECT_EQ(std::bit_cast<uint64_t>(e.iteration_time),
            std::bit_cast<uint64_t>(0.14325066413564352));
  EXPECT_EQ(e.swap_bytes, 511320064);
  EXPECT_EQ(e.p2p_bytes, 9437184);
}

// GP Swap (R) checkpoints each stage's input from that stage's own forward
// tasks, so the dependency index lists every such forward piece as a
// producer of its own input boundary. The estimator skips that self edge
// instead of waiting on the unit it is placing. The estimate is pinned to
// the bits the dependency-counted ready queue produced.
TEST(Estimator, SelfListedProducerDoesNotDeadlock) {
  const Fixture f;
  const TaskGraph g = baselines::GpipeSwap(f.db, 4, 16, 4, /*recompute=*/true);
  const DepResolver deps(g);
  int self_listed = 0;
  for (const Task& t : g.tasks) {
    if (t.type != TaskType::kForward) continue;
    deps.ForEachProducer(Flow::kActivation, t.pack.lo, t.group.front(),
                         t.replica, [&](int pid, int) {
                           if (pid == t.id) ++self_listed;
                         });
  }
  EXPECT_EQ(self_listed, 12);  // stages 1-3, four microbatches each
  const RuntimeEstimator est(f.db, f.machine);
  EstimatorScratch scratch;
  const Estimate e = est.EstimateIteration(g, nullptr, &scratch);
  EXPECT_EQ(std::bit_cast<uint64_t>(e.iteration_time), 0x3fd0c872667ad238ULL)
      << std::hex << std::bit_cast<uint64_t>(e.iteration_time);
  EXPECT_EQ(e.swap_bytes, 2882101248);
  EXPECT_EQ(e.p2p_bytes, 25165824);
}

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Folds every predicted unit span (task, lane, device, bits(time)) of an
// estimate replayed onto a trace bus into one FNV-1a hash.
class ScheduleHashSink : public trace::TraceSink {
 public:
  void OnEvent(const trace::Event& e) override {
    hash = FnvMix(hash, static_cast<uint64_t>(e.kind));
    hash = FnvMix(hash, static_cast<uint64_t>(e.lane));
    hash = FnvMix(hash, static_cast<uint64_t>(e.device));
    hash = FnvMix(hash, static_cast<uint64_t>(e.task));
    hash = FnvMix(hash, std::bit_cast<uint64_t>(e.time));
  }
  uint64_t hash = 0xcbf29ce484222325ULL;
};

// Bit-exact golden over the seeded corpus (tests/graph_corpus.h): one FNV-1a
// hash of every graph's (bits(iteration_time), swap_bytes, p2p_bytes). Any
// estimator rewrite must keep the same FP expressions, summation order and
// integer byte counters; a changed hash means some estimate moved by at
// least one ULP. A sub-ULP change in one unit's duration is often absorbed
// when it is added to a later, larger end time, so a second hash pins every
// unit's start and end time from the replayed schedule. Every graph is
// estimated on one reused scratch and on a fresh one, which must agree bit
// for bit.
TEST(Estimator, SeededCorpusIsBitExact) {
  const Fixture f;
  const auto graphs = corpus::SeededGraphCorpus(f.db, f.machine);
  ASSERT_GE(graphs.size(), 200u);
  const RuntimeEstimator est(f.db, f.machine);
  EstimatorScratch reused;
  ScheduleHashSink schedule;
  trace::TraceBus bus;
  bus.AddSink(&schedule);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const corpus::CorpusGraph& c : graphs) {
    est.EstimateIteration(c.graph, &bus, &reused);
    const Estimate e = est.EstimateIteration(c.graph, nullptr, &reused);
    const Estimate fresh = est.EstimateIteration(c.graph);
    ASSERT_EQ(std::bit_cast<uint64_t>(e.iteration_time),
              std::bit_cast<uint64_t>(fresh.iteration_time))
        << c.name;
    ASSERT_EQ(e.swap_bytes, fresh.swap_bytes) << c.name;
    ASSERT_EQ(e.p2p_bytes, fresh.p2p_bytes) << c.name;
    h = FnvMix(h, std::bit_cast<uint64_t>(e.iteration_time));
    h = FnvMix(h, static_cast<uint64_t>(e.swap_bytes));
    h = FnvMix(h, static_cast<uint64_t>(e.p2p_bytes));
  }
  EXPECT_EQ(h, 0x6f4743075202b417ULL) << std::hex << "0x" << h;
  EXPECT_EQ(schedule.hash, 0x5802cfbf56019c85ULL) << std::hex << "0x" << schedule.hash;
}

// A reused scratch holds every per-estimate buffer, the dependency index
// included: once it has seen the largest graph, estimating allocates nothing.
TEST(Estimator, WarmScratchEstimateAllocatesNothing) {
  const Fixture f;
  const auto graphs = corpus::SeededGraphCorpus(f.db, f.machine);
  const RuntimeEstimator est(f.db, f.machine);
  EstimatorScratch scratch;
  for (const corpus::CorpusGraph& c : graphs) {
    est.EstimateIteration(c.graph, nullptr, &scratch);
  }
  g_allocs = 0;
  g_count_allocs = true;
  for (const corpus::CorpusGraph& c : graphs) {
    est.EstimateIteration(c.graph, nullptr, &scratch);
  }
  g_count_allocs = false;
  EXPECT_EQ(g_allocs.load(), 0);
}

TEST(Search, FindsFeasibleBestAndExploresSpace) {
  const Fixture f;
  hw::MachineSpec small = f.machine;
  small.gpu.memory_capacity = MiB(512);
  SearchOptions opts;
  opts.u_fwd_max = 4;
  opts.u_bwd_max = 4;
  opts.keep_explored = true;
  const auto result =
      SearchConfiguration(f.db, small, HarmonyMode::kPipelineParallel, 8,
                          OptimizationFlags{}, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().configs_feasible, 4);
  EXPECT_GT(result.value().best_estimate.iteration_time, 0);
  // The best config is at least as good as every explored one.
  for (const auto& ec : result.value().explored) {
    EXPECT_GE(ec.estimate.iteration_time + 1e-12,
              result.value().best_estimate.iteration_time);
  }
}

TEST(Search, EquiFbNeverBeatsDistinctFb) {
  // Table 4: the Distinct-FB design space contains Equi-FB, so its best is
  // at least as fast.
  const Fixture f;
  hw::MachineSpec small = f.machine;
  small.gpu.memory_capacity = MiB(512);
  SearchOptions distinct, equi;
  distinct.u_fwd_max = equi.u_fwd_max = 4;
  distinct.u_bwd_max = equi.u_bwd_max = 4;
  equi.equi_fb = true;
  const auto d = SearchConfiguration(f.db, small, HarmonyMode::kPipelineParallel,
                                     8, OptimizationFlags{}, distinct);
  const auto e = SearchConfiguration(f.db, small, HarmonyMode::kPipelineParallel,
                                     8, OptimizationFlags{}, equi);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(e.ok());
  EXPECT_LE(d.value().best_estimate.iteration_time,
            e.value().best_estimate.iteration_time + 1e-12);
  // Equi-FB uses the same microbatch size for both passes.
  EXPECT_EQ(e.value().best.u_fwd, e.value().best.u_bwd);
}

TEST(Search, InfeasibleModelReturnsError) {
  const Fixture f;
  hw::MachineSpec tiny = f.machine;
  tiny.gpu.memory_capacity = MiB(32);
  const auto result = SearchConfiguration(
      f.db, tiny, HarmonyMode::kPipelineParallel, 8, OptimizationFlags{}, {});
  EXPECT_FALSE(result.ok());
}

TEST(Scheduler, EndToEndProducesValidGraph) {
  const Fixture f;
  hw::MachineSpec small = f.machine;
  small.gpu.memory_capacity = MiB(512);
  SearchOptions opts;
  opts.u_fwd_max = 2;
  opts.u_bwd_max = 2;
  const auto outcome = reference::PlanFresh(
      f.model, small, HarmonyMode::kPipelineParallel, 8, OptimizationFlags{},
      opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ValidateTaskGraph(outcome.value().graph);
  EXPECT_EQ(outcome.value().graph.minibatch, 8);
}

}  // namespace
}  // namespace harmony::core
