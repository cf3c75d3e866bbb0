#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/estimator.h"
#include "core/packing.h"
#include "core/scheduler.h"
#include "model/models.h"
#include "profile/profiler.h"
#include "runtime/memory_manager.h"
#include "runtime/runtime.h"
#include "runtime/step_compiler.h"

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

namespace harmony::runtime {
namespace {

using core::Configuration;
using core::HarmonyMode;
using core::OptimizationFlags;
using core::TaskGraph;

// ---------------------------------------------------------------------------
// DeviceMemory unit tests
// ---------------------------------------------------------------------------

TEST(DeviceMemory, AccountingAndPeak) {
  DeviceMemory mem(1000, 4);
  mem.AddResident(0, 400);
  mem.AddResident(1, 300);
  EXPECT_EQ(mem.used(), 700);
  EXPECT_EQ(mem.free_bytes(), 300);
  mem.RemoveResident(0);
  EXPECT_EQ(mem.used(), 300);
  EXPECT_EQ(mem.peak_used(), 700);
  EXPECT_EQ(mem.num_resident(), 1);
}

TEST(DeviceMemory, LruVictimOrder) {
  DeviceMemory mem(1000, 4);
  mem.AddResident(0, 300);
  mem.AddResident(1, 300);
  mem.AddResident(2, 300);
  mem.Touch(0);  // 0 becomes most recently used
  const auto victims = mem.PickVictims(400);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 1);
  EXPECT_EQ(victims[1], 2);
}

TEST(DeviceMemory, PinnedTensorsNotEvicted) {
  DeviceMemory mem(1000, 4);
  mem.AddResident(0, 500);
  mem.AddResident(1, 500);
  mem.Pin(0);
  const auto victims = mem.PickVictims(600);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 1);
  EXPECT_EQ(mem.EvictableBytes(), 500);
  mem.Unpin(0);
  EXPECT_EQ(mem.EvictableBytes(), 1000);
}

TEST(DeviceMemory, NestedPins) {
  DeviceMemory mem(100, 4);
  mem.AddResident(0, 50);
  mem.Pin(0);
  mem.Pin(0);
  mem.Unpin(0);
  EXPECT_TRUE(mem.IsPinned(0));
  mem.Unpin(0);
  EXPECT_FALSE(mem.IsPinned(0));
}

// ---------------------------------------------------------------------------
// Full runtime
// ---------------------------------------------------------------------------

struct Fixture {
  explicit Fixture(int blocks = 16, Bytes gpu_mem = MiB(512))
      : machine(hw::MachineSpec::Commodity4Gpu()),
        model(model::Sequentialize(model::TinyTransformer(blocks, 512, 128))) {
    machine.gpu.memory_capacity = gpu_mem;
    db = std::make_unique<profile::ProfileDb>(
        profile::Profiler(machine.gpu, {}).Profile(model));
  }

  Configuration Config(int u_fwd, int u_bwd, int fwd_min_packs = 4) const {
    core::PackingOptions opts;
    opts.capacity =
        static_cast<Bytes>(machine.gpu.usable_memory() * 0.85);
    Configuration c;
    c.u_fwd = u_fwd;
    c.u_bwd = u_bwd;
    c.bwd_packs = core::BackwardPacks(u_bwd, *db, opts).value();
    opts.min_packs = fwd_min_packs;
    c.fwd_packs = core::ForwardPacks(u_fwd, c.bwd_packs, *db, opts).value();
    return c;
  }

  RunMetrics Run(const TaskGraph& g) const {
    const Runtime rt(machine, model);
    auto result = rt.Execute(g);
    HARMONY_CHECK(result.ok()) << result.status();
    return result.value();
  }

  hw::MachineSpec machine;
  model::SequentialModel model;
  std::unique_ptr<profile::ProfileDb> db;
};

TEST(Runtime, HarmonyPpSwapVolumeNearAnalytic3W) {
  // Section 3's analytical example: Harmony PP swaps ~3|W| per iteration
  // (weights in for fwd and bwd, grads out) plus checkpoint traffic.
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
  const RunMetrics m = f.Run(g);
  const Bytes w = f.model.total_param_bytes();
  EXPECT_GE(m.total_swap(), 2 * w);
  EXPECT_LE(m.total_swap(), 6 * w);
  EXPECT_GT(m.p2p_bytes[1], 0);  // wrap-around pipeline moved activations
}

TEST(Runtime, HarmonyDpSwapVolumeNearAnalytic3NW) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kDataParallel, 4, 8, OptimizationFlags{}, *f.db);
  const RunMetrics m = f.Run(g);
  const Bytes w = f.model.total_param_bytes();
  EXPECT_GE(m.total_swap(), 2 * 4 * w);
  EXPECT_LE(m.total_swap(), 6 * 4 * w);
}

TEST(Runtime, PpSwapIsNTimesLowerThanDp) {
  // The core Sec 3 claim: 3N|W| vs 3|W|.
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const auto pp = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db));
  const auto dp = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kDataParallel, 4, 8, OptimizationFlags{}, *f.db));
  EXPECT_GT(dp.total_swap(), 2 * pp.total_swap());
}

TEST(Runtime, GroupingOffMultipliesSwaps) {
  // Without input-batch grouping each microbatch re-fetches weights
  // (repeated swaps, Sec 2 inefficiency #1).
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  OptimizationFlags grouped, ungrouped;
  ungrouped.input_batch_grouping = false;
  const auto on = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kDataParallel, 4, 32, grouped, *f.db));
  const auto off = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kDataParallel, 4, 32, ungrouped, *f.db));
  EXPECT_GT(off.total_swap(), 2 * on.total_swap());
}

TEST(Runtime, P2pOffRoutesThroughHost) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  OptimizationFlags off;
  off.p2p_transfers = false;
  const auto m = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, off, *f.db));
  for (Bytes b : m.p2p_bytes) EXPECT_EQ(b, 0);
  const auto on = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db));
  EXPECT_GT(m.total_swap(), on.total_swap());
}

TEST(Runtime, SmartEvictionDropsCleanTensors) {
  // Squeeze memory so evictions happen; Harmony's state machine drops clean
  // copies for free while LMS-style eviction always transfers.
  const Fixture f(16, MiB(384));
  const Configuration c = f.Config(1, 1);
  OptimizationFlags smart, lms;
  lms.smart_eviction = false;
  const auto a = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, smart, *f.db));
  const auto b = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, lms, *f.db));
  EXPECT_GE(a.clean_drops, 0);
  EXPECT_GE(b.total_swap(), a.total_swap());
}

TEST(Runtime, EstimatorTracksActualRuntime) {
  // Fig 14: the Scheduler's estimate should be close to the full runtime.
  const Fixture f;
  for (const auto& [uf, ub] : {std::pair{1, 1}, {2, 1}, {2, 2}, {4, 2}}) {
    const Configuration c = f.Config(uf, ub);
    const TaskGraph g = core::GenerateHarmonyTaskGraph(
        c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
    const core::RuntimeEstimator est(*f.db, f.machine);
    const double estimated = est.EstimateIteration(g).iteration_time;
    const double actual = f.Run(g).iteration_time;
    EXPECT_NEAR(estimated, actual, 0.5 * actual)
        << "U_F=" << uf << " U_B=" << ub;
  }
}

TEST(Runtime, OutOfMemoryWhenWorkingSetTooLarge) {
  Fixture f(16, MiB(512));
  // Build packs assuming 512 MiB, then execute on a machine with far less.
  const Configuration c = f.Config(2, 2);
  f.machine.gpu.memory_capacity = MiB(48);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
  const Runtime rt(f.machine, f.model);
  const auto result = rt.Execute(g);
  // A schedule whose packs assume 10x the available memory must fail: as
  // OutOfMemory when the allocator proves the deficit, or as Internal when
  // the starved pipeline wedges first. Either way, never a silent success.
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().code() == StatusCode::kOutOfMemory ||
              result.status().code() == StatusCode::kInternal)
      << result.status();
}

TEST(Runtime, HostCapacityEnforced) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
  const Runtime rt(f.machine, f.model);
  RuntimeOptions opts;
  opts.host_static_overhead = f.machine.host_memory;  // leaves no room
  const auto result = rt.Execute(g, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfMemory);
}

TEST(Runtime, ComputeBusyBounded) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
  const RunMetrics m = f.Run(g);
  for (TimeSec busy : m.compute_busy) {
    EXPECT_GE(busy, 0.0);
    EXPECT_LE(busy, m.iteration_time + 1e-9);
  }
  // Some GPU must be busy a significant fraction of the iteration.
  double max_busy = 0;
  for (TimeSec b : m.compute_busy) max_busy = std::max(max_busy, b);
  EXPECT_GT(max_busy, 0.3 * m.iteration_time);
}

TEST(Runtime, PeakDeviceMemoryWithinCapacity) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
  const RunMetrics m = f.Run(g);
  for (Bytes peak : m.peak_device_bytes) {
    EXPECT_LE(peak, f.machine.gpu.usable_memory());
  }
}

TEST(Runtime, SingleGpuWorks) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  hw::MachineSpec one = f.machine.WithNumGpus(1);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 1, 8, OptimizationFlags{}, *f.db);
  const Runtime rt(one, f.model);
  const auto m = rt.Execute(g);
  ASSERT_TRUE(m.ok()) << m.status();
  for (Bytes b : m.value().p2p_bytes) EXPECT_EQ(b, 0);
}

TEST(Runtime, DeterministicAcrossRuns) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
  const auto a = f.Run(g);
  const auto b = f.Run(g);
  EXPECT_DOUBLE_EQ(a.iteration_time, b.iteration_time);
  EXPECT_EQ(a.total_swap(), b.total_swap());
}

// Property sweep: the runtime must complete (no deadlock, no stall) for all
// flag combinations the ablation bench will exercise.
class RuntimeFlagSweep : public ::testing::TestWithParam<int> {};

TEST_P(RuntimeFlagSweep, CompletesForAllFlagCombos) {
  static const Fixture f;
  const int bits = GetParam();
  OptimizationFlags flags;
  flags.input_batch_grouping = bits & 1;
  flags.jit_update = bits & 2;
  flags.jit_compute = bits & 4;
  flags.p2p_transfers = bits & 8;
  flags.prefetch = bits & 16;
  flags.cpu_optimizer = bits & 32;
  const Configuration c = f.Config(2, 2);
  const HarmonyMode mode = (bits & 64) ? HarmonyMode::kDataParallel
                                       : HarmonyMode::kPipelineParallel;
  const TaskGraph g =
      core::GenerateHarmonyTaskGraph(c, mode, 4, 8, flags, *f.db);
  const Runtime rt(f.machine, f.model);
  const auto m = rt.Execute(g);
  ASSERT_TRUE(m.ok()) << m.status() << " bits=" << bits;
  EXPECT_GT(m.value().iteration_time, 0);
}

INSTANTIATE_TEST_SUITE_P(AllFlagCombos, RuntimeFlagSweep,
                         ::testing::Range(0, 128, 1));

// ---------------------------------------------------------------------------
// Allocation budget of one simulated iteration
// ---------------------------------------------------------------------------

TEST(Runtime, ExecuteAllocationsPerStepAreBounded) {
  // Global operator new calls over one warm Execute (compile + run) of the
  // golden workloads, pp, minibatch 16, u4. Before condition waiters, joins,
  // stream ops and flow completions became engine arena records and steps
  // became spans into per-program pools, these were 21773 for GPT2 (594
  // steps, 36.7 per step) and 38065 for BERT96 (1063 steps, 35.8 per step).
  // With those and the allocation FIFO as a reused vector instead of a
  // deque, they are 561 and 598. The bound keeps at least a 30x cut.
  struct Case {
    const char* name;
    model::LayerGraph layers;
    int64_t before;
  };
  const Case cases[] = {{"GPT2", model::Gpt2(), 21773},
                        {"BERT96", model::Bert96(), 38065}};
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const model::SequentialModel model = model::Sequentialize(c.layers);
    const profile::ProfileDb db =
        profile::Profiler(machine.gpu, {}).Profile(model);
    core::PackingOptions opts;
    opts.capacity = static_cast<Bytes>(machine.gpu.usable_memory() * 0.85);
    Configuration config;
    config.u_fwd = config.u_bwd = 4;
    config.bwd_packs = core::BackwardPacks(4, db, opts).value();
    opts.min_packs = 4;
    config.fwd_packs = core::ForwardPacks(4, config.bwd_packs, db, opts).value();
    const TaskGraph g = core::GenerateHarmonyTaskGraph(
        config, HarmonyMode::kPipelineParallel, 4, 16, OptimizationFlags{}, db);
    const int64_t steps = StepCompiler(machine, model, g).Compile().num_steps();
    const Runtime rt(machine, model);
    ASSERT_TRUE(rt.Execute(g).ok());  // warm-up: one-time statics

    g_allocs = 0;
    g_count_allocs = true;
    const auto metrics = rt.Execute(g);
    g_count_allocs = false;
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    const int64_t allocs = g_allocs.load();
    std::printf("%s: %lld allocations per Execute over %lld steps: %.2f per "
                "step (before: %lld, %.2f per step)\n",
                c.name, static_cast<long long>(allocs),
                static_cast<long long>(steps),
                static_cast<double>(allocs) / static_cast<double>(steps),
                static_cast<long long>(c.before),
                static_cast<double>(c.before) / static_cast<double>(steps));
    EXPECT_LE(allocs * 30, c.before);
  }
}

}  // namespace
}  // namespace harmony::runtime
