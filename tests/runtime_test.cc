#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <new>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "core/estimator.h"
#include "core/packing.h"
#include "model/models.h"
#include "profile/profiler.h"
#include "runtime/memory_manager.h"
#include "runtime/runtime.h"
#include "runtime/step_compiler.h"
#include "trace/chrome_trace.h"

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
  std::vector<TensorId> victims;
  mem.PickVictims(400, &victims);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 1);
  EXPECT_EQ(victims[1], 2);
}

TEST(DeviceMemory, PinnedTensorsNotEvicted) {
  DeviceMemory mem(1000, 4);
  mem.AddResident(0, 500);
  mem.AddResident(1, 500);
  mem.Pin(0);
  std::vector<TensorId> victims;
  mem.PickVictims(600, &victims);
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

/// Every RunMetrics field, bit for bit.
void ExpectSameMetrics(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.iteration_time, b.iteration_time);
  EXPECT_EQ(a.swap_in_bytes, b.swap_in_bytes);
  EXPECT_EQ(a.swap_out_bytes, b.swap_out_bytes);
  EXPECT_EQ(a.p2p_bytes, b.p2p_bytes);
  EXPECT_EQ(a.compute_busy, b.compute_busy);
  EXPECT_EQ(a.peak_device_bytes, b.peak_device_bytes);
  EXPECT_EQ(a.peak_host_bytes, b.peak_host_bytes);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.clean_drops, b.clean_drops);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faults_recovered, b.faults_recovered);
  EXPECT_EQ(a.recovery_bytes, b.recovery_bytes);
}

TEST(Runtime, DeterministicAcrossRuns) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
  const auto a = f.Run(g);
  const auto b = f.Run(g);
  ExpectSameMetrics(a, b);
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
// Paper-model workloads: u = 4 packs on a commodity server
// ---------------------------------------------------------------------------

struct Workload {
  Workload(const model::LayerGraph& layers, HarmonyMode mode, int minibatch,
           hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu())
      : machine(std::move(m)),
        model(model::Sequentialize(layers)),
        db(profile::Profiler(machine.gpu, {}).Profile(model)) {
    core::PackingOptions opts;
    opts.capacity = static_cast<Bytes>(machine.gpu.usable_memory() * 0.85);
    Configuration config;
    config.u_fwd = config.u_bwd = 4;
    config.bwd_packs = core::BackwardPacks(4, db, opts).value();
    opts.min_packs = 4;
    config.fwd_packs =
        core::ForwardPacks(4, config.bwd_packs, db, opts).value();
    graph = core::GenerateHarmonyTaskGraph(config, mode, machine.num_gpus,
                                           minibatch, OptimizationFlags{}, db);
  }

  hw::MachineSpec machine;
  model::SequentialModel model;
  profile::ProfileDb db;
  TaskGraph graph;
};

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(Runtime, ChromeTraceBytesArePinned) {
  // Every byte of the chrome://tracing JSON of a small GPT2 pp run: span
  // labels ("t<task> step<i>", "t<task> cpu-update", lane names for
  // transfers), instants, counters and row metadata.
  const Workload w(model::Gpt2(), HarmonyMode::kPipelineParallel, 8);
  trace::ChromeTraceSink sink;
  RuntimeOptions opts;
  opts.trace_sinks.push_back(&sink);
  ASSERT_TRUE(Runtime(w.machine, w.model).Execute(w.graph, opts).ok());
  std::ostringstream os;
  sink.WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("{\"name\":\"t0 step0\",\"cat\":\"compute\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(json.find("cpu-update\",\"cat\":\"cpu\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"swapin\",\"cat\":\"swapin\""),
            std::string::npos);
  EXPECT_EQ(sink.num_events(), 2019);
  EXPECT_EQ(json.size(), 135968u);
  EXPECT_EQ(Fnv1a(json), 0x5791199ff875188cull);
}

// ---------------------------------------------------------------------------
// The per-thread execution context
// ---------------------------------------------------------------------------

/// Hashes every event a run publishes, in order (FNV-1a over the fields).
class EventHashSink : public trace::TraceSink {
 public:
  void OnEvent(const trace::Event& e) override {
    ++count_;
    uint64_t time_bits;
    std::memcpy(&time_bits, &e.time, sizeof(time_bits));
    for (const uint64_t v :
         {static_cast<uint64_t>(e.kind), static_cast<uint64_t>(e.lane),
          static_cast<uint64_t>(static_cast<int64_t>(e.device)), time_bits,
          static_cast<uint64_t>(e.bytes),
          static_cast<uint64_t>(static_cast<int64_t>(e.task)),
          static_cast<uint64_t>(static_cast<int64_t>(e.index))}) {
      hash_ ^= v;
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t hash() const { return hash_; }
  int64_t count() const { return count_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
  int64_t count_ = 0;
};

/// One Execute to compare across contexts.
struct ContextCase {
  const char* name;
  const hw::MachineSpec* machine;
  const model::SequentialModel* model;
  const TaskGraph* graph;
  RuntimeOptions options;
};

struct ContextOutcome {
  Status status;
  RunMetrics metrics;
  uint64_t trace_hash = 0;
  int64_t trace_events = 0;
};

ContextOutcome RunCase(const ContextCase& c) {
  EventHashSink sink;
  RuntimeOptions options = c.options;
  options.trace_sinks.push_back(&sink);
  auto result = Runtime(*c.machine, *c.model).Execute(*c.graph, options);
  ContextOutcome out;
  if (result.ok()) {
    out.metrics = std::move(result).value();
  } else {
    out.status = result.status();
  }
  out.trace_hash = sink.hash();
  out.trace_events = sink.count();
  return out;
}

/// The outcome of `c` on a thread that never executed before.
ContextOutcome RunCaseOnFreshThread(const ContextCase& c) {
  ContextOutcome out;
  std::thread([&] { out = RunCase(c); }).join();
  return out;
}

void ExpectSameOutcome(const ContextOutcome& a, const ContextOutcome& b) {
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.status.message(), b.status.message());
  ExpectSameMetrics(a.metrics, b.metrics);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.trace_events, b.trace_events);
}

/// A 4-GPU pp run, an 8-GPU dp run, an out-of-memory run, a run cancelled
/// before it starts, a chaos run, and the first run again.
class ContextReuse : public ::testing::Test {
 protected:
  ContextReuse()
      : pp4_(model::Gpt2(), HarmonyMode::kPipelineParallel, 8),
        dp8_(model::Gpt2(), HarmonyMode::kDataParallel, 16,
             hw::MachineSpec::Commodity8Gpu()),
        tiny_(16, MiB(512)) {
    // As in OutOfMemoryWhenWorkingSetTooLarge: packs sized for 512 MiB,
    // executed with 48.
    tiny_graph_ = core::GenerateHarmonyTaskGraph(
        tiny_.Config(2, 2), HarmonyMode::kPipelineParallel, 4, 8,
        OptimizationFlags{}, *tiny_.db);
    tiny_.machine.gpu.memory_capacity = MiB(48);
    cancel_.Cancel();

    cases_.push_back({"pp4", &pp4_.machine, &pp4_.model, &pp4_.graph, {}});
    cases_.push_back({"dp8", &dp8_.machine, &dp8_.model, &dp8_.graph, {}});
    cases_.push_back(
        {"oom", &tiny_.machine, &tiny_.model, &tiny_graph_, {}});
    ContextCase cancelled{"cancelled", &pp4_.machine, &pp4_.model,
                          &pp4_.graph, {}};
    cancelled.options.cancel = &cancel_;
    cases_.push_back(cancelled);
    ContextCase chaos{"chaos", &pp4_.machine, &pp4_.model, &pp4_.graph, {}};
    fault::FaultPlan& p = chaos.options.fault_plan;
    p.enabled = true;
    p.seed = 0xC0FFEE;
    p.transfer_failure_rate = 0.03;
    p.link_flap_interval = 0.2;
    p.link_flap_duration = 0.05;
    p.link_degrade_factor = 0.25;
    p.mem_pressure_interval = 0.5;
    p.mem_pressure_duration = 0.1;
    p.mem_pressure_fraction = 0.2;
    p.alloc_failure_rate = 0.02;
    p.stream_stall_rate = 0.02;
    p.stream_stall_duration = 0.002;
    cases_.push_back(chaos);
    cases_.push_back(cases_.front());
  }

  Workload pp4_, dp8_;
  Fixture tiny_;
  TaskGraph tiny_graph_;
  common::CancelToken cancel_;
  std::vector<ContextCase> cases_;
};

TEST_F(ContextReuse, ReuseLeavesNoTrace) {
  // The sequence on one thread, each run against its own fresh thread.
  std::thread([&] {
    for (const ContextCase& c : cases_) {
      SCOPED_TRACE(c.name);
      const ContextOutcome reused = RunCase(c);
      ExpectSameOutcome(reused, RunCaseOnFreshThread(c));
    }
  }).join();
  // The cases really differ in kind.
  const ContextOutcome oom = RunCaseOnFreshThread(cases_[2]);
  EXPECT_TRUE(oom.status.code() == StatusCode::kOutOfMemory ||
              oom.status.code() == StatusCode::kInternal)
      << oom.status;
  EXPECT_EQ(RunCaseOnFreshThread(cases_[3]).status.code(),
            StatusCode::kCancelled);
  const ContextOutcome chaos = RunCaseOnFreshThread(cases_[4]);
  ASSERT_TRUE(chaos.status.ok()) << chaos.status;
  EXPECT_GT(chaos.metrics.faults_injected, 0);
}

/// On its first span event, executes `inner` from inside the run it observes.
class NestedExecuteSink : public trace::TraceSink {
 public:
  explicit NestedExecuteSink(const ContextCase& inner) : inner_(inner) {}
  void OnEvent(const trace::Event& e) override {
    if (ran_ || e.kind != trace::EventKind::kOpBegin) return;
    ran_ = true;
    result_ = RunCase(inner_);
  }
  const ContextOutcome& result() const { return result_; }

 private:
  const ContextCase& inner_;
  bool ran_ = false;
  ContextOutcome result_;
};

TEST_F(ContextReuse, NestedExecuteRunsOnAFreshContext) {
  // An Execute started while the thread's context is in use (here, from a
  // sink of the outer run) runs on a fresh context and leaves the outer run
  // undisturbed.
  const ContextCase& outer = cases_[0];
  const ContextCase& inner = cases_[1];
  NestedExecuteSink nested(inner);
  ContextCase observed = outer;
  observed.options.trace_sinks.push_back(&nested);
  const ContextOutcome got = RunCase(observed);
  // The sink nests only once, so this reference run does not nest.
  ExpectSameOutcome(got, RunCaseOnFreshThread(observed));
  ExpectSameOutcome(nested.result(), RunCaseOnFreshThread(inner));
  EXPECT_GT(nested.result().trace_events, 0);
}

TEST_F(ContextReuse, ConcurrentThreadsMatchSerialRuns) {
  std::vector<ContextOutcome> serial;
  for (const ContextCase& c : cases_) serial.push_back(RunCase(c));
  // Every case three times over four workers, so each worker's context is
  // reused across kinds while the others run.
  const size_t n = 3 * cases_.size();
  std::vector<ContextOutcome> parallel(n);
  {
    common::ThreadPool pool(4);
    std::vector<std::future<void>> done;
    for (size_t i = 0; i < n; ++i) {
      done.push_back(pool.Submit([&, i] {
        parallel[i] = RunCase(cases_[i % cases_.size()]);
      }));
    }
    for (auto& f : done) f.get();
  }
  for (size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(cases_[i % cases_.size()].name);
    ExpectSameOutcome(parallel[i], serial[i % cases_.size()]);
  }
}

// ---------------------------------------------------------------------------
// Allocation budget of one simulated iteration
// ---------------------------------------------------------------------------

TEST(Runtime, ExecuteAllocationsPerStepAreBounded) {
  // Global operator new calls over one warm Execute of the golden workloads,
  // pp, minibatch 16, u4, both with a compiled program and compiling. Before
  // condition waiters, joins, stream ops and flow completions became engine
  // arena records and steps became spans into per-program pools, a compiling
  // Execute made 21773 for GPT2 (594 steps) and 38065 for BERT96 (1063
  // steps); then 561 and 598. Since each thread keeps one execution context
  // that every Execute resets, a warm one makes none once the thread has
  // executed the largest program.
  const Workload gpt2(model::Gpt2(), HarmonyMode::kPipelineParallel, 16);
  const Workload bert96(model::Bert96(), HarmonyMode::kPipelineParallel, 16);
  for (const Workload* w : {&bert96, &gpt2}) {
    ASSERT_TRUE(Runtime(w->machine, w->model).Execute(w->graph).ok());
  }
  const struct {
    const char* name;
    const Workload& w;
  } cases[] = {{"GPT2", gpt2}, {"BERT96", bert96}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const StepProgram program =
        StepCompiler(c.w.machine, c.w.model, c.w.graph).Compile();
    const Runtime rt(c.w.machine, c.w.model);

    g_allocs = 0;
    g_count_allocs = true;
    const auto with_program = rt.Execute(c.w.graph, program);
    g_count_allocs = false;
    ASSERT_TRUE(with_program.ok()) << with_program.status();
    EXPECT_EQ(g_allocs.load(), 0) << "Execute(graph, program)";

    g_allocs = 0;
    g_count_allocs = true;
    const auto compiling = rt.Execute(c.w.graph);
    g_count_allocs = false;
    ASSERT_TRUE(compiling.ok()) << compiling.status();
    EXPECT_EQ(g_allocs.load(), 0) << "Execute(graph)";
    std::printf("%s: %lld steps, 0 allocations per warm Execute\n", c.name,
                static_cast<long long>(program.num_steps()));
  }
}

}  // namespace
}  // namespace harmony::runtime
