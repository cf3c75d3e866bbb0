// Chaos harness for harmony::fault — the end-to-end proof that injected
// faults change *time, not results*.
//
// The invariant under test: a survivable fault schedule (transfer failures,
// link flaps, memory-pressure spikes, transient alloc failures, stream
// stalls) must leave the run's semantic accounting bit-identical to the
// fault-free run on the same workload — per-device swap/p2p byte vectors,
// eviction and clean-drop counts, and compute-stream busy time (hashed by
// double bit pattern, so even 1-ulp drift fails). Only simulated wall-clock,
// peak memory and the fault/recovery counters may differ. Unsurvivable
// schedules must fail with a precise Status naming the injected fault and
// carrying the chaos seed, and any schedule must replay bit-identically
// (including the full trace-event hash) from its seed alone.
//
// The CI matrix runs fixed seeds; one extra run draws a fresh seed (or takes
// HARMONY_CHAOS_SEED) and logs it, so a red run is reproducible by pasting
// the printed seed back into the env var.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "core/packing.h"
#include "fault/fault.h"
#include "model/models.h"
#include "profile/profiler.h"
#include "runtime/runtime.h"
#include "runtime/step_compiler.h"
#include "trace/trace.h"

namespace harmony::runtime {
namespace {

using core::Configuration;
using core::HarmonyMode;
using core::OptimizationFlags;

uint64_t BitsOf(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Order-sensitive FNV-1a over every trace event (same scheme as the golden
/// parity test): the replay check uses it to pin the *entire* observable
/// behaviour of a chaos run, fault events and recovery timing included.
class HashSink : public trace::TraceSink {
 public:
  void OnEvent(const trace::Event& e) override {
    ++count_;
    Mix(static_cast<uint64_t>(e.kind));
    Mix(static_cast<uint64_t>(e.lane));
    Mix(static_cast<uint64_t>(static_cast<int64_t>(e.device)));
    Mix(BitsOf(e.time));
    Mix(static_cast<uint64_t>(e.bytes));
    Mix(static_cast<uint64_t>(static_cast<int64_t>(e.task)));
  }

  uint64_t hash() const { return hash_; }
  int64_t count() const { return count_; }

 private:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }

  uint64_t hash_ = 0xcbf29ce484222325ull;
  int64_t count_ = 0;
};

struct Workload {
  hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  model::SequentialModel model;
  core::TaskGraph graph;
};

Workload BuildWorkload(const model::LayerGraph& layer_graph, int minibatch,
                       int u, int fwd_min_packs) {
  Workload w;
  w.model = model::Sequentialize(layer_graph);
  const profile::ProfileDb db =
      profile::Profiler(w.machine.gpu, {}).Profile(w.model);

  core::PackingOptions opts;
  opts.capacity = static_cast<Bytes>(w.machine.gpu.usable_memory() * 0.85);
  Configuration c;
  c.u_fwd = c.u_bwd = u;
  c.bwd_packs = core::BackwardPacks(u, db, opts).value();
  opts.min_packs = fwd_min_packs;
  c.fwd_packs = core::ForwardPacks(u, c.bwd_packs, db, opts).value();

  w.graph = core::GenerateHarmonyTaskGraph(c, HarmonyMode::kPipelineParallel,
                                           4, minibatch, OptimizationFlags{},
                                           db);
  return w;
}

// The two golden workloads (same parameters as golden_parity_test, whose
// fault-free goldens pin these exact runs): BERT96 and GPT2, pp, mb16, u4.
const Workload& Bert96() {
  static const Workload* w = new Workload(BuildWorkload(model::Bert96(), 16, 4, 4));
  return *w;
}
const Workload& Gpt2() {
  static const Workload* w = new Workload(BuildWorkload(model::Gpt2(), 16, 4, 4));
  return *w;
}

struct RunOutcome {
  Status status = Status::Ok();
  RunMetrics metrics;
  uint64_t trace_hash = 0;
  int64_t trace_events = 0;
};

/// One execution of `w`: of `program` when given, else compiled afresh by
/// Execute(graph).
RunOutcome RunWorkload(const Workload& w, const RuntimeOptions& base_opts,
                       const StepProgram* program = nullptr) {
  HashSink sink;
  RuntimeOptions opts = base_opts;
  opts.trace_sinks.push_back(&sink);
  const Runtime rt(w.machine, w.model);
  auto result = program != nullptr ? rt.Execute(w.graph, *program, opts)
                                   : rt.Execute(w.graph, opts);
  RunOutcome out;
  if (result.ok()) {
    out.metrics = std::move(result).value();
  } else {
    out.status = result.status();
  }
  out.trace_hash = sink.hash();
  out.trace_events = sink.count();
  return out;
}

RunOutcome RunWithPlan(const Workload& w, const fault::FaultPlan& plan) {
  RuntimeOptions opts;
  opts.fault_plan = plan;
  return RunWorkload(w, opts);
}

const RunOutcome& Baseline(const Workload& w) {
  static const RunOutcome* bert = new RunOutcome(RunWorkload(Bert96(), {}));
  static const RunOutcome* gpt2 = new RunOutcome(RunWorkload(Gpt2(), {}));
  return &w == &Bert96() ? *bert : *gpt2;
}

/// The chaos invariant: semantic accounting bit-identical, time free to vary.
void ExpectSemanticParity(const RunOutcome& base, const RunOutcome& chaos) {
  ASSERT_TRUE(chaos.status.ok()) << chaos.status;
  EXPECT_EQ(base.metrics.swap_in_bytes, chaos.metrics.swap_in_bytes);
  EXPECT_EQ(base.metrics.swap_out_bytes, chaos.metrics.swap_out_bytes);
  EXPECT_EQ(base.metrics.p2p_bytes, chaos.metrics.p2p_bytes);
  EXPECT_EQ(base.metrics.evictions, chaos.metrics.evictions);
  EXPECT_EQ(base.metrics.clean_drops, chaos.metrics.clean_drops);
  ASSERT_EQ(base.metrics.compute_busy.size(), chaos.metrics.compute_busy.size());
  for (size_t d = 0; d < base.metrics.compute_busy.size(); ++d) {
    EXPECT_EQ(BitsOf(base.metrics.compute_busy[d]),
              BitsOf(chaos.metrics.compute_busy[d]))
        << "compute busy time drifted on device " << d;
  }
  EXPECT_EQ(base.metrics.peak_host_bytes, chaos.metrics.peak_host_bytes);
}

/// Every fault kind armed at survivable rates. Intervals are sized against
/// the ~5-8 simulated seconds these iterations take, so each kind actually
/// fires many times per run.
fault::FaultPlan SurvivableChaos(uint64_t seed) {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = seed;
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
  return p;
}

// ---------------------------------------------------------------------------
// Injector determinism
// ---------------------------------------------------------------------------

TEST(ChaosInjector, ReplaysBitIdenticallyFromSeed) {
  const fault::FaultPlan plan = SurvivableChaos(0xDECAFBAD);
  fault::FaultInjector a(plan), b(plan);
  for (int i = 0; i < 512; ++i) {
    EXPECT_EQ(a.TransferFails(), b.TransferFails()) << "draw " << i;
    EXPECT_EQ(a.AllocFails(), b.AllocFails()) << "draw " << i;
    EXPECT_EQ(BitsOf(a.StreamStall()), BitsOf(b.StreamStall())) << i;
    EXPECT_EQ(BitsOf(a.NextFlapDelay()), BitsOf(b.NextFlapDelay())) << i;
    EXPECT_EQ(BitsOf(a.NextPressureDelay()), BitsOf(b.NextPressureDelay())) << i;
    EXPECT_EQ(a.PickLink(12), b.PickLink(12)) << i;
    EXPECT_EQ(a.PickDevice(4), b.PickDevice(4)) << i;
    EXPECT_EQ(BitsOf(a.BackoffDelay(i & 7)), BitsOf(b.BackoffDelay(i & 7))) << i;
  }
  EXPECT_EQ(a.transfer_failures(), b.transfer_failures());
  EXPECT_GT(a.transfer_failures(), 0);
}

TEST(ChaosInjector, IntervalDrawsAreJitteredAroundTheMean) {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 7;
  plan.link_flap_interval = 1.0;
  fault::FaultInjector inj(plan);
  for (int i = 0; i < 256; ++i) {
    const TimeSec d = inj.NextFlapDelay();
    EXPECT_GE(d, 0.5);
    EXPECT_LE(d, 1.5);
  }
}

// ---------------------------------------------------------------------------
// Per-fault-kind parity: each recovery policy alone preserves results
// ---------------------------------------------------------------------------

TEST(ChaosParity, TransferFailuresAreRetriedToTheSameResult) {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 0xC0FFEE;
  p.transfer_failure_rate = 0.05;
  const RunOutcome r = RunWithPlan(Bert96(), p);
  ExpectSemanticParity(Baseline(Bert96()), r);
  EXPECT_GT(r.metrics.faults_injected, 0);
  EXPECT_GT(r.metrics.iteration_time, Baseline(Bert96()).metrics.iteration_time);
}

TEST(ChaosParity, LinkFlapsOnlyStretchTime) {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 0xC0FFEE;
  p.link_flap_interval = 0.1;
  p.link_flap_duration = 0.05;
  p.link_degrade_factor = 0.1;
  const RunOutcome r = RunWithPlan(Bert96(), p);
  ExpectSemanticParity(Baseline(Bert96()), r);
  EXPECT_GT(r.metrics.faults_injected, 0);
  EXPECT_GT(r.metrics.iteration_time, Baseline(Bert96()).metrics.iteration_time);
}

TEST(ChaosParity, MemPressureEvictsAndRefetchesWithExactOnceAccounting) {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 0xC0FFEE;
  p.mem_pressure_interval = 0.4;
  p.mem_pressure_duration = 0.15;
  p.mem_pressure_fraction = 0.25;
  const RunOutcome r = RunWithPlan(Bert96(), p);
  // Exact-once: the emergency evictions and refetches the spikes forced moved
  // real bytes (recovery_bytes), yet none of it leaked into the semantic
  // swap/eviction accounting — which BERT96's golden pins at *zero*
  // evictions, so any double-count would show up as a hard diff.
  ExpectSemanticParity(Baseline(Bert96()), r);
  EXPECT_GT(r.metrics.faults_injected, 0);
  EXPECT_GT(r.metrics.faults_recovered, 0);
  EXPECT_GT(r.metrics.recovery_bytes, 0);
}

TEST(ChaosParity, StreamStallsLeaveBusyTimeInvariant) {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 0xC0FFEE;
  p.stream_stall_rate = 0.05;
  p.stream_stall_duration = 0.003;
  const RunOutcome r = RunWithPlan(Bert96(), p);
  ExpectSemanticParity(Baseline(Bert96()), r);
  EXPECT_GT(r.metrics.faults_injected, 0);
}

TEST(ChaosParity, AllocFailuresAreRetriedToTheSameResult) {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 0xC0FFEE;
  p.alloc_failure_rate = 0.05;
  const RunOutcome r = RunWithPlan(Bert96(), p);
  ExpectSemanticParity(Baseline(Bert96()), r);
  EXPECT_GT(r.metrics.faults_injected, 0);
  // One recovery per afflicted request, one injection per failed attempt —
  // a request that failed twice recovers once.
  EXPECT_GT(r.metrics.faults_recovered, 0);
  EXPECT_LE(r.metrics.faults_recovered, r.metrics.faults_injected);
}

// ---------------------------------------------------------------------------
// The matrix: all fault kinds at once, across seeds and workloads
// ---------------------------------------------------------------------------

/// The seed x workload matrix entries, flattened for the pool fan-out.
struct MatrixEntry {
  const Workload* workload;
  uint64_t seed;
};

std::vector<MatrixEntry> ChaosMatrixEntries() {
  const uint64_t seeds[] = {1, 42, 0xC0FFEE};
  std::vector<MatrixEntry> entries;
  for (const Workload* w : {&Bert96(), &Gpt2()}) {
    for (const uint64_t seed : seeds) entries.push_back({w, seed});
  }
  return entries;
}

/// Thread count for matrix fan-out: HARMONY_CHAOS_THREADS; unset or <= 0
/// selects the hardware concurrency.
int ChaosThreads() {
  const char* env = std::getenv("HARMONY_CHAOS_THREADS");
  const int threads = env ? static_cast<int>(std::strtol(env, nullptr, 0)) : 0;
  return threads > 0 ? threads : common::ThreadPool::DefaultThreadCount();
}

/// Runs every matrix entry on a local pool of `threads` workers. Each run
/// builds its own Runtime/Engine/sink from its entry alone and writes only
/// its own slot, so the outcomes are bit-identical at any thread count.
std::vector<RunOutcome> RunMatrix(const std::vector<MatrixEntry>& entries,
                                  int threads) {
  std::vector<RunOutcome> outcomes(entries.size());
  common::ThreadPool pool(threads);
  pool.Run(static_cast<int>(entries.size()), threads, [&](int run, int) {
    const MatrixEntry& e = entries[run];
    outcomes[run] = RunWithPlan(*e.workload, SurvivableChaos(e.seed));
  });
  return outcomes;
}

TEST(ChaosMatrix, SurvivableSchedulesPreserveResults) {
  const std::vector<MatrixEntry> entries = ChaosMatrixEntries();
  // Baselines are forced up front so workers only read them.
  Baseline(Bert96());
  Baseline(Gpt2());
  const std::vector<RunOutcome> outcomes = RunMatrix(entries, ChaosThreads());
  for (size_t i = 0; i < entries.size(); ++i) {
    const MatrixEntry& e = entries[i];
    SCOPED_TRACE(
        (e.workload == &Bert96() ? std::string("BERT96") : std::string("GPT2")) +
        " chaos seed=" + std::to_string(e.seed));
    ExpectSemanticParity(Baseline(*e.workload), outcomes[i]);
    EXPECT_GT(outcomes[i].metrics.faults_injected, 0);
  }
}

TEST(ChaosMatrix, ParallelMatrixIsBitIdenticalToSerial) {
  const std::vector<MatrixEntry> entries = ChaosMatrixEntries();
  const std::vector<RunOutcome> serial = RunMatrix(entries, 1);
  const std::vector<RunOutcome> threaded = RunMatrix(entries, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("matrix entry " + std::to_string(i));
    EXPECT_EQ(BitsOf(serial[i].metrics.iteration_time),
              BitsOf(threaded[i].metrics.iteration_time));
    EXPECT_EQ(serial[i].trace_events, threaded[i].trace_events);
    EXPECT_EQ(serial[i].trace_hash, threaded[i].trace_hash);
    EXPECT_EQ(serial[i].metrics.faults_injected,
              threaded[i].metrics.faults_injected);
    EXPECT_EQ(serial[i].metrics.recovery_bytes,
              threaded[i].metrics.recovery_bytes);
  }
}

TEST(ChaosMatrix, SameSeedReplaysBitIdentically) {
  const fault::FaultPlan plan = SurvivableChaos(0xFEEDFACE);
  const RunOutcome a = RunWithPlan(Bert96(), plan);
  const RunOutcome b = RunWithPlan(Bert96(), plan);
  ASSERT_TRUE(a.status.ok()) << a.status;
  ASSERT_TRUE(b.status.ok()) << b.status;
  // Bit-identical *everything*: timing, fault events, recovery schedule.
  EXPECT_EQ(BitsOf(a.metrics.iteration_time), BitsOf(b.metrics.iteration_time));
  EXPECT_EQ(a.metrics.faults_injected, b.metrics.faults_injected);
  EXPECT_EQ(a.metrics.faults_recovered, b.metrics.faults_recovered);
  EXPECT_EQ(a.metrics.recovery_bytes, b.metrics.recovery_bytes);
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

// ---------------------------------------------------------------------------
// Compile once, run many
// ---------------------------------------------------------------------------

/// Every RunMetrics field, doubles by bit pattern, in one comparable list.
std::vector<uint64_t> MetricBits(const RunMetrics& m) {
  std::vector<uint64_t> out = {BitsOf(m.iteration_time),
                               static_cast<uint64_t>(m.peak_host_bytes),
                               static_cast<uint64_t>(m.evictions),
                               static_cast<uint64_t>(m.clean_drops),
                               static_cast<uint64_t>(m.faults_injected),
                               static_cast<uint64_t>(m.faults_recovered),
                               static_cast<uint64_t>(m.recovery_bytes)};
  for (const auto* bytes : {&m.swap_in_bytes, &m.swap_out_bytes, &m.p2p_bytes,
                            &m.peak_device_bytes}) {
    for (Bytes b : *bytes) out.push_back(static_cast<uint64_t>(b));
  }
  for (TimeSec t : m.compute_busy) out.push_back(BitsOf(t));
  return out;
}

void ExpectIdenticalRuns(const RunOutcome& fresh, const RunOutcome& borrowed) {
  ASSERT_TRUE(fresh.status.ok()) << fresh.status;
  ASSERT_TRUE(borrowed.status.ok()) << borrowed.status;
  EXPECT_EQ(MetricBits(fresh.metrics), MetricBits(borrowed.metrics));
  EXPECT_EQ(fresh.trace_events, borrowed.trace_events);
  EXPECT_EQ(fresh.trace_hash, borrowed.trace_hash);
}

// A run borrows its program read-only: one compiled program, executed
// fault-free and then under a survivable chaos schedule, matches two fresh
// Execute(graph) calls bit for bit. A run that wrote into the program would
// leave the second, chaos run of it diverging from its fresh twin.
TEST(CompileOnce, BorrowedProgramMatchesFreshExecutes) {
  for (const Workload* w : {&Bert96(), &Gpt2()}) {
    SCOPED_TRACE(w == &Bert96() ? "BERT96" : "GPT2");
    const StepProgram program =
        StepCompiler(w->machine, w->model, w->graph).Compile();
    RuntimeOptions chaos;
    chaos.fault_plan = SurvivableChaos(0xC0FFEE);
    const RunOutcome clean = RunWorkload(*w, {}, &program);
    const RunOutcome faulted = RunWorkload(*w, chaos, &program);
    EXPECT_GT(faulted.metrics.faults_injected, 0);
    ExpectIdenticalRuns(RunWorkload(*w, {}), clean);
    ExpectIdenticalRuns(RunWorkload(*w, chaos), faulted);
  }
}

/// The log-the-seed run: CI executes this with a fresh seed every time (or a
/// pinned one via HARMONY_CHAOS_SEED); the seed is printed so any failure is
/// reproducible by exporting it and re-running.
TEST(ChaosMatrix, RandomizedSeedHoldsTheInvariant) {
  uint64_t seed;
  if (const char* env = std::getenv("HARMONY_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 0);
  } else {
    seed = std::random_device{}();
  }
  std::printf("chaos seed = %llu  (rerun: HARMONY_CHAOS_SEED=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  const RunOutcome r = RunWithPlan(Bert96(), SurvivableChaos(seed));
  ExpectSemanticParity(Baseline(Bert96()), r);
}

// ---------------------------------------------------------------------------
// Unsurvivable schedules fail precisely, naming the fault and the seed
// ---------------------------------------------------------------------------

TEST(ChaosFailure, UnsurvivableTransferFailureNamesTheFault) {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 99;
  p.transfer_failure_rate = 1.0;  // every attempt fails: no retry can save it
  p.max_transfer_retries = 2;
  const RunOutcome r = RunWithPlan(Bert96(), p);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable) << r.status;
  EXPECT_NE(r.status.message().find("injected transfer-failure"),
            std::string::npos)
      << r.status;
  EXPECT_NE(r.status.message().find("seed=99"), std::string::npos) << r.status;
}

TEST(ChaosFailure, UnsurvivableAllocFailureNamesTheFault) {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 99;
  p.alloc_failure_rate = 1.0;
  p.max_alloc_retries = 1;
  const RunOutcome r = RunWithPlan(Bert96(), p);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kOutOfMemory) << r.status;
  EXPECT_NE(r.status.message().find("injected alloc-failure"),
            std::string::npos)
      << r.status;
  EXPECT_NE(r.status.message().find("seed=99"), std::string::npos) << r.status;
}

// ---------------------------------------------------------------------------
// Watchdog + cancellation
// ---------------------------------------------------------------------------

TEST(ChaosWatchdog, PermanentStallBecomesStuckDiagnostics) {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 5;
  p.stream_stall_rate = 1.0;
  // Effectively wedged forever against a 5s watchdog. (Kept well under the
  // ~1e15s range where double resolution drops below transfer durations and
  // the post-failure drain could no longer advance simulated time.)
  p.stream_stall_duration = 1e6;

  common::CancelToken cancel;
  RuntimeOptions opts;
  opts.fault_plan = p;
  opts.cancel = &cancel;
  opts.watchdog_interval = 5.0;  // simulated seconds
  const RunOutcome r = RunWorkload(Bert96(), opts);

  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInternal) << r.status;
  const std::string& msg = r.status.message();
  EXPECT_NE(msg.find("watchdog: no progress"), std::string::npos) << msg;
  // DescribeStuck() names the wedged step and what it waits on.
  EXPECT_NE(msg.find("stuck at step"), std::string::npos) << msg;
  // Escalation: the watchdog cancels the shared token so cooperating layers
  // (search, serve) unwind too.
  EXPECT_TRUE(cancel.Cancelled());
}

TEST(ChaosWatchdog, CancelledTokenUnwindsTheRun) {
  common::CancelToken cancel;
  cancel.Cancel();
  RuntimeOptions opts;
  opts.cancel = &cancel;
  const RunOutcome r = RunWorkload(Bert96(), opts);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << r.status;
  EXPECT_NE(r.status.message().find("run cancelled"), std::string::npos)
      << r.status;
}

// Regression: graceful shutdown racing watchdog escalation. A token already
// cancelled by another party must surface kCancelled — never an Internal
// "watchdog: no progress" dressed with DescribeStuck noise. The watchdog's
// escalation goes through CancelToken::Cancel()'s first-tripper contract, so
// only the party that actually tripped the token reports the wedge.
TEST(ChaosWatchdog, GracefulCancelDuringEscalationStaysCancelled) {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 5;
  p.stream_stall_rate = 1.0;
  p.stream_stall_duration = 1e6;  // wedged against the watchdog

  common::CancelToken cancel;
  cancel.Cancel();  // graceful shutdown arrived first
  RuntimeOptions opts;
  opts.fault_plan = p;
  opts.cancel = &cancel;
  opts.watchdog_interval = 5.0;
  const RunOutcome r = RunWorkload(Bert96(), opts);

  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << r.status;
  EXPECT_EQ(r.status.message().find("watchdog"), std::string::npos)
      << r.status;
  EXPECT_EQ(r.status.message().find("stuck at step"), std::string::npos)
      << r.status;
}

// The same race from a real second thread: a shutdown thread trips the token
// while the wedged run's watchdog escalates. Whatever the interleaving, the
// run must end either kCancelled (shutdown won) or kInternal naming the
// wedge (the watchdog tripped the token first) — and in both orders the
// token ends cancelled. TSan runs this variant under chaos_test_tsan.
TEST(ChaosWatchdog, ConcurrentShutdownAndWatchdogAgreeOnOneOwner) {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 5;
  p.stream_stall_rate = 1.0;
  p.stream_stall_duration = 1e6;

  common::CancelToken cancel;
  RuntimeOptions opts;
  opts.fault_plan = p;
  opts.cancel = &cancel;
  opts.watchdog_interval = 5.0;
  std::thread shutdown([&cancel]() { cancel.Cancel(); });
  const RunOutcome r = RunWorkload(Bert96(), opts);
  shutdown.join();

  ASSERT_FALSE(r.status.ok());
  EXPECT_TRUE(cancel.Cancelled());
  if (r.status.code() == StatusCode::kInternal) {
    EXPECT_NE(r.status.message().find("watchdog: no progress"),
              std::string::npos)
        << r.status;
  } else {
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << r.status;
    EXPECT_EQ(r.status.message().find("watchdog"), std::string::npos)
        << r.status;
  }
}

TEST(ChaosWatchdog, PassedDeadlineSurfacesAsDeadlineExceeded) {
  common::CancelToken cancel;
  cancel.SetDeadlineAfter(std::chrono::milliseconds(0));
  RuntimeOptions opts;
  opts.cancel = &cancel;
  const RunOutcome r = RunWorkload(Bert96(), opts);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded) << r.status;
}

// ---------------------------------------------------------------------------
// Overhead guard: a disabled plan must not change behaviour at all
// ---------------------------------------------------------------------------

TEST(ChaosDisabled, InertPlanIsExactlyTheFaultFreeRun) {
  fault::FaultPlan inert;  // enabled == false
  EXPECT_FALSE(inert.Any());
  const RunOutcome r = RunWithPlan(Bert96(), inert);
  ASSERT_TRUE(r.status.ok()) << r.status;
  const RunOutcome& base = Baseline(Bert96());
  EXPECT_EQ(BitsOf(r.metrics.iteration_time), BitsOf(base.metrics.iteration_time));
  EXPECT_EQ(r.trace_hash, base.trace_hash);
  EXPECT_EQ(r.trace_events, base.trace_events);
  EXPECT_EQ(r.metrics.faults_injected, 0);
  EXPECT_EQ(r.metrics.faults_recovered, 0);
  EXPECT_EQ(r.metrics.recovery_bytes, 0);
}

}  // namespace
}  // namespace harmony::runtime
