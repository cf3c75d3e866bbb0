#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "hw/machine.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/stream.h"

namespace harmony::sim {
namespace {

TEST(Engine, RunsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.After(2.0, [&] { order.push_back(2); });
  e.After(1.0, [&] { order.push_back(1); });
  e.After(3.0, [&] { order.push_back(3); });
  EXPECT_DOUBLE_EQ(e.Run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, FifoTieBreakAtEqualTime) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) e.After(1.0, [&order, i] { order.push_back(i); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  double fired_at = -1;
  e.After(1.0, [&] { e.After(1.5, [&] { fired_at = e.now(); }); });
  e.Run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(Condition, FireReleasesWaiters) {
  Engine e;
  Condition c(&e);
  int calls = 0;
  c.OnFire([&] { ++calls; });
  c.OnFire([&] { ++calls; });
  EXPECT_EQ(calls, 0);
  c.Fire();
  EXPECT_EQ(calls, 2);
  c.OnFire([&] { ++calls; });  // post-fire waiters run immediately
  EXPECT_EQ(calls, 3);
}

TEST(Condition, WhenAllWaitsForEveryDep) {
  Engine e;
  Condition a(&e), b(&e);
  int done = 0;
  WhenAll({&a, nullptr, &b}, [&] { ++done; });
  a.Fire();
  EXPECT_EQ(done, 0);
  b.Fire();
  EXPECT_EQ(done, 1);
}

TEST(Condition, WhenAllEmptyRunsImmediately) {
  int done = 0;
  WhenAll({}, [&] { ++done; });
  EXPECT_EQ(done, 1);
}

TEST(Stream, ExecutesInOrder) {
  Engine e;
  Stream s(&e);
  std::vector<int> order;
  s.Push({}, [&](std::function<void()> done) {
    order.push_back(1);
    e.After(2.0, std::move(done));
  });
  s.Push({}, [&](std::function<void()> done) {
    order.push_back(2);
    EXPECT_DOUBLE_EQ(e.now(), 2.0);  // waited for op 1
    e.After(1.0, std::move(done));
  });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(s.busy_time(), 3.0);
  EXPECT_EQ(s.ops_completed(), 2);
}

TEST(Stream, WaitsForDependencies) {
  Engine e;
  Stream s(&e);
  Condition gate(&e);
  double started = -1;
  s.Push({&gate}, [&](std::function<void()> done) {
    started = e.now();
    done();
  });
  e.After(5.0, [&] { gate.Fire(); });
  e.Run();
  EXPECT_DOUBLE_EQ(started, 5.0);
}

TEST(Stream, PushDelayOccupiesStream) {
  Engine e;
  Stream s(&e);
  s.PushDelay({}, 1.0);
  Condition* done = s.PushDelay({}, 2.0);
  e.Run();
  EXPECT_TRUE(done->fired());
  EXPECT_DOUBLE_EQ(s.busy_time(), 3.0);
}

// ---------------------------------------------------------------------------
// FlowNetwork
// ---------------------------------------------------------------------------

TEST(FlowNetwork, SingleFlowTakesBytesOverBandwidth) {
  Engine e;
  FlowNetwork net(&e, {GiBps(10)});
  double done_at = -1;
  net.StartFlow({0}, GiB(5), [&] { done_at = e.now(); });
  e.Run();
  EXPECT_NEAR(done_at, 0.5, 1e-6);
}

TEST(FlowNetwork, FairSharingDoublesTime) {
  Engine e;
  FlowNetwork net(&e, {GiBps(10)});
  double a = -1, b = -1;
  net.StartFlow({0}, GiB(5), [&] { a = e.now(); });
  net.StartFlow({0}, GiB(5), [&] { b = e.now(); });
  e.Run();
  // Both share the link: each runs at 5 GiB/s, finishing together at 1s.
  EXPECT_NEAR(a, 1.0, 1e-6);
  EXPECT_NEAR(b, 1.0, 1e-6);
}

TEST(FlowNetwork, ShortFlowReleasesBandwidth) {
  Engine e;
  FlowNetwork net(&e, {GiBps(10)});
  double small = -1, big = -1;
  net.StartFlow({0}, GiB(1), [&] { small = e.now(); });
  net.StartFlow({0}, GiB(9), [&] { big = e.now(); });
  e.Run();
  // Shared until the small flow drains at 0.2s; big then gets full bandwidth:
  // 9 - 1 = 8 GiB remaining at 10 GiB/s => 0.2 + 0.8 = 1.0s.
  EXPECT_NEAR(small, 0.2, 1e-6);
  EXPECT_NEAR(big, 1.0, 1e-6);
}

TEST(FlowNetwork, MultiLinkPathBottleneck) {
  Engine e;
  FlowNetwork net(&e, {GiBps(10), GiBps(2)});
  double done = -1;
  net.StartFlow({0, 1}, GiB(4), [&] { done = e.now(); });
  e.Run();
  EXPECT_NEAR(done, 2.0, 1e-6);  // limited by the 2 GiB/s hop
}

TEST(FlowNetwork, ZeroByteFlowCompletesAsync) {
  Engine e;
  FlowNetwork net(&e, {GiBps(1)});
  bool done = false;
  net.StartFlow({0}, 0, [&] { done = true; });
  EXPECT_FALSE(done);  // asynchronous even when empty
  e.Run();
  EXPECT_TRUE(done);
}

TEST(FlowNetwork, LargeFlowNoSpin) {
  // Regression test: GB-scale flows must complete in O(1) events despite
  // floating-point residue (sub-byte epsilon).
  Engine e;
  FlowNetwork net(&e, {GiBps(13.6), GiBps(13.6), GiBps(16)});
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    net.StartFlow({0, 1, 2}, GiB(1.37), [&] { ++completed; });
  }
  e.Run();
  EXPECT_EQ(completed, 8);
  EXPECT_LT(e.events_processed(), 200);
}

TEST(FlowNetwork, TracksLinkBytes) {
  Engine e;
  FlowNetwork net(&e, {GiBps(10)});
  net.StartFlow({0}, GiB(3), [] {});
  e.Run();
  EXPECT_NEAR(net.link_bytes(0), static_cast<double>(GiB(3)), 16.0);
}

// ---------------------------------------------------------------------------
// Interconnect topology
// ---------------------------------------------------------------------------

TEST(Interconnect, SwapContentionOnSharedHost) {
  // Four GPUs swapping in simultaneously share the host memory port: total
  // throughput is host_mem_bw, so each 4 GiB transfer takes 4*4/16 = 1s
  // instead of 4/13.6 = 0.29s alone.
  Engine e;
  const hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  Interconnect net(m);
  FlowNetwork flows(&e, net.capacities());
  std::vector<double> done(4, -1);
  for (int g = 0; g < 4; ++g) {
    flows.StartFlow(net.SwapInPath(g), GiB(4), [&, g] { done[g] = e.now(); });
  }
  e.Run();
  const double expected = 4.0 * static_cast<double>(GiB(4)) / m.host_mem_bw;
  for (int g = 0; g < 4; ++g) EXPECT_NEAR(done[g], expected, 1e-3);
}

TEST(Interconnect, SingleSwapLimitedByPcie) {
  Engine e;
  const hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  Interconnect net(m);
  FlowNetwork flows(&e, net.capacities());
  double done = -1;
  flows.StartFlow(net.SwapInPath(0), GiB(4), [&] { done = e.now(); });
  e.Run();
  EXPECT_NEAR(done, static_cast<double>(GiB(4)) / m.pcie_bw, 1e-3);
}

TEST(Interconnect, SameSwitchP2pBypassesHost) {
  // GPUs 0 and 1 share a switch: their p2p does not touch the host memory
  // port, so it can run at full PCIe speed while other GPUs swap.
  Engine e;
  const hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  ASSERT_TRUE(m.SameSwitch(0, 1));
  ASSERT_FALSE(m.SameSwitch(0, 2));
  Interconnect net(m);
  FlowNetwork flows(&e, net.capacities());
  double p2p_done = -1;
  flows.StartFlow(net.P2pPath(0, 1), GiB(4), [&] { p2p_done = e.now(); });
  flows.StartFlow(net.SwapInPath(2), GiB(100), [] {});
  flows.StartFlow(net.SwapInPath(3), GiB(100), [] {});
  e.Run();
  EXPECT_NEAR(p2p_done, static_cast<double>(GiB(4)) / m.pcie_bw, 1e-3);
}

TEST(Interconnect, CrossSwitchP2pUsesUplinks) {
  const hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  Interconnect net(m);
  EXPECT_EQ(net.P2pPath(0, 1).size(), 2u);  // gpu.up, gpu.down
  EXPECT_EQ(net.P2pPath(0, 2).size(), 4u);  // + both uplinks
  EXPECT_EQ(net.SwapInPath(0).size(), 3u);  // hostmem, uplink, gpu.down
}

TEST(Interconnect, EightGpuMachineOversubscription) {
  // Four GPUs per switch: concurrent swap-ins on one switch are bounded by
  // the single uplink (4:1 oversubscription, Sec 2).
  Engine e;
  const hw::MachineSpec m = hw::MachineSpec::Commodity8Gpu();
  Interconnect net(m);
  FlowNetwork flows(&e, net.capacities());
  std::vector<double> done(4, -1);
  for (int g = 0; g < 4; ++g) {  // all on switch 0
    flows.StartFlow(net.SwapInPath(g), GiB(4), [&, g] { done[g] = e.now(); });
  }
  e.Run();
  const double expected = 4.0 * static_cast<double>(GiB(4)) / m.uplink_bw;
  for (int g = 0; g < 4; ++g) EXPECT_NEAR(done[g], expected, 1e-2);
}

TEST(Machine, WithNumGpusRestricts) {
  const hw::MachineSpec m = hw::MachineSpec::Commodity8Gpu().WithNumGpus(3);
  EXPECT_EQ(m.num_gpus, 3);
  EXPECT_EQ(m.gpu_to_switch.size(), 3u);
  EXPECT_EQ(m.num_switches, 1);
}

// ---------------------------------------------------------------------------
// Engine causality + event queue
// ---------------------------------------------------------------------------

#ifdef NDEBUG
// Debug builds abort on a past-scheduled event (HARMONY_DCHECK); the clamp
// semantics below are the release-build contract.
TEST(Engine, PastScheduleClampsToNowAndCounts) {
  Engine e;
  std::vector<int> order;
  e.After(1.0, [&] {
    // now() == 1.0; scheduling at 0.5 is a causality violation. The event
    // must still run — clamped to now(), after everything already pending
    // at this timestamp — and the violation must be counted.
    e.At(0.5, [&] { order.push_back(99); });
    e.At(1.0, [&] { order.push_back(1); });
  });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{99, 1}));  // FIFO at the clamped time
  EXPECT_EQ(e.causality_clamps(), 1);
  EXPECT_DOUBLE_EQ(e.Run(), 1.0);  // clamp did not move the clock backwards
}
#endif

TEST(Engine, CalendarMatchesReferenceOrderUnderStress) {
  // Adversarial mix for the event queue: uniform spread, dense bursts of
  // exact ties, and far-future outliers. The contract is total order by
  // (time, insertion seq); the reference is a stable sort of the schedule
  // by time.
  std::mt19937_64 rng(0xbadc0ffee);
  std::uniform_real_distribution<double> uniform(0.0, 50.0);
  std::uniform_int_distribution<int> coin(0, 9);
  std::vector<double> times;
  for (int i = 0; i < 5000; ++i) {
    const int kind = coin(rng);
    if (kind < 6) {
      times.push_back(uniform(rng));
    } else if (kind < 9) {
      // Burst: 1-8 events at the exact same double.
      const double t = uniform(rng);
      const int burst = 1 + static_cast<int>(rng() % 8);
      for (int b = 0; b < burst && static_cast<int>(times.size()) < 5000; ++b) {
        times.push_back(t);
      }
    } else {
      times.push_back(1.0e8 + uniform(rng));  // far-future outlier
    }
  }
  std::vector<int> expected(times.size());
  for (size_t i = 0; i < times.size(); ++i) expected[i] = static_cast<int>(i);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](int a, int b) { return times[a] < times[b]; });

  Engine e;
  std::vector<int> observed;
  observed.reserve(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    e.At(times[i], [&observed, i] { observed.push_back(static_cast<int>(i)); });
  }
  e.Run();
  ASSERT_EQ(observed.size(), expected.size());
  EXPECT_EQ(observed, expected);
}

TEST(Engine, EventsScheduledMidRunKeepFifoOrder) {
  // Events spawned from running events must interleave with pre-scheduled
  // ones in global (time, seq) order: an event scheduled later for the same
  // timestamp runs after every event already pending there.
  Engine e;
  std::vector<std::pair<double, int>> log;
  int insert_counter = 2;  // two events scheduled up front
  e.After(1.0, [&] {
    for (int k = 0; k < 3; ++k) {
      const int id = ++insert_counter;
      e.At(2.0, [&log, &e, id] { log.push_back({e.now(), id}); });
    }
  });
  e.At(2.0, [&log, &e] { log.push_back({e.now(), 2}); });  // pre-scheduled
  e.Run();
  ASSERT_EQ(log.size(), 4u);
  for (const auto& [t, id] : log) EXPECT_DOUBLE_EQ(t, 2.0);
  // Pre-scheduled event first (lower seq), then the mid-run ones in order.
  EXPECT_EQ(log[0].second, 2);
  EXPECT_EQ(log[1].second, 3);
  EXPECT_EQ(log[2].second, 4);
  EXPECT_EQ(log[3].second, 5);
}

// ---------------------------------------------------------------------------
// Condition / WhenAll edge cases
// ---------------------------------------------------------------------------

TEST(Condition, WhenAllNullOnlyDepsRunsImmediately) {
  int done = 0;
  WhenAll({nullptr, nullptr, nullptr}, [&] { ++done; });
  EXPECT_EQ(done, 1);
}

TEST(Condition, WhenAllAllPreFiredRunsImmediately) {
  Engine e;
  Condition a(&e), b(&e);
  a.Fire();
  b.Fire();
  int done = 0;
  WhenAll({&a, &b}, [&] { ++done; });
  EXPECT_EQ(done, 1);
}

TEST(Condition, WhenAllSingleUnfiredDepFastPath) {
  Engine e;
  Condition a(&e), b(&e), c(&e);
  a.Fire();
  c.Fire();
  int done = 0;
  WhenAll({&a, &b, &c}, [&] { ++done; });
  EXPECT_EQ(done, 0);
  b.Fire();
  EXPECT_EQ(done, 1);
}

TEST(Condition, ReentrantFireFromWaiter) {
  // A waiter of `a` fires `b`; a WhenAll joins both. The join's completion
  // runs inside a.Fire()'s waiter loop and must run exactly once, with both
  // conditions observably fired.
  Engine e;
  Condition a(&e), b(&e);
  int done = 0;
  a.OnFire([&] { b.Fire(); });
  WhenAll({&a, &b}, [&] {
    EXPECT_TRUE(a.fired());
    EXPECT_TRUE(b.fired());
    ++done;
  });
  a.Fire();
  EXPECT_EQ(done, 1);
}

TEST(Condition, WaiterRegisteredDuringFireRunsImmediately) {
  // OnFire called from within a waiter (the condition is mid-Fire, fired_
  // already set) must run synchronously, not be lost.
  Engine e;
  Condition a(&e);
  int inner = 0;
  a.OnFire([&] { a.OnFire([&] { ++inner; }); });
  a.Fire();
  EXPECT_EQ(inner, 1);
}

TEST(Condition, WhenAllGuardOutlivesImmediateCompletion) {
  // Guard-lifetime regression: when the last dependency fires synchronously
  // inside WhenAll's own registration pass, the internal barrier must stay
  // alive until the callback finishes (self-deletion, no use-after-free;
  // fails under ASan if the guard dies early).
  Engine e;
  Condition a(&e);
  Condition* pa = &a;
  int done = 0;
  a.Fire();
  WhenAll({pa, pa}, [&] { ++done; });  // duplicate, both already fired
  EXPECT_EQ(done, 1);
}

TEST(Condition, UnfiredWaitersAreDroppedUnrun) {
  // A wedged schedule tears down with work still waiting: plain waiters, a
  // half-arrived WhenAll join and an unstarted stream op's body are held
  // engine records, destroyed without running and releasing what they
  // captured (leak-checked under ASan).
  auto captured = std::make_shared<int>(0);
  int ran = 0;
  {
    Engine e;
    Condition a(&e), b(&e), gate(&e);
    a.OnFire([captured, &ran] { ++ran; });
    WhenAll({&a, &b}, [captured, &ran] { ++ran; });
    b.Fire();  // one arrival lands; a's is dropped with a
    Stream s(&e);
    s.Push({&gate}, [captured, &ran](std::function<void()> done) {
      ++ran;
      done();
    });
    EXPECT_EQ(captured.use_count(), 4);
  }
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(captured.use_count(), 1);
}

TEST(FlowNetwork, InFlightCompletionsAreDroppedUnrun) {
  auto captured = std::make_shared<int>(0);
  bool ran = false;
  {
    Engine e;
    FlowNetwork net(&e, {GiBps(10)});
    net.StartFlow({0}, GiB(5), [captured, &ran] { ran = true; });
    net.StartFlow({0}, 0, [captured, &ran] { ran = true; });
    EXPECT_EQ(captured.use_count(), 3);
  }
  EXPECT_FALSE(ran);
  EXPECT_EQ(captured.use_count(), 1);
}

// ---------------------------------------------------------------------------
// Scenario fan-out on common::ThreadPool::Run
// ---------------------------------------------------------------------------

namespace {

/// A small but non-trivial per-run simulation whose result is sensitive to
/// event order: hash of the completion sequence of contended flows.
uint64_t ScenarioFingerprint(int run) {
  Engine e;
  FlowNetwork net(&e, {GiBps(10), GiBps(4)});
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (int i = 0; i < 6; ++i) {
    const Bytes bytes = GiB(1 + ((run + i) % 5));
    const std::vector<int> path = (run + i) % 2 ? std::vector<int>{0, 1}
                                                : std::vector<int>{0};
    net.StartFlow(path, bytes, [&mix, &e, i] {
      mix(static_cast<uint64_t>(i));
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(double));
      const double t = e.now();
      std::memcpy(&bits, &t, sizeof(bits));
      mix(bits);
    });
  }
  e.Run();
  return h;
}

}  // namespace

TEST(ThreadPool, BitIdenticalAcrossThreadCounts) {
  constexpr int kRuns = 24;
  auto fingerprints = [](common::ThreadPool& pool, int threads) {
    std::vector<uint64_t> out(kRuns);
    pool.Run(kRuns, threads,
             [&out](int run, int) { out[run] = ScenarioFingerprint(run); });
    return out;
  };
  common::ThreadPool pool(8);
  const std::vector<uint64_t> base = fingerprints(pool, 1);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(fingerprints(pool, threads), base)
        << "diverged at " << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// FlowNetwork wakeup suppression
// ---------------------------------------------------------------------------

TEST(FlowNetwork, SuppressesWakeupsCoveredByEarlierArm) {
  // Flow 1 on link 0 completes at t=0.9. Flow 2, started at t=0.1 on link 1,
  // finishes later (t=2.1) and does not change flow 1's rate — so the
  // recompute it triggers projects the same earliest completion (0.9) that
  // is already armed, and must not enqueue a second wakeup.
  Engine e;
  FlowNetwork net(&e, {GiBps(10), GiBps(10)});
  double first = -1, second = -1;
  net.StartFlow({0}, GiB(9), [&] { first = e.now(); });
  e.After(0.1, [&] { net.StartFlow({1}, GiB(20), [&] { second = e.now(); }); });
  e.Run();
  EXPECT_NEAR(first, 0.9, 1e-6);
  EXPECT_NEAR(second, 2.1, 1e-6);
  EXPECT_GE(net.wakeups_suppressed(), 1);
}

TEST(FlowNetwork, SuppressionPreservesCompletionTimes) {
  // The suppressed-wakeup path must be timing-neutral: a rate change that
  // *advances* the earliest completion still fires on time.
  Engine e;
  FlowNetwork net(&e, {GiBps(10)});
  double small = -1, big = -1;
  net.StartFlow({0}, GiB(8), [&] { big = e.now(); });
  // At t=0.2 a second flow joins the same link: the shared rate halves, the
  // first flow's completion moves out, and the new earliest completion must
  // override the stale 0.8s arm (early wakeup re-arms, never mis-fires).
  e.After(0.2, [&] { net.StartFlow({0}, GiB(2), [&] { small = e.now(); }); });
  e.Run();
  // t=0.2: big has 6 GiB left. Shared at 5 GiB/s each: small (2 GiB) drains
  // at t=0.6; big's remaining 4 GiB then runs at full 10 GiB/s: t=1.0.
  EXPECT_NEAR(small, 0.6, 1e-6);
  EXPECT_NEAR(big, 1.0, 1e-6);
}

}  // namespace
}  // namespace harmony::sim
