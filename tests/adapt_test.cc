// The adapt layer: heterogeneous machine descriptors, the health monitor's
// trace-driven degradation model, and the end-to-end detect -> re-plan ->
// switchover loop.
//
// The end-to-end invariants mirror ISSUE/DESIGN.md §14 exactly:
//   * under a seeded persistent link degradation the loop detects, re-plans
//     and switches at an iteration boundary;
//   * the chosen plan is bit-identical to what Algorithm 1 returns for the
//     degraded MachineSpec;
//   * post-switchover accounting is bit-identical to a fresh run on that
//     descriptor;
//   * with replan off the same schedule reproduces the plain training loop
//     bit-for-bit.
// Everything is deterministic from the fault plan alone (persistent faults
// use no RNG draws), so every EXPECT below is exact — no tolerances.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "adapt/health.h"
#include "adapt/planner.h"
#include "adapt/runner.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "model/models.h"
#include "reference_plan.h"
#include "runtime/runtime.h"
#include "serve/wire.h"
#include "trace/trace.h"

namespace harmony::adapt {
namespace {

using core::HarmonyMode;

// ---------------------------------------------------------------------------
// Heterogeneous MachineSpec
// ---------------------------------------------------------------------------

TEST(HeteroMachine, HomogeneousAccessorsMatchSharedGpu) {
  const hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  EXPECT_TRUE(m.per_gpu.empty());
  EXPECT_TRUE(m.link_bw_scale.empty());
  for (int g = 0; g < m.num_gpus; ++g) {
    EXPECT_EQ(m.GpuAt(g).name, m.gpu.name);
  }
  EXPECT_EQ(m.MinUsableMemory(), m.gpu.usable_memory());
  EXPECT_EQ(m.PlanningGpu().peak_flops, m.gpu.peak_flops);
  EXPECT_EQ(m.MinGpuLinkScale(), 1.0);
  EXPECT_EQ(m.MinHostMemScale(), 1.0);
  // Bit-identical to the historical planner arithmetic.
  for (int n = 1; n <= m.num_gpus; ++n) {
    EXPECT_EQ(m.EffectiveSwapBw(n),
              std::min(m.pcie_bw, m.host_mem_bw / std::max(1, n)));
  }
  EXPECT_EQ(m.EffectiveP2pBw(), m.pcie_bw);
  EXPECT_TRUE(m.Validate().ok());
}

TEST(HeteroMachine, GpuOverridesDriveFleetMinima) {
  hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  hw::GpuSpec weak = m.gpu;
  weak.name = "weak";
  weak.memory_capacity = GiB(8.0);
  weak.peak_flops = 5e12;
  m = m.WithGpuOverride(2, weak);

  ASSERT_EQ(m.per_gpu.size(), 4u);
  EXPECT_EQ(m.GpuAt(2).name, "weak");
  EXPECT_EQ(m.GpuAt(0).name, m.gpu.name);
  EXPECT_EQ(m.MinUsableMemory(), weak.usable_memory());
  EXPECT_EQ(m.PlanningGpu().peak_flops, 5e12);
  EXPECT_EQ(m.PlanningGpu().name, "weak");
  EXPECT_TRUE(m.Validate().ok());
}

TEST(HeteroMachine, LinkScalesComposeAndFoldIntoSwapBw) {
  hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  const int link = m.LinkGpuUp(1);
  m = m.WithLinkScale(link, 0.5);
  ASSERT_EQ(m.link_bw_scale.size(), static_cast<size_t>(m.NumLinks()));
  EXPECT_EQ(m.LinkScaleAt(link), 0.5);
  // Factors compose multiplicatively.
  m = m.WithLinkScale(link, 0.5);
  EXPECT_EQ(m.LinkScaleAt(link), 0.25);
  EXPECT_EQ(m.MinGpuLinkScale(), 0.25);
  EXPECT_EQ(m.MinHostMemScale(), 1.0);
  EXPECT_EQ(m.EffectiveSwapBw(1), std::min(m.pcie_bw * 0.25, m.host_mem_bw));

  // A host DRAM-side degradation scales the shared-bandwidth term instead.
  hw::MachineSpec h =
      hw::MachineSpec::Commodity4Gpu().WithLinkScale(
          hw::MachineSpec::Commodity4Gpu().LinkHostWrite(), 0.5);
  EXPECT_EQ(h.MinGpuLinkScale(), 1.0);
  EXPECT_EQ(h.MinHostMemScale(), 0.5);
  EXPECT_EQ(h.EffectiveSwapBw(4),
            std::min(h.pcie_bw, h.host_mem_bw * 0.5 / 4));

  // A degraded switch uplink sits on every swap and cross-switch p2p path,
  // so it becomes an extra min term — but only when actually degraded: a
  // nominal uplink must leave both effective bandwidths bit-identical to
  // the homogeneous arithmetic (EXPECT_EQ above already covers that, since
  // WithLinkScale materialized all-1.0 uplink entries).
  hw::MachineSpec u = hw::MachineSpec::Commodity4Gpu();
  u = u.WithLinkScale(u.LinkSwitchUp(0), 0.02);
  EXPECT_EQ(u.MinSwitchLinkScale(), 0.02);
  EXPECT_EQ(u.EffectiveSwapBw(4),
            std::min({u.pcie_bw, u.host_mem_bw / 4, u.uplink_bw * 0.02}));
  EXPECT_EQ(u.EffectiveP2pBw(), std::min(u.pcie_bw, u.uplink_bw * 0.02));
}

TEST(HeteroMachine, WithNumGpusSlicesOverridesAndDropsLinkScales) {
  hw::MachineSpec m = hw::MachineSpec::Commodity8Gpu();
  hw::GpuSpec weak = m.gpu;
  weak.memory_capacity = GiB(8.0);
  m = m.WithGpuOverride(1, weak)
          .WithGpuOverride(6, weak)
          .WithLinkScale(m.LinkGpuUp(0), 0.5);
  const hw::MachineSpec sliced = m.WithNumGpus(2);
  ASSERT_EQ(sliced.per_gpu.size(), 2u);
  EXPECT_EQ(sliced.GpuAt(1).memory_capacity, GiB(8.0));
  // Link ids renumber when the topology shrinks, so stale scales must not
  // survive the slice.
  EXPECT_TRUE(sliced.link_bw_scale.empty());
  EXPECT_TRUE(sliced.Validate().ok());
}

TEST(HeteroMachine, ValidateRejectsMalformedOverrides) {
  hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  m.per_gpu.resize(2, m.gpu);  // wrong size: must be num_gpus or empty
  EXPECT_FALSE(m.Validate().ok());

  hw::MachineSpec s = hw::MachineSpec::Commodity4Gpu();
  s.link_bw_scale.assign(3, 1.0);  // wrong size: must be NumLinks() or empty
  EXPECT_FALSE(s.Validate().ok());

  hw::MachineSpec z = hw::MachineSpec::Commodity4Gpu();
  z.link_bw_scale.assign(static_cast<size_t>(z.NumLinks()), 1.0);
  z.link_bw_scale[0] = 0.0;  // non-positive capacity factor
  EXPECT_FALSE(z.Validate().ok());

  hw::MachineSpec g = hw::MachineSpec::Commodity4Gpu();
  g.per_gpu.assign(static_cast<size_t>(g.num_gpus), g.gpu);
  g.per_gpu[3].memory_capacity = 0;
  EXPECT_FALSE(g.Validate().ok());
}

// ---------------------------------------------------------------------------
// HealthMonitor
// ---------------------------------------------------------------------------

trace::Event LinkFaultEvent(bool injected, int link, double factor) {
  trace::Event e;
  e.kind = injected ? trace::EventKind::kFaultInjected
                    : trace::EventKind::kFaultRecovered;
  e.lane = trace::Lane::kNet;
  e.detail = fault::FaultKindName(fault::FaultKind::kLinkDegrade);
  e.task = link;
  e.bytes = injected ? fault::EncodeFactorPpt(factor) : 0;
  return e;
}

trace::Event MemFaultEvent(bool injected, int device, Bytes stolen) {
  trace::Event e;
  e.kind = injected ? trace::EventKind::kFaultInjected
                    : trace::EventKind::kFaultRecovered;
  e.lane = trace::Lane::kAlloc;
  e.detail = fault::FaultKindName(fault::FaultKind::kMemPressure);
  e.device = device;
  e.bytes = injected ? stolen : 0;
  return e;
}

TEST(HealthMonitor, FactorEncodingRoundTripsExactly) {
  for (const double f : {0.25, 0.02, 0.5, 1.0, 0.125}) {
    EXPECT_EQ(fault::DecodeFactorPpt(fault::EncodeFactorPpt(f)), f);
  }
}

TEST(HealthMonitor, SelfHealingFlapLeavesNoResidual) {
  const hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  HealthMonitor monitor(m);
  monitor.OnEvent(LinkFaultEvent(true, m.LinkGpuUp(0), 0.25));
  monitor.OnEvent(LinkFaultEvent(false, m.LinkGpuUp(0), 0.0));
  for (int i = 0; i < 4; ++i) {
    const HealthAssessment a = monitor.EndIteration();
    EXPECT_FALSE(a.degraded);
    EXPECT_FALSE(a.replan);
    EXPECT_EQ(a.consecutive_degraded, 0);
  }
  EXPECT_EQ(monitor.faults_seen(), 2);
}

TEST(HealthMonitor, PersistentLinkFaultTripsAfterHysteresis) {
  const hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  const int link = m.LinkSwitchUp(0);
  HealthMonitor monitor(m);  // default hysteresis: 2 iterations
  monitor.OnEvent(LinkFaultEvent(true, link, 0.25));

  HealthAssessment a = monitor.EndIteration();
  EXPECT_TRUE(a.degraded);
  EXPECT_STREQ(a.reason, "link-degrade");
  EXPECT_EQ(a.consecutive_degraded, 1);
  EXPECT_FALSE(a.replan) << "one bad iteration must not trigger a re-plan";

  a = monitor.EndIteration();  // still degraded: no recovery event arrived
  EXPECT_TRUE(a.replan);
  EXPECT_EQ(a.consecutive_degraded, 2);
}

TEST(HealthMonitor, SynthesizedSpecSnapsToObservedValuesExactly) {
  const hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  const int link = m.LinkSwitchUp(1);
  const Bytes stolen = GiB(2.0);
  HealthMonitor monitor(m);
  monitor.OnEvent(LinkFaultEvent(true, link, 0.25));
  monitor.OnEvent(MemFaultEvent(true, 1, stolen));
  monitor.EndIteration();

  const hw::MachineSpec degraded = monitor.SynthesizeSpec();
  ASSERT_TRUE(degraded.Validate().ok());
  // The link factor is the exact last-observed sample, not the EWMA: the
  // EWMA only decides *when* to re-plan, never what the machine looks like.
  EXPECT_EQ(degraded.LinkScaleAt(link), 0.25);
  // Memory loss lands as capacity' = usable - stolen at fraction 1.0, so the
  // usable budget drops by exactly the stolen bytes in integer arithmetic.
  EXPECT_EQ(degraded.GpuAt(1).usable_memory(),
            m.GpuAt(1).usable_memory() - stolen);
  EXPECT_EQ(degraded.GpuAt(1).usable_fraction, 1.0);
  EXPECT_EQ(degraded.GpuAt(0).usable_memory(), m.GpuAt(0).usable_memory());
  // Semantics identical to building the same machine by hand.
  EXPECT_EQ(serve::MachineSpecToJson(degraded).Dump().find("per_gpu") !=
                std::string::npos,
            true);
}

TEST(HealthMonitor, RecoveryResetsTheHysteresisCounter) {
  const hw::MachineSpec m = hw::MachineSpec::Commodity4Gpu();
  HealthOptions opts;
  opts.hysteresis_iterations = 3;
  HealthMonitor monitor(m, opts);
  monitor.OnEvent(LinkFaultEvent(true, 0, 0.25));
  EXPECT_EQ(monitor.EndIteration().consecutive_degraded, 1);
  EXPECT_EQ(monitor.EndIteration().consecutive_degraded, 2);
  monitor.OnEvent(LinkFaultEvent(false, 0, 0.0));
  // EWMA decays back above the deviation threshold within a few healthy
  // iterations; the counter must restart from zero, not resume.
  HealthAssessment a;
  for (int i = 0; i < 8; ++i) a = monitor.EndIteration();
  EXPECT_FALSE(a.degraded);
  EXPECT_EQ(a.consecutive_degraded, 0);
}

// ---------------------------------------------------------------------------
// End-to-end: detect -> re-plan -> switchover
// ---------------------------------------------------------------------------

/// Counts the replan lifecycle events published to the attached sinks.
class ReplanEventSink : public trace::TraceSink {
 public:
  void OnEvent(const trace::Event& e) override {
    switch (e.kind) {
      case trace::EventKind::kReplanTriggered: ++triggered_; break;
      case trace::EventKind::kReplanApplied: ++applied_; break;
      case trace::EventKind::kReplanRejected: ++rejected_; break;
      default: break;
    }
  }
  int triggered() const { return triggered_; }
  int applied() const { return applied_; }
  int rejected() const { return rejected_; }

 private:
  int triggered_ = 0;
  int applied_ = 0;
  int rejected_ = 0;
};

fault::FaultPlan PersistentLinkFail(const hw::MachineSpec& m) {
  fault::FaultPlan fp;
  fp.enabled = true;
  fp.seed = 7;
  fp.link_fail_at = 0.005;
  fp.link_fail_link = m.LinkSwitchUp(0);  // shared uplink: hurts every swap
  fp.link_fail_factor = 0.02;
  return fp;
}

model::SequentialModel ModelFor(const serve::ModelSpec& spec) {
  auto graph = serve::BuildModel(spec);
  EXPECT_TRUE(graph.ok()) << graph.status();
  return model::Sequentialize(graph.value());
}

TEST(AdaptEndToEnd, PersistentLinkFailureConvergesToDegradedPlan) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const auto spec = serve::ModelSpec::FromName("BERT96");
  ASSERT_TRUE(spec.ok());
  const fault::FaultPlan fp = PersistentLinkFail(machine);

  ReplanEventSink events;
  AdaptOptions ao;
  ao.iterations = 4;
  ao.replan_margin = -1.0;  // accept any candidate: this test pins mechanics
  ao.fault_plan = fp;
  ao.trace_sinks.push_back(&events);
  AdaptiveRunner runner(machine, spec.value(), HarmonyMode::kPipelineParallel,
                        8, {}, {}, ao);
  const auto run = runner.Run();
  ASSERT_TRUE(run.ok()) << run.status();
  const AdaptResult& ar = run.value();

  // Detection honors hysteresis (2 iterations) and fires exactly once.
  EXPECT_EQ(ar.replans_triggered, 1);
  ASSERT_EQ(ar.decisions.size(), 1u);
  EXPECT_TRUE(ar.decisions[0].applied);
  EXPECT_EQ(ar.decisions[0].iteration, 1);
  EXPECT_STREQ(ar.decisions[0].reason, "link-degrade");
  EXPECT_TRUE(ar.switched);
  EXPECT_EQ(ar.switch_iteration, 2);
  ASSERT_EQ(ar.iterations.size(), 4u);
  EXPECT_EQ(events.triggered(), 1);
  EXPECT_EQ(events.applied(), 1);
  EXPECT_EQ(events.rejected(), 0);

  // The synthesized machine is bit-identical to scaling the failed link by
  // the injected factor on the nominal descriptor.
  const hw::MachineSpec degraded =
      machine.WithLinkScale(fp.link_fail_link, fp.link_fail_factor);
  EXPECT_EQ(serve::MachineSpecToJson(ar.machine).Dump(),
            serve::MachineSpecToJson(degraded).Dump());

  // The chosen plan is bit-identical to Algorithm 1 on the degraded machine.
  const model::SequentialModel model = ModelFor(spec.value());
  const auto fresh = reference::PlanFresh(
      model, degraded, HarmonyMode::kPipelineParallel, 8, {}, {});
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(serve::ConfigurationToJson(ar.config).Dump(),
            serve::ConfigurationToJson(fresh.value().search.best).Dump());

  // Post-switchover accounting matches a fresh run on the degraded
  // descriptor: same machine, same graph, persistent faults stripped (their
  // effect now lives in the MachineSpec).
  const runtime::Runtime rt(degraded, model);
  runtime::RuntimeOptions ro;
  ro.optimizer = serve::DefaultOptimizer(spec.value());
  ro.fault_plan = fp.WithoutPersistent();
  const auto fresh_metrics = rt.Execute(fresh.value().graph, ro);
  ASSERT_TRUE(fresh_metrics.ok()) << fresh_metrics.status();
  const std::string want =
      serve::RunMetricsToJson(fresh_metrics.value()).Dump();
  EXPECT_EQ(serve::RunMetricsToJson(ar.iterations[2]).Dump(), want);
  EXPECT_EQ(serve::RunMetricsToJson(ar.iterations[3]).Dump(), want);
}

TEST(AdaptEndToEnd, ReplanOffReproducesThePlainLoopBitForBit) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const auto spec = serve::ModelSpec::FromName("BERT96");
  ASSERT_TRUE(spec.ok());
  const fault::FaultPlan fp = PersistentLinkFail(machine);

  AdaptOptions ao;
  ao.iterations = 2;
  ao.replan = false;
  ao.fault_plan = fp;
  AdaptiveRunner runner(machine, spec.value(), HarmonyMode::kPipelineParallel,
                        8, {}, {}, ao);
  const auto run = runner.Run();
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run.value().iterations.size(), 2u);
  EXPECT_FALSE(run.value().switched);
  EXPECT_TRUE(run.value().decisions.empty());

  // Hand-rolled equivalent: plan once on the nominal machine, execute the
  // same fault schedule twice.
  const model::SequentialModel model = ModelFor(spec.value());
  const auto plan = reference::PlanFresh(
      model, machine, HarmonyMode::kPipelineParallel, 8, {}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(serve::ConfigurationToJson(run.value().config).Dump(),
            serve::ConfigurationToJson(plan.value().search.best).Dump());
  const runtime::Runtime rt(machine, model);
  for (int i = 0; i < 2; ++i) {
    runtime::RuntimeOptions ro;
    ro.optimizer = serve::DefaultOptimizer(spec.value());
    ro.fault_plan = fp;
    const auto metrics = rt.Execute(plan.value().graph, ro);
    ASSERT_TRUE(metrics.ok());
    EXPECT_EQ(serve::RunMetricsToJson(run.value().iterations[i]).Dump(),
              serve::RunMetricsToJson(metrics.value()).Dump());
  }
}

TEST(AdaptEndToEnd, BelowMarginCandidateIsRejected) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const auto spec = serve::ModelSpec::FromName("BERT96");
  ASSERT_TRUE(spec.ok());

  ReplanEventSink events;
  AdaptOptions ao;
  ao.iterations = 4;
  ao.replan_margin = 99.0;  // no candidate can clear this bar
  ao.fault_plan = PersistentLinkFail(machine);
  ao.trace_sinks.push_back(&events);
  AdaptiveRunner runner(machine, spec.value(), HarmonyMode::kPipelineParallel,
                        8, {}, {}, ao);
  const auto run = runner.Run();
  ASSERT_TRUE(run.ok()) << run.status();
  const AdaptResult& ar = run.value();

  EXPECT_EQ(ar.replans_triggered, 1);
  ASSERT_EQ(ar.decisions.size(), 1u);
  EXPECT_FALSE(ar.decisions[0].applied);
  EXPECT_STREQ(ar.decisions[0].reason, "below-margin");
  EXPECT_GT(ar.decisions[0].old_estimate_seconds, 0.0);
  EXPECT_FALSE(ar.switched);
  EXPECT_EQ(events.rejected(), 1);
  EXPECT_EQ(events.applied(), 0);
  // The machine and plan stay nominal; every iteration replays identically.
  EXPECT_EQ(serve::MachineSpecToJson(ar.machine).Dump(),
            serve::MachineSpecToJson(machine).Dump());
  const std::string first = serve::RunMetricsToJson(ar.iterations[0]).Dump();
  for (size_t i = 1; i < ar.iterations.size(); ++i) {
    EXPECT_EQ(serve::RunMetricsToJson(ar.iterations[i]).Dump(), first);
  }
}

TEST(AdaptEndToEnd, MemShrinkReplansOntoSmallerDevice) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const auto spec = serve::ModelSpec::FromName("BERT96");
  ASSERT_TRUE(spec.ok());
  const model::SequentialModel model = ModelFor(spec.value());

  // Device 1 keeps the planning GPU (PlanningGpu() picks per_gpu[0] when
  // every device has the same peak_flops), so the replan reuses the nominal
  // profile. Shrinking device 0 changes the planning GPU: the run's profile
  // memo must miss and profile the shrunk device.
  for (const int device : {1, 0}) {
    SCOPED_TRACE("shrunk device " + std::to_string(device));
    fault::FaultPlan fp;
    fp.enabled = true;
    fp.seed = 11;
    fp.mem_shrink_at = 0.005;
    fp.mem_shrink_device = device;
    fp.mem_shrink_fraction = 0.3;

    AdaptOptions ao;
    ao.iterations = 4;
    ao.replan_margin = -1.0;
    ao.fault_plan = fp;
    AdaptiveRunner runner(machine, spec.value(),
                          HarmonyMode::kPipelineParallel, 8, {}, {}, ao);
    const auto run = runner.Run();
    ASSERT_TRUE(run.ok()) << run.status();
    const AdaptResult& ar = run.value();

    ASSERT_EQ(ar.decisions.size(), 1u);
    EXPECT_TRUE(ar.decisions[0].applied);
    EXPECT_STREQ(ar.decisions[0].reason, "mem-shrink");
    ASSERT_TRUE(ar.switched);

    // The synthesized fleet is heterogeneous: the device shrank, the others
    // did not.
    const int other = device == 0 ? 1 : 0;
    EXPECT_LT(ar.machine.GpuAt(device).usable_memory(),
              machine.GpuAt(device).usable_memory());
    EXPECT_EQ(ar.machine.GpuAt(device).usable_fraction, 1.0);
    EXPECT_EQ(ar.machine.GpuAt(other).usable_memory(),
              machine.GpuAt(other).usable_memory());
    EXPECT_EQ(ar.machine.MinUsableMemory(),
              ar.machine.GpuAt(device).usable_memory());
    EXPECT_EQ(ar.machine.PlanningGpu().memory_capacity ==
                  machine.PlanningGpu().memory_capacity,
              device != 0);

    // Plan and post-switchover accounting both match a fresh pipeline on the
    // synthesized descriptor.
    const auto fresh = reference::PlanFresh(
        model, ar.machine, HarmonyMode::kPipelineParallel, 8, {}, {});
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ(serve::ConfigurationToJson(ar.config).Dump(),
              serve::ConfigurationToJson(fresh.value().search.best).Dump());
    const runtime::Runtime rt(ar.machine, model);
    runtime::RuntimeOptions ro;
    ro.optimizer = serve::DefaultOptimizer(spec.value());
    ro.fault_plan = fp.WithoutPersistent();
    const auto fresh_metrics = rt.Execute(fresh.value().graph, ro);
    ASSERT_TRUE(fresh_metrics.ok()) << fresh_metrics.status();
    EXPECT_EQ(serve::RunMetricsToJson(ar.iterations[3]).Dump(),
              serve::RunMetricsToJson(fresh_metrics.value()).Dump());
  }
}

TEST(AdaptEndToEnd, Gpt2LinkFailureAlsoConverges) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const auto spec = serve::ModelSpec::FromName("GPT2");
  ASSERT_TRUE(spec.ok());
  const fault::FaultPlan fp = PersistentLinkFail(machine);

  AdaptOptions ao;
  ao.iterations = 3;
  ao.replan_margin = -1.0;
  ao.fault_plan = fp;
  AdaptiveRunner runner(machine, spec.value(), HarmonyMode::kPipelineParallel,
                        8, {}, {}, ao);
  const auto run = runner.Run();
  ASSERT_TRUE(run.ok()) << run.status();
  const AdaptResult& ar = run.value();
  ASSERT_EQ(ar.decisions.size(), 1u);
  EXPECT_TRUE(ar.decisions[0].applied);
  ASSERT_TRUE(ar.switched);

  const hw::MachineSpec degraded =
      machine.WithLinkScale(fp.link_fail_link, fp.link_fail_factor);
  const model::SequentialModel model = ModelFor(spec.value());
  const auto fresh = reference::PlanFresh(
      model, degraded, HarmonyMode::kPipelineParallel, 8, {}, {});
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(serve::ConfigurationToJson(ar.config).Dump(),
            serve::ConfigurationToJson(fresh.value().search.best).Dump());
}

TEST(AdaptEndToEnd, HealthWindowConvertsToWholeIterations) {
  // A window shorter than one iteration clamps to one iteration of
  // hysteresis, so the re-plan fires a boundary earlier than the default.
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const auto spec = serve::ModelSpec::FromName("BERT96");
  ASSERT_TRUE(spec.ok());

  AdaptOptions ao;
  ao.iterations = 3;
  ao.replan_margin = -1.0;
  ao.health_window_seconds = 1e-3;
  ao.fault_plan = PersistentLinkFail(machine);
  AdaptiveRunner runner(machine, spec.value(), HarmonyMode::kPipelineParallel,
                        8, {}, {}, ao);
  const auto run = runner.Run();
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run.value().decisions.size(), 1u);
  EXPECT_EQ(run.value().decisions[0].iteration, 0);
  EXPECT_EQ(run.value().switch_iteration, 1);
}

}  // namespace
}  // namespace harmony::adapt
