// Golden tests for the StepCompiler — the pure lowering layer of the
// execution pipeline. A StepProgram is a deterministic function of
// (machine, model, graph, optimizer), so these tests pin its structure on
// the paper's BERT96 and GPT2 models without touching the simulator: exact
// per-device step counts, the need/produce keys of representative steps
// (rendered via DebugString), the CPU-offload dependency edges, and the
// cross-cutting invariants every compiled program must satisfy.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/packing.h"
#include "core/task_graph.h"
#include "model/models.h"
#include "profile/profiler.h"
#include "runtime/step_compiler.h"

namespace harmony::runtime {
namespace {

using core::Configuration;
using core::HarmonyMode;
using core::OptimizationFlags;
using core::TaskGraph;

struct Compiled {
  TaskGraph graph;
  StepProgram program;
};

// Mirrors the planner's front door: profile the model, pack at u=4 with 85%
// of usable memory (the same options runtime_test uses), generate the task
// graph, and lower it. No sim::Engine is ever constructed.
Compiled CompileModel(const model::LayerGraph& lg, HarmonyMode mode,
                      int minibatch = 8) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const model::SequentialModel model = model::Sequentialize(lg);
  const profile::ProfileDb db = profile::Profiler(machine.gpu, {}).Profile(model);
  core::PackingOptions opts;
  opts.capacity = static_cast<Bytes>(machine.gpu.usable_memory() * 0.85);
  Configuration c;
  c.u_fwd = c.u_bwd = 4;
  c.bwd_packs = core::BackwardPacks(4, db, opts).value();
  opts.min_packs = 4;
  c.fwd_packs = core::ForwardPacks(4, c.bwd_packs, db, opts).value();
  Compiled out{core::GenerateHarmonyTaskGraph(c, mode, 4, minibatch,
                                              OptimizationFlags{}, db),
               {}};
  StepCompiler compiler(machine, model, out.graph);
  out.program = compiler.Compile();
  return out;
}

const Compiled& Bert96Pp() {
  static const Compiled* c =
      new Compiled(CompileModel(model::Bert96(), HarmonyMode::kPipelineParallel));
  return *c;
}

const Compiled& Gpt2Pp() {
  static const Compiled* c =
      new Compiled(CompileModel(model::Gpt2(), HarmonyMode::kPipelineParallel));
  return *c;
}

// Number of tensors with at least one consumer (the old map-based
// ref_counts only held referenced tensors; the dense vector holds a slot
// per catalog entry).
int NumReferenced(const StepProgram& p) {
  int n = 0;
  for (int refs : p.ref_counts) n += refs > 0;
  return n;
}

// Every StepProgram, regardless of model or mode, must satisfy these.
void CheckInvariants(const Compiled& c) {
  const StepProgram& p = c.program;
  ASSERT_EQ(static_cast<int>(p.task_step_counts.size()), c.graph.num_tasks());
  int64_t counted = 0;
  for (int n : p.task_step_counts) {
    EXPECT_GE(n, 0);
    counted += n;
  }
  EXPECT_EQ(counted, p.num_steps());
  // Dense ref_counts: one slot per interned tensor, never negative.
  ASSERT_EQ(static_cast<int>(p.ref_counts.size()), p.tensors.size());
  for (int refs : p.ref_counts) EXPECT_GE(refs, 0);
  for (const auto& dev : p.steps) {
    for (const Step& s : dev) {
      ASSERT_GE(s.task, 0);
      ASSERT_LT(s.task, c.graph.num_tasks());
      std::set<TensorId> needed;
      for (const NeedSpec& n : s.needs) {
        ASSERT_GE(n.id, 0);
        ASSERT_LT(n.id, p.tensors.size());
        EXPECT_GT(n.bytes, 0) << DebugString(s, p.tensors);
        needed.insert(n.id);
      }
      for (const ProduceSpec& pr : s.produces)
        EXPECT_GT(pr.bytes, 0) << DebugString(s, p.tensors);
      // A step may only consume (deref) tensors it declared as needs.
      for (const TensorId d : s.derefs)
        EXPECT_TRUE(needed.count(d)) << DebugString(s, p.tensors);
    }
  }
  for (const auto& proc : p.cpu_steps) {
    for (const CpuStep& s : proc) {
      ASSERT_GE(s.task, 0);
      ASSERT_LT(s.task, c.graph.num_tasks());
      for (int t : s.wait_tasks) {
        ASSERT_GE(t, 0);
        ASSERT_LT(t, c.graph.num_tasks());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// BERT96, pipeline-parallel, 4 GPUs, minibatch 8, u=4/4
// ---------------------------------------------------------------------------

TEST(StepCompiler, Bert96PpGoldenShape) {
  const Compiled& c = Bert96Pp();
  const StepProgram& p = c.program;
  EXPECT_EQ(c.graph.num_tasks(), 10);
  EXPECT_EQ(p.num_steps(), 533);
  ASSERT_EQ(p.steps.size(), 4u);
  EXPECT_EQ(p.steps[0].size(), 174u);
  EXPECT_EQ(p.steps[1].size(), 160u);
  EXPECT_EQ(p.steps[2].size(), 164u);
  EXPECT_EQ(p.steps[3].size(), 32u);
  ASSERT_EQ(p.cpu_steps.size(), 4u);
  EXPECT_EQ(p.cpu_steps[0].size(), 1u);
  EXPECT_EQ(p.cpu_steps[1].size(), 1u);
  EXPECT_EQ(p.cpu_steps[2].size(), 1u);
  EXPECT_EQ(p.cpu_steps[3].size(), 0u);
  EXPECT_EQ(NumReferenced(p), 530);
  // Master weights + Adam state (2x) permanently on host.
  EXPECT_EQ(p.static_host_bytes, 14904815640);
}

TEST(StepCompiler, Bert96PpGoldenSteps) {
  const StepProgram& p = Bert96Pp().program;
  // First forward steps on device 0: weights + boundary activation in,
  // next activation out, input consumed.
  EXPECT_EQ(DebugString(p.steps[0][0], p.tensors),
            "t0 needs=[W[L0,o0]:127115264 A[L0,b0,o0]:8192] "
            "produces=[A[L1,b0,o0]:8388608] derefs=[A[L0,b0,o0]]");
  EXPECT_EQ(DebugString(p.steps[0][1], p.tensors),
            "t0 needs=[W[L1,o0]:50384896 A[L1,b0,o0]:8388608] "
            "produces=[A[L2,b0,o0]:8388608] derefs=[A[L1,b0,o0]]");
  EXPECT_EQ(DebugString(p.steps[0][2], p.tensors),
            "t0 needs=[W[L2,o0]:50384896 A[L2,b0,o0]:8388608] "
            "produces=[A[L3,b0,o0]:8388608] derefs=[A[L2,b0,o0]]");
  // Last backward step on device 0: the final microbatch's first layer of
  // the pack pushes the whole pack's gradients to the host (move=...) for
  // the CPU optimizer.
  const Step& last = p.steps[0].back();
  EXPECT_EQ(last.task, 4);
  ASSERT_EQ(last.move_to_host.size(), 34u);
  const std::string rendered = DebugString(last, p.tensors);
  EXPECT_EQ(rendered.substr(0, rendered.find(" move=")),
            "t4 needs=[W[L65,o0]:50384896 G[L65,o0]:50384896 "
            "S[L65,b4,o0]:150994944 dA[L66,b4,o0]:8388608] "
            "produces=[dA[L65,b4,o0]:8388608] "
            "derefs=[S[L65,b4,o0] dA[L66,b4,o0]]");
  // CPU update for that pack: waits on the backward task, needs (and then
  // frees) every pushed gradient's host copy.
  const CpuStep& cpu = p.cpu_steps[0][0];
  EXPECT_EQ(cpu.task, 7);
  EXPECT_EQ(std::vector<int>(cpu.wait_tasks.begin(), cpu.wait_tasks.end()),
            std::vector<int>{4});
  ASSERT_EQ(cpu.host_needs.size(), 34u);
  EXPECT_TRUE(std::equal(cpu.host_needs.begin(), cpu.host_needs.end(),
                         cpu.host_frees.begin(), cpu.host_frees.end()));
  EXPECT_EQ(DebugString(cpu, p.tensors).substr(0, 30), "t7 cpu host_needs=[G[L65,o0] G");
}

TEST(StepCompiler, Bert96PpInvariants) { CheckInvariants(Bert96Pp()); }

// ---------------------------------------------------------------------------
// GPT2 (1.5B), pipeline-parallel, 4 GPUs, minibatch 8, u=4/4
// ---------------------------------------------------------------------------

TEST(StepCompiler, Gpt2PpGoldenShape) {
  const Compiled& c = Gpt2Pp();
  const StepProgram& p = c.program;
  EXPECT_EQ(c.graph.num_tasks(), 16);
  EXPECT_EQ(p.num_steps(), 300);
  ASSERT_EQ(p.steps.size(), 4u);
  EXPECT_EQ(p.steps[0].size(), 94u);
  EXPECT_EQ(p.steps[1].size(), 90u);
  EXPECT_EQ(p.steps[2].size(), 56u);
  EXPECT_EQ(p.steps[3].size(), 54u);
  ASSERT_EQ(p.cpu_steps.size(), 4u);
  EXPECT_EQ(p.cpu_steps[0].size(), 2u);
  EXPECT_EQ(p.cpu_steps[1].size(), 2u);
  EXPECT_EQ(p.cpu_steps[2].size(), 1u);
  EXPECT_EQ(p.cpu_steps[3].size(), 1u);
  EXPECT_EQ(NumReferenced(p), 294);
  EXPECT_EQ(p.static_host_bytes, 18691334400);
}

TEST(StepCompiler, Gpt2PpGoldenSteps) {
  const StepProgram& p = Gpt2Pp().program;
  EXPECT_EQ(DebugString(p.steps[0][0], p.tensors),
            "t0 needs=[W[L0,o0]:328198400 A[L0,b0,o0]:16384] "
            "produces=[A[L1,b0,o0]:26214400] derefs=[A[L0,b0,o0]]");
  EXPECT_EQ(DebugString(p.steps[0][1], p.tensors),
            "t0 needs=[W[L1,o0]:122963200 A[L1,b0,o0]:26214400] "
            "produces=[A[L2,b0,o0]:26214400] derefs=[A[L1,b0,o0]]");
  EXPECT_EQ(DebugString(p.steps[0][2], p.tensors),
            "t0 needs=[W[L2,o0]:122963200 A[L2,b0,o0]:26214400] "
            "produces=[A[L3,b0,o0]:26214400] derefs=[A[L2,b0,o0]]");
  const Step& last = p.steps[0].back();
  EXPECT_EQ(last.task, 8);
  EXPECT_EQ(last.move_to_host.size(), 9u);
  const CpuStep& cpu = p.cpu_steps[0][0];
  EXPECT_EQ(cpu.task, 10);
  EXPECT_EQ(std::vector<int>(cpu.wait_tasks.begin(), cpu.wait_tasks.end()),
            std::vector<int>{4});
  EXPECT_EQ(cpu.host_needs.size(), 7u);
  EXPECT_TRUE(std::equal(cpu.host_needs.begin(), cpu.host_needs.end(),
                         cpu.host_frees.begin(), cpu.host_frees.end()));
}

TEST(StepCompiler, Gpt2PpInvariants) { CheckInvariants(Gpt2Pp()); }

// ---------------------------------------------------------------------------
// Cross-cutting: data-parallel lowering and determinism
// ---------------------------------------------------------------------------

TEST(StepCompiler, Bert96DpInvariants) {
  CheckInvariants(CompileModel(model::Bert96(), HarmonyMode::kDataParallel));
}

TEST(StepCompiler, CompileIsDeterministic) {
  const Compiled a = CompileModel(model::Bert96(), HarmonyMode::kPipelineParallel);
  const Compiled b = CompileModel(model::Bert96(), HarmonyMode::kPipelineParallel);
  ASSERT_EQ(a.program.num_steps(), b.program.num_steps());
  ASSERT_EQ(a.program.steps.size(), b.program.steps.size());
  for (size_t d = 0; d < a.program.steps.size(); ++d) {
    ASSERT_EQ(a.program.steps[d].size(), b.program.steps[d].size());
    for (size_t i = 0; i < a.program.steps[d].size(); ++i)
      EXPECT_EQ(DebugString(a.program.steps[d][i], a.program.tensors),
                DebugString(b.program.steps[d][i], b.program.tensors));
  }
  for (size_t d = 0; d < a.program.cpu_steps.size(); ++d)
    for (size_t i = 0; i < a.program.cpu_steps[d].size(); ++i)
      EXPECT_EQ(DebugString(a.program.cpu_steps[d][i], a.program.tensors),
                DebugString(b.program.cpu_steps[d][i], b.program.tensors));
  EXPECT_EQ(a.program.ref_counts, b.program.ref_counts);
  EXPECT_EQ(a.program.static_host_bytes, b.program.static_host_bytes);
}

}  // namespace
}  // namespace harmony::runtime
