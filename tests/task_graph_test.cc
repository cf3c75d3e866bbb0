#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <string>

#include "core/packing.h"
#include "core/task_graph.h"
#include "model/models.h"
#include "profile/profiler.h"
#include "graph_corpus.h"

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

profile::ProfileDb MakeDb(int blocks = 16) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const profile::Profiler profiler(machine.gpu, profile::ProfilerOptions{});
  return profiler.Profile(
      model::Sequentialize(model::TinyTransformer(blocks, 512, 128)));
}

Configuration MakeConfig(const profile::ProfileDb& db, int u_fwd, int u_bwd,
                         Bytes capacity = MiB(512)) {
  PackingOptions opts;
  opts.capacity = capacity;
  Configuration c;
  c.u_fwd = u_fwd;
  c.u_bwd = u_bwd;
  c.bwd_packs = BackwardPacks(u_bwd, db, opts).value();
  opts.min_packs = 4;  // several forward packs so pipelines are non-trivial
  c.fwd_packs = ForwardPacks(u_fwd, c.bwd_packs, db, opts).value();
  return c;
}

// ForEachProducer's output collected into (task id, piece index) pairs.
std::vector<std::pair<int, int>> Producers(const DepResolver& deps, Flow flow,
                                           int boundary, const MbPiece& piece,
                                           int replica) {
  std::vector<std::pair<int, int>> out;
  deps.ForEachProducer(flow, boundary, piece, replica,
                       [&](int task, int k) { out.emplace_back(task, k); });
  return out;
}

TEST(SplitMicrobatches, EvenAndRagged) {
  const auto even = SplitMicrobatches(8, 4);
  ASSERT_EQ(even.size(), 2u);
  EXPECT_EQ(even[0].begin, 0);
  EXPECT_EQ(even[1].begin, 4);
  const auto ragged = SplitMicrobatches(10, 4);
  ASSERT_EQ(ragged.size(), 3u);
  EXPECT_EQ(ragged[2].size, 2);
}

TEST(SplitMicrobatches, MicrobatchLargerThanMinibatch) {
  // u > total collapses to one piece covering the whole minibatch.
  const auto pieces = SplitMicrobatches(3, 8);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].begin, 0);
  EXPECT_EQ(pieces[0].size, 3);
}

TEST(SplitMicrobatches, LastPieceCarriesRemainder) {
  const auto pieces = SplitMicrobatches(13, 5);
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0].size, 5);
  EXPECT_EQ(pieces[1].size, 5);
  EXPECT_EQ(pieces[2].begin, 10);
  EXPECT_EQ(pieces[2].size, 3);
  int total = 0;
  for (const MbPiece& p : pieces) total += p.size;
  EXPECT_EQ(total, 13);
}

TEST(SplitMicrobatchesDeathTest, ZeroMicrobatchIsAnInvariantViolation) {
  // u == 0 is a caller bug (division by zero downstream), guarded by a CHECK
  // rather than silently clamped.
  EXPECT_DEATH(SplitMicrobatches(8, 0), "Check failed");
  EXPECT_DEATH(SplitMicrobatches(0, 4), "Check failed");
}

TEST(MbPiece, Overlaps) {
  const MbPiece a{0, 4}, b{4, 4}, c{2, 4};
  EXPECT_FALSE(a.Overlaps(b));
  EXPECT_TRUE(a.Overlaps(c));
  EXPECT_TRUE(c.Overlaps(b));
}

TEST(MbPiece, AdjacentPiecesDoNotOverlap) {
  // [0,2) and [2,5) touch at 2 but share no sample; [4,6) does intersect.
  const MbPiece a{0, 2}, b{2, 3}, c{4, 2};
  EXPECT_FALSE(a.Overlaps(b));
  EXPECT_FALSE(b.Overlaps(a));
  EXPECT_TRUE(b.Overlaps(c));
  // A piece always overlaps itself.
  EXPECT_TRUE(b.Overlaps(b));
}

class TaskGraphTest : public ::testing::Test {
 protected:
  TaskGraphTest() : db_(MakeDb()) {}
  profile::ProfileDb db_;
};

TEST_F(TaskGraphTest, WrapAroundBinding) {
  // Algorithm 3: Task(P_FB[i]) -> GPU[i mod N].
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  int slot = 0;
  for (const Task& t : g.tasks) {
    if (t.type == TaskType::kUpdate) continue;
    EXPECT_EQ(t.device, slot % 4) << "task " << t.id;
    ++slot;
  }
  EXPECT_EQ(slot, static_cast<int>(c.fwd_packs.size() + c.bwd_packs.size()));
}

TEST_F(TaskGraphTest, FusedTaskProperties) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  int fused_count = 0;
  for (const Task& t : g.tasks) {
    if (!t.fused_forward) continue;
    ++fused_count;
    EXPECT_EQ(t.type, TaskType::kBackward);
    EXPECT_EQ(t.pack, c.bwd_packs.back());
    EXPECT_FALSE(t.reads_checkpoint); // input streams in from the last F task
  }
  EXPECT_EQ(fused_count, 1);
}

TEST_F(TaskGraphTest, CheckpointBoundariesMatchBackwardPackInputs) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  std::set<int> expected;
  for (size_t j = 0; j + 1 < c.bwd_packs.size(); ++j) {  // fused pack excluded
    if (c.bwd_packs[j].lo > 0) expected.insert(c.bwd_packs[j].lo);
  }
  std::set<int> saved;
  for (const Task& t : g.tasks) {
    for (int b : t.checkpoint_boundaries) {
      EXPECT_EQ(t.type, TaskType::kForward);
      EXPECT_GE(b - 1, t.pack.lo);
      EXPECT_LE(b - 1, t.pack.hi);
      saved.insert(b);
    }
  }
  EXPECT_EQ(saved, expected);
}

TEST_F(TaskGraphTest, GroupsCoverWholeMinibatch) {
  const Configuration c = MakeConfig(db_, 3, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 10, OptimizationFlags{}, db_);
  for (const Task& t : g.tasks) {
    if (t.type == TaskType::kUpdate) continue;
    int total = 0;
    for (const MbPiece& p : t.group) total += p.size;
    EXPECT_EQ(total, 10);
    const int u = t.type == TaskType::kForward && !t.fused_forward ? 3 : 2;
    EXPECT_EQ(t.group.front().size, u);
  }
}

TEST_F(TaskGraphTest, DataParallelReplication) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kDataParallel, 4, 16, OptimizationFlags{}, db_);
  EXPECT_EQ(g.num_replicas, 4);
  EXPECT_TRUE(g.grad_reduce_via_host);
  for (const Task& t : g.tasks) {
    if (t.type == TaskType::kUpdate) {
      EXPECT_EQ(t.replica, -1);  // one master update per pack
      EXPECT_TRUE(t.on_cpu);
    } else {
      EXPECT_EQ(t.device, t.replica);  // each replica owns one GPU
      int total = 0;
      for (const MbPiece& p : t.group) total += p.size;
      EXPECT_EQ(total, 4);  // 16 / 4 replicas
    }
  }
}

TEST_F(TaskGraphTest, UpdateTaskPerBackwardPack) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  int updates = 0;
  for (const Task& t : g.tasks) updates += t.type == TaskType::kUpdate;
  EXPECT_EQ(updates, static_cast<int>(c.bwd_packs.size()));
}

TEST_F(TaskGraphTest, CpuOffloadRoutesUpdatesToCpuOrder) {
  const Configuration c = MakeConfig(db_, 2, 2);
  OptimizationFlags flags;
  flags.cpu_optimizer = true;
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, flags, db_);
  int cpu_updates = 0;
  for (const auto& order : g.cpu_order) cpu_updates += order.size();
  EXPECT_EQ(cpu_updates, static_cast<int>(c.bwd_packs.size()));

  flags.cpu_optimizer = false;
  const TaskGraph g2 = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, flags, db_);
  for (const auto& order : g2.cpu_order) EXPECT_TRUE(order.empty());
}

TEST_F(TaskGraphTest, JitComputeOffUnfusesLastPack) {
  const Configuration c = MakeConfig(db_, 2, 2);
  OptimizationFlags flags;
  flags.jit_compute = false;
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, flags, db_);
  int fwd_layers = 0;
  for (const Task& t : g.tasks) {
    EXPECT_FALSE(t.fused_forward);
    if (t.type == TaskType::kForward) fwd_layers += t.pack.num_layers();
  }
  EXPECT_EQ(fwd_layers, g.num_layers);  // forward now covers everything
}

TEST_F(TaskGraphTest, NoRecomputeLowersToKeepEverywhere) {
  Configuration c = MakeConfig(db_, 2, 2);
  c.policy = PolicyTable::Uniform(db_.num_layers(), StashPolicy::kKeep);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  EXPECT_TRUE(g.stash_policy.IsUniform(StashPolicy::kKeep));
  for (int l = 0; l < g.num_layers; ++l) {
    EXPECT_EQ(g.policy_at(l), StashPolicy::kKeep);
  }
  for (const Task& t : g.tasks) {
    if (t.type == TaskType::kBackward && !t.fused_forward) {
      EXPECT_FALSE(t.reads_checkpoint);
    }
    EXPECT_TRUE(t.checkpoint_boundaries.empty());
  }
}

TEST_F(TaskGraphTest, ExplicitPolicyTableLowersCheckpointsPerLayer) {
  // A deeper model forces >= 3 backward packs at the default capacity so an
  // interior (non-first, non-fused) pack exists.
  const profile::ProfileDb db = MakeDb(48);
  const Configuration base = MakeConfig(db, 2, 2);
  const int R = db.num_layers();

  // An explicit all-recompute table matches the default (empty-table)
  // lowering exactly.
  Configuration c = base;
  c.policy = PolicyTable::Uniform(R, StashPolicy::kRecompute);
  const TaskGraph legacy = GenerateHarmonyTaskGraph(
      base, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db);
  const TaskGraph expl = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db);
  ASSERT_EQ(legacy.num_tasks(), expl.num_tasks());
  for (int i = 0; i < legacy.num_tasks(); ++i) {
    EXPECT_EQ(legacy.task(i).reads_checkpoint, expl.task(i).reads_checkpoint);
    EXPECT_EQ(legacy.task(i).checkpoint_boundaries,
              expl.task(i).checkpoint_boundaries);
  }
  EXPECT_TRUE(expl.stash_policy.IsUniform(StashPolicy::kRecompute));

  // A mixed table checkpoints only the boundaries of recompute packs: turn
  // one interior backward pack to kSwap and its checkpoint must vanish.
  ASSERT_GE(base.bwd_packs.size(), 3u);
  const Pack swapped = base.bwd_packs[1];
  ASSERT_GT(swapped.lo, 0);
  Configuration mixed = base;
  mixed.policy = PolicyTable::Uniform(R, StashPolicy::kRecompute);
  for (int l = swapped.lo; l <= swapped.hi; ++l) {
    mixed.policy.Set(l, StashPolicy::kSwap);
  }
  const TaskGraph mg = GenerateHarmonyTaskGraph(
      mixed, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db);
  std::set<int> boundaries;
  for (const Task& t : mg.tasks) {
    for (int b : t.checkpoint_boundaries) boundaries.insert(b);
    if (t.type == TaskType::kBackward && t.pack == swapped) {
      EXPECT_FALSE(t.reads_checkpoint);
    }
  }
  EXPECT_EQ(boundaries.count(swapped.lo), 0u);
  ValidateTaskGraph(mg);
}

TEST_F(TaskGraphTest, GroupingOffSplitsTasksMicrobatchMajor) {
  const Configuration c = MakeConfig(db_, 2, 2);
  OptimizationFlags flags;
  flags.input_batch_grouping = false;
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, flags, db_);
  for (const Task& t : g.tasks) {
    if (t.type != TaskType::kUpdate) {
      EXPECT_EQ(t.group.size(), 1u);
    }
  }
  // Per device, piece begins must be non-decreasing (microbatch-major).
  for (const auto& order : g.device_order) {
    int prev_begin = -1;
    for (int id : order) {
      const Task& t = g.task(id);
      if (t.type == TaskType::kUpdate) continue;
      EXPECT_GE(t.group.front().begin, prev_begin);
      prev_begin = t.group.front().begin;
    }
  }
}

TEST_F(TaskGraphTest, DepResolverActivationChain) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  const DepResolver deps(g);
  // The second forward task's input boundary is produced by the first.
  const Task* second = nullptr;
  for (const Task& t : g.tasks) {
    if (t.type == TaskType::kForward && t.pack.lo > 0) {
      if (!second || t.pack.lo < second->pack.lo) second = &t;
    }
  }
  ASSERT_NE(second, nullptr);
  const auto producers = Producers(deps, Flow::kActivation, second->pack.lo,
                                   second->group.front(), 0);
  ASSERT_EQ(producers.size(), 1u);
  EXPECT_EQ(g.task(producers[0].first).pack.hi + 1, second->pack.lo);
}

TEST_F(TaskGraphTest, DepResolverCrossGranularityOverlap) {
  const Configuration c = MakeConfig(db_, 4, 2);  // U_F=4, U_B=2
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  const DepResolver deps(g);
  const Task* fused = nullptr;
  for (const Task& t : g.tasks) {
    if (t.fused_forward) fused = &t;
  }
  ASSERT_NE(fused, nullptr);
  // Each U_B=2 piece overlaps exactly one U_F=4 producer piece.
  for (const MbPiece& piece : fused->group) {
    const auto producers =
        Producers(deps, Flow::kActivation, fused->pack.lo, piece, 0);
    ASSERT_EQ(producers.size(), 1u);
    const Task& p = g.task(producers[0].first);
    EXPECT_TRUE(p.group[producers[0].second].Overlaps(piece));
  }
}

TEST_F(TaskGraphTest, GradientChainLinksBackwardTasks) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  const DepResolver deps(g);
  for (const Task& t : g.tasks) {
    if (t.type != TaskType::kBackward || t.pack.hi == g.num_layers - 1) continue;
    const auto producers = Producers(deps, Flow::kGradient, t.pack.hi + 1,
                                     t.group.front(), 0);
    ASSERT_FALSE(producers.empty()) << "backward task " << t.id;
    EXPECT_EQ(g.task(producers[0].first).pack.lo, t.pack.hi + 1);
  }
}

TEST_F(TaskGraphTest, BackwardTasksForPackFindsAllReplicas) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kDataParallel, 4, 16, OptimizationFlags{}, db_);
  const DepResolver deps(g);
  const auto tasks = deps.BackwardTasksForPack(c.bwd_packs[0], -1);
  EXPECT_EQ(tasks.size(), 4u);  // one per replica
}

// Brute-force reference for DepResolver: every task of `replica` (id order)
// producing the `flow` tensor at `boundary`, every piece overlapping `piece`.
std::vector<std::pair<int, int>> ScanProducers(const TaskGraph& g, Flow flow,
                                               int boundary,
                                               const MbPiece& piece,
                                               int replica) {
  std::vector<std::pair<int, int>> out;
  if (flow == Flow::kActivation ? boundary == 0
                                : boundary > g.num_layers - 1) {
    return out;
  }
  for (const Task& t : g.tasks) {
    if (t.replica != replica) continue;
    const bool ckpt =
        (t.type == TaskType::kForward || t.fused_forward) &&
        std::find(t.checkpoint_boundaries.begin(),
                  t.checkpoint_boundaries.end(),
                  boundary) != t.checkpoint_boundaries.end();
    const bool produces =
        flow == Flow::kActivation
            ? (t.type == TaskType::kForward && t.pack.hi + 1 == boundary) || ckpt
            : t.type == TaskType::kBackward && t.pack.lo == boundary;
    if (!produces) continue;
    for (int k = 0; k < static_cast<int>(t.group.size()); ++k) {
      if (t.group[k].Overlaps(piece)) out.emplace_back(t.id, k);
    }
  }
  return out;
}

// Backward tasks of `replica` (-1: all, replicas ascending) in id order,
// restricted to `pack` when one is given.
std::vector<int> ScanBackwardTasks(const TaskGraph& g, int replica,
                                   std::optional<Pack> pack) {
  std::vector<int> out;
  for (int r = 0; r < g.num_replicas; ++r) {
    if (replica >= 0 && r != replica) continue;
    for (const Task& t : g.tasks) {
      if (t.type == TaskType::kBackward && t.replica == r &&
          (!pack || t.pack == *pack)) {
        out.push_back(t.id);
      }
    }
  }
  return out;
}

// Checks every (task, piece) of `g` against the brute-force scan, at both of
// the task's pack boundaries and for both tensors, plus BackwardTasksForPack
// for every backward pack and AllBackwardTasks for every replica.
void ExpectMatchesScan(const TaskGraph& g, const DepResolver& deps,
                       const std::string& name) {
  for (const Task& t : g.tasks) {
    for (const MbPiece& piece : t.group) {
      for (int boundary : {t.pack.lo, t.pack.hi + 1}) {
        for (Flow flow : {Flow::kActivation, Flow::kGradient}) {
          ASSERT_EQ(Producers(deps, flow, boundary, piece, t.replica),
                    ScanProducers(g, flow, boundary, piece, t.replica))
              << name << " task " << t.id << " boundary " << boundary
              << " piece " << piece.begin;
        }
      }
    }
    if (t.type == TaskType::kBackward || t.type == TaskType::kUpdate) {
      for (int replica = -1; replica < g.num_replicas; ++replica) {
        ASSERT_EQ(deps.BackwardTasksForPack(t.pack, replica),
                  ScanBackwardTasks(g, replica, t.pack))
            << name << " pack " << t.pack.lo << "-" << t.pack.hi;
      }
    }
  }
  for (int r = 0; r < g.num_replicas; ++r) {
    const auto all = deps.AllBackwardTasks(r);
    ASSERT_EQ(std::vector<int>(all.begin(), all.end()),
              ScanBackwardTasks(g, r, std::nullopt))
        << name;
  }
}

// The indexed, binary-searching DepResolver returns exactly what a linear
// scan of every task and piece returns, in the same order, on every graph of
// the seeded corpus. One DepIndex is reused across all graphs, as the
// estimator's scratch reuses it.
TEST(DepResolverProperty, MatchesBruteForceScanOnCorpus) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const profile::ProfileDb db = MakeDb();
  DepIndex reused;
  for (const corpus::CorpusGraph& c : corpus::SeededGraphCorpus(db, machine)) {
    const DepResolver deps(c.graph, &reused);
    ExpectMatchesScan(c.graph, deps, c.name);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Producers are found by binary search, so a DepResolver refuses a graph
// whose groups are not sorted and disjoint: an unsorted producer group and an
// overlapping one each fail the construction check.
TEST(DepResolverDeathTest, UnsortedOrOverlappingGroupsFailTheCheck) {
  auto graph_with = [](std::vector<MbPiece> group) {
    TaskGraph g;
    g.num_layers = 2;
    Task t;
    t.id = 0;
    t.type = TaskType::kForward;
    t.pack = Pack{0, 0};
    t.group = std::move(group);
    g.tasks.push_back(std::move(t));
    return g;
  };
  const TaskGraph sorted = graph_with({{0, 4}, {4, 4}});
  const DepResolver deps(sorted);
  EXPECT_EQ(Producers(deps, Flow::kActivation, 1, MbPiece{3, 2}, 0),
            (std::vector<std::pair<int, int>>{{0, 0}, {0, 1}}));
  const TaskGraph unsorted = graph_with({{6, 2}, {0, 3}, {3, 3}});
  EXPECT_DEATH(DepResolver{unsorted}, "not sorted and disjoint");
  const TaskGraph overlapping = graph_with({{0, 4}, {2, 4}, {5, 3}});
  EXPECT_DEATH(DepResolver{overlapping}, "not sorted and disjoint");
}

void ExpectSameGraph(const TaskGraph& a, const TaskGraph& b,
                     const std::string& where) {
  EXPECT_EQ(a.name, b.name) << where;
  EXPECT_EQ(a.num_devices, b.num_devices) << where;
  EXPECT_EQ(a.num_replicas, b.num_replicas) << where;
  EXPECT_EQ(a.num_layers, b.num_layers) << where;
  EXPECT_EQ(a.minibatch, b.minibatch) << where;
  EXPECT_EQ(a.u_fwd, b.u_fwd) << where;
  EXPECT_EQ(a.u_bwd, b.u_bwd) << where;
  EXPECT_EQ(a.stash_policy, b.stash_policy) << where;
  EXPECT_EQ(a.grad_reduce_via_host, b.grad_reduce_via_host) << where;
  EXPECT_EQ(a.device_reserved_bytes, b.device_reserved_bytes) << where;
  EXPECT_EQ(a.device_order, b.device_order) << where;
  EXPECT_EQ(a.cpu_order, b.cpu_order) << where;
  ASSERT_EQ(a.num_tasks(), b.num_tasks()) << where;
  for (int i = 0; i < a.num_tasks(); ++i) {
    const Task& x = a.task(i);
    const Task& y = b.task(i);
    EXPECT_TRUE(x.id == y.id && x.type == y.type && x.pack == y.pack &&
                x.device == y.device && x.on_cpu == y.on_cpu &&
                x.replica == y.replica && x.fused_forward == y.fused_forward &&
                x.checkpoint_boundaries == y.checkpoint_boundaries &&
                x.reads_checkpoint == y.reads_checkpoint &&
                x.group.size() == y.group.size())
        << where << " task " << i;
    for (size_t k = 0; k < x.group.size() && k < y.group.size(); ++k) {
      EXPECT_TRUE(x.group[k].begin == y.group[k].begin &&
                  x.group[k].size == y.group[k].size)
          << where << " task " << i << " piece " << k;
    }
  }
}

// Generating into one reused graph, whatever it held before (PP or DP,
// grouped or split, other flags and tables), yields the graph a fresh
// generation returns.
TEST(TaskGraph, RegenerateIntoReusedGraphMatchesFresh) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const profile::ProfileDb db = MakeDb();
  TaskGraph reused;
  int checked = 0;
  for (const corpus::CorpusGraph& c : corpus::SeededGraphCorpus(db, machine)) {
    if (!c.harmony) continue;
    GenerateHarmonyTaskGraph(c.config, c.mode, c.devices, c.minibatch, c.flags,
                             db, &reused);
    ExpectSameGraph(reused, c.graph, c.name);
    ++checked;
  }
  EXPECT_EQ(checked, 288);
}

// The configuration search generates every candidate into one graph per
// worker. Once that graph has held the largest of a sequence of graphs with
// the same tasks, regenerating any of them allocates nothing.
TEST(TaskGraph, RegenerateIntoWarmGraphAllocatesNothing) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug builds validate, and so allocate for, every graph";
#endif
  const profile::ProfileDb db = MakeDb();
  const int R = db.num_layers();
  const Configuration base = MakeConfig(db, 1, 1);
  std::vector<Configuration> configs;
  for (int u : {1, 2, 4}) {
    for (const PolicyTable& table :
         {PolicyTable(), PolicyTable::Uniform(R, StashPolicy::kSwap),
          PolicyTable::Uniform(R, StashPolicy::kKeep)}) {
      Configuration c = base;
      c.u_fwd = c.u_bwd = u;
      c.policy = table;
      configs.push_back(c);
    }
  }
  for (HarmonyMode mode :
       {HarmonyMode::kPipelineParallel, HarmonyMode::kDataParallel}) {
    TaskGraph graph;
    for (const Configuration& c : configs) {
      GenerateHarmonyTaskGraph(c, mode, 4, 16, OptimizationFlags{}, db, &graph);
    }
    g_allocs = 0;
    g_count_allocs = true;
    for (const Configuration& c : configs) {
      GenerateHarmonyTaskGraph(c, mode, 4, 16, OptimizationFlags{}, db, &graph);
    }
    g_count_allocs = false;
    EXPECT_EQ(g_allocs.load(), 0) << HarmonyModeName(mode);
  }
}

// Property sweep: every (U_F, U_B, mode, flags) combination yields a graph
// that passes structural validation (ValidateTaskGraph CHECK-fails on bugs).
struct GenParam {
  int u_fwd, u_bwd, minibatch;
  bool dp, grouping, jit_update, jit_compute, recompute;
};

class GenerateProperty : public ::testing::TestWithParam<GenParam> {};

TEST_P(GenerateProperty, ValidGraph) {
  static const profile::ProfileDb db = MakeDb();
  const GenParam p = GetParam();
  Configuration c = MakeConfig(db, p.u_fwd, p.u_bwd);
  c.policy = PolicyTable::Uniform(
      db.num_layers(), p.recompute ? StashPolicy::kRecompute : StashPolicy::kKeep);
  OptimizationFlags flags;
  flags.input_batch_grouping = p.grouping;
  flags.jit_update = p.jit_update;
  flags.jit_compute = p.jit_compute;
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, p.dp ? HarmonyMode::kDataParallel : HarmonyMode::kPipelineParallel, 4,
      p.minibatch, flags, db);
  ValidateTaskGraph(g);  // CHECK-fails on structural bugs
  EXPECT_EQ(g.minibatch, p.minibatch);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, GenerateProperty,
    ::testing::Values(GenParam{1, 1, 8, false, true, true, true, true},
                      GenParam{2, 1, 8, false, true, true, true, true},
                      GenParam{1, 2, 9, false, true, true, true, true},
                      GenParam{4, 2, 12, false, true, true, true, true},
                      GenParam{2, 2, 8, true, true, true, true, true},
                      GenParam{3, 2, 13, true, true, true, true, true},
                      GenParam{2, 2, 8, false, false, true, true, true},
                      GenParam{2, 2, 8, true, false, true, true, true},
                      GenParam{2, 2, 8, false, true, false, true, true},
                      GenParam{2, 2, 8, false, true, true, false, true},
                      GenParam{2, 2, 8, false, true, true, true, false},
                      GenParam{2, 2, 8, false, false, false, false, false},
                      GenParam{2, 2, 8, true, false, false, false, false}));

}  // namespace
}  // namespace harmony::core
