#include "core/task_graph.h"

#include <algorithm>
#include <queue>

#include "common/logging.h"

namespace harmony::core {

const char* TaskTypeName(TaskType type) {
  switch (type) {
    case TaskType::kForward: return "F";
    case TaskType::kBackward: return "B";
    case TaskType::kUpdate: return "U";
  }
  return "?";
}

namespace {

/// SplitMicrobatches into `pieces`, reusing its storage.
void AssignMicrobatches(int total, int u, std::vector<MbPiece>* pieces) {
  HARMONY_CHECK_GE(total, 1);
  HARMONY_CHECK_GE(u, 1);
  pieces->clear();
  pieces->reserve(static_cast<size_t>(total / u + (total % u != 0 ? 1 : 0)));
  for (int begin = 0; begin < total; begin += u) {
    pieces->push_back(MbPiece{begin, std::min(u, total - begin)});
  }
}

}  // namespace

std::vector<MbPiece> SplitMicrobatches(int total, int u) {
  std::vector<MbPiece> pieces;
  AssignMicrobatches(total, u, &pieces);
  return pieces;
}

// ---------------------------------------------------------------------------
// DepResolver
// ---------------------------------------------------------------------------

DepResolver::DepResolver(const TaskGraph& graph)
    : DepResolver(graph, nullptr) {}

DepResolver::DepResolver(const TaskGraph& graph, DepIndex* storage)
    : graph_(graph), ix_(storage != nullptr ? storage : &owned_) {
  DepIndex& ix = *ix_;
  const int lists = graph.num_replicas * (graph.num_layers + 1);
  auto list_of = [&](int replica, int boundary) {
    return replica * (graph.num_layers + 1) + boundary;
  };
  // Every index entry, in task-id order. Run twice over the same CSR
  // arrays: first counting into off[list + 1], then filling.
  auto for_each_entry = [&](auto&& add) {
    for (const Task& t : graph.tasks) {
      if (t.type == TaskType::kForward) {
        // Streaming output at the pack's end boundary (the fused task
        // consumes its own forward output internally, so only pure forwards
        // stream).
        add(ix.act_off, ix.act_tasks, list_of(t.replica, t.pack.hi + 1), t.id);
      }
      if (t.type == TaskType::kForward || t.fused_forward) {
        for (int b : t.checkpoint_boundaries) {
          // A forward's pack-end boundary is already listed above.
          if (t.type == TaskType::kForward && b == t.pack.hi + 1) continue;
          add(ix.act_off, ix.act_tasks, list_of(t.replica, b), t.id);
        }
      }
      if (t.type == TaskType::kBackward) {
        add(ix.grad_off, ix.grad_tasks, list_of(t.replica, t.pack.lo), t.id);
        add(ix.bwd_off, ix.bwd_tasks, t.replica, t.id);
      }
    }
  };
  ix.act_off.assign(lists + 1, 0);
  ix.grad_off.assign(lists + 1, 0);
  ix.bwd_off.assign(graph.num_replicas + 1, 0);
  for_each_entry([](std::vector<int>& off, std::vector<int>&, int list, int) {
    ++off[list + 1];
  });
  // Prefix sums make off[list] the list's start; filling advances it to the
  // list's end, and the shift afterwards restores the starts.
  auto open_lists = [](std::vector<int>& off, std::vector<int>& tasks) {
    for (size_t i = 1; i < off.size(); ++i) off[i] += off[i - 1];
    tasks.resize(off.back());
  };
  open_lists(ix.act_off, ix.act_tasks);
  open_lists(ix.grad_off, ix.grad_tasks);
  open_lists(ix.bwd_off, ix.bwd_tasks);
  for_each_entry([](std::vector<int>& off, std::vector<int>& tasks, int list,
                    int id) { tasks[off[list]++] = id; });
  for (std::vector<int>* off : {&ix.act_off, &ix.grad_off, &ix.bwd_off}) {
    for (size_t i = off->size() - 1; i > 0; --i) (*off)[i] = (*off)[i - 1];
    (*off)[0] = 0;
  }

  // ForEachProducer's binary search relies on sorted, disjoint groups.
  for (const Task& t : graph.tasks) {
    for (size_t k = 0; k < t.group.size(); ++k) {
      HARMONY_CHECK(t.group[k].size >= 0 &&
                    (k + 1 == t.group.size() ||
                     t.group[k].end() <= t.group[k + 1].begin))
          << "task " << t.id << ": group is not sorted and disjoint at piece "
          << k;
    }
  }
}

std::vector<int> DepResolver::BackwardTasksForPack(const Pack& pack,
                                                   int replica) const {
  std::vector<int> out;
  ForEachBackwardTaskForPack(pack, replica,
                             [&](int tid) { out.push_back(tid); });
  return out;
}

std::span<const int> DepResolver::AllBackwardTasks(int replica) const {
  HARMONY_CHECK(replica >= 0 && replica < graph_.num_replicas)
      << "no replica " << replica;
  return std::span<const int>(ix_->bwd_tasks)
      .subspan(ix_->bwd_off[replica],
               ix_->bwd_off[replica + 1] - ix_->bwd_off[replica]);
}

// ---------------------------------------------------------------------------
// Harmony task graph generation (Algorithm 3)
// ---------------------------------------------------------------------------

namespace {

/// Places update tasks into the device/cpu order lists of a grouped graph.
/// With jit updates a GPU update slots in right after its pack's backward
/// task; otherwise updates trail the iteration.
void PlaceUpdates(TaskGraph* graph) {
  for (const Task& t : graph->tasks) {
    if (t.type != TaskType::kUpdate) continue;
    if (t.on_cpu) {
      graph->cpu_order[t.device].push_back(t.id);
      continue;
    }
    auto& order = graph->device_order[t.device];
    if (graph->flags.jit_update) {
      // Insert after the last backward task of this pack on this device.
      int pos = static_cast<int>(order.size());
      for (int i = static_cast<int>(order.size()) - 1; i >= 0; --i) {
        const Task& o = graph->task(order[i]);
        if (o.type == TaskType::kBackward && o.pack == t.pack &&
            (graph->num_replicas == 1 || o.replica == t.replica)) {
          pos = i + 1;
          break;
        }
      }
      order.insert(order.begin() + pos, t.id);
    } else {
      order.push_back(t.id);
    }
  }
}

/// Without grouping, F/B tasks split into one task per microbatch so the
/// device interleaves packs microbatch-major (the pre-Harmony execution
/// style that causes repeated swaps). Rewrites `graph` (whose orders are not
/// read) into the split graph with its orders.
void SplitUngrouped(TaskGraph* graph) {
  const TaskGraph& g = *graph;
  TaskGraph split = g;
  split.tasks.clear();
  std::vector<std::vector<int>> new_ids(g.num_tasks());
  for (const Task& t : g.tasks) {
    if (t.type == TaskType::kUpdate || t.group.size() <= 1) {
      Task copy = t;
      copy.id = split.num_tasks();
      new_ids[t.id].push_back(copy.id);
      split.tasks.push_back(std::move(copy));
      continue;
    }
    for (const MbPiece& piece : t.group) {
      Task copy = t;
      copy.id = split.num_tasks();
      copy.group = {piece};
      new_ids[t.id].push_back(copy.id);
      split.tasks.push_back(std::move(copy));
    }
  }
  // Rebuild orders microbatch-major via a dependency-respecting topological
  // order (Kahn with (piece.begin, creation) priority). A plain sort can
  // deadlock when U_F != U_B: a backward piece may need a *later-beginning*
  // forward piece that a naive microbatch-major order schedules behind it
  // on the same device.
  split.device_order.assign(split.num_devices, {});
  split.cpu_order.assign(split.num_devices, {});
  const DepResolver split_deps(split);
  std::vector<int> indegree(split.num_tasks(), 0);
  std::vector<std::vector<int>> dependents(split.num_tasks());
  std::vector<int> orig_of(split.num_tasks(), 0);
  for (int orig = 0; orig < g.num_tasks(); ++orig) {
    for (int id : new_ids[orig]) orig_of[id] = orig;
  }
  for (const Task& t : split.tasks) {
    if (t.type == TaskType::kUpdate) continue;
    const bool wants_act = t.type == TaskType::kForward || t.fused_forward;
    auto add_edge = [&](int pid, int) {
      dependents[pid].push_back(t.id);
      ++indegree[t.id];
    };
    for (const MbPiece& piece : t.group) {
      split_deps.ForEachProducer(
          wants_act ? Flow::kActivation : Flow::kGradient,
          wants_act ? t.pack.lo : t.pack.hi + 1, piece, t.replica, add_edge);
      if (!wants_act && t.reads_checkpoint) {
        split_deps.ForEachProducer(Flow::kActivation, t.pack.lo, piece,
                                   t.replica, add_edge);
      }
    }
  }
  struct Key {
    int begin, orig, id;
    bool operator>(const Key& o) const {
      if (begin != o.begin) return begin > o.begin;
      return orig > o.orig;
    }
  };
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> ready;
  int scheduled = 0, total = 0;
  for (const Task& t : split.tasks) {
    if (t.type == TaskType::kUpdate) continue;
    ++total;
    if (indegree[t.id] == 0) {
      ready.push(Key{t.group.front().begin, orig_of[t.id], t.id});
    }
  }
  while (!ready.empty()) {
    const Key k = ready.top();
    ready.pop();
    split.device_order[split.task(k.id).device].push_back(k.id);
    ++scheduled;
    for (int dep : dependents[k.id]) {
      if (--indegree[dep] == 0) {
        ready.push(Key{split.task(dep).group.front().begin, orig_of[dep],
                       dep});
      }
    }
  }
  HARMONY_CHECK_EQ(scheduled, total) << "cyclic microbatch dependencies";
  for (const Task& t : split.tasks) {
    if (t.type != TaskType::kUpdate) continue;
    if (t.on_cpu) {
      split.cpu_order[t.device].push_back(t.id);
    } else {
      split.device_order[t.device].push_back(t.id);
    }
  }
  *graph = std::move(split);
}

}  // namespace

int HarmonyTaskDevice(HarmonyMode mode, int num_devices, int replica,
                      int slot) {
  return mode == HarmonyMode::kDataParallel ? replica : slot % num_devices;
}

TaskGraph GenerateHarmonyTaskGraph(const Configuration& config, HarmonyMode mode,
                                   int num_devices, int minibatch,
                                   const OptimizationFlags& flags,
                                   const profile::ProfileDb& profiles) {
  TaskGraph graph;
  GenerateHarmonyTaskGraph(config, mode, num_devices, minibatch, flags,
                           profiles, &graph);
  return graph;
}

void GenerateHarmonyTaskGraph(const Configuration& config, HarmonyMode mode,
                              int num_devices, int minibatch,
                              const OptimizationFlags& flags,
                              const profile::ProfileDb& profiles,
                              TaskGraph* graph) {
  HARMONY_CHECK(graph != nullptr);
  HARMONY_CHECK_GE(num_devices, 1);
  HARMONY_CHECK_GE(minibatch, 1);
  HARMONY_CHECK(!config.bwd_packs.empty());
  const int R = profiles.num_layers();
  const bool dp = mode == HarmonyMode::kDataParallel;
  const int num_replicas = dp ? num_devices : 1;
  // Per-replica minibatch shares (Alg 1 line 2: D <- D/N for DP): the first
  // minibatch % N replicas take one extra sample.
  HARMONY_CHECK_GE(minibatch / num_replicas, 1);
  auto share_of = [&](int r) {
    return minibatch / num_replicas + (r < minibatch % num_replicas ? 1 : 0);
  };

  TaskGraph& g = *graph;
  g.name = HarmonyModeName(mode);
  g.flags = flags;
  g.num_devices = num_devices;
  g.num_replicas = num_replicas;
  g.num_layers = R;
  g.minibatch = minibatch;
  g.u_fwd = config.u_fwd;
  g.u_bwd = config.u_bwd;
  g.grad_reduce_via_host = dp && num_devices > 1;
  g.device_reserved_bytes.assign(num_devices, 0);

  // Resolve the residency policy table (the explicit {keep, swap, recompute}
  // axis). This is the one place an empty Configuration::policy is read: it
  // means the paper's default, recompute everywhere (Sec 4.3.1).
  if (config.policy.empty()) {
    g.stash_policy.AssignUniform(R, StashPolicy::kRecompute);
  } else {
    g.stash_policy = config.policy;
  }
  HARMONY_CHECK_EQ(g.stash_policy.num_layers(), R)
      << "policy table size != model layers";
  const PolicyTable& policy = g.stash_policy;

  // Effective pack lists. With jit-compute the last backward pack's forward
  // runs fused inside the backward task; without it, that pack gets a
  // regular forward task appended to P_F.
  const int num_bwd = static_cast<int>(config.bwd_packs.size());
  const int num_fwd =
      static_cast<int>(config.fwd_packs.size()) + (flags.jit_compute ? 0 : 1);
  auto fwd_pack = [&](int i) -> const Pack& {
    return i < static_cast<int>(config.fwd_packs.size())
               ? config.fwd_packs[i]
               : config.bwd_packs.back();
  };
  // Backward pack j reads its input checkpoint from host when its remat
  // chain starts at the pack input, i.e. the pack's first layer is
  // kRecompute. The fused pack's input streams in instead, boundary 0 is
  // the data loader (already host-resident), and packs whose first layer
  // keeps or swaps its stash need no input checkpoint.
  auto checkpointed = [&](int j) {
    const bool fused = flags.jit_compute && j + 1 == num_bwd;
    const int b = config.bwd_packs[j].lo;
    return !fused && b > 0 && policy.at(b) == StashPolicy::kRecompute;
  };

  // Every task is written in place over the graph's previous tasks, so a
  // regenerated graph reuses their group and checkpoint storage. With CPU
  // offload (or PP) gradients from all replicas reduce into a single master
  // update per pack; otherwise each replica updates its own copy on its GPU.
  const bool single_update_per_pack = flags.cpu_optimizer || !dp;
  const int updates_per_pack = single_update_per_pack ? 1 : num_replicas;
  g.tasks.resize(num_replicas * (num_fwd + num_bwd) +
                 num_bwd * updates_per_pack);
  int next_id = 0;
  auto add_task = [&](TaskType type, const Pack& pack, int device,
                      int replica) -> Task& {
    Task& t = g.tasks[next_id];
    t.id = next_id++;
    t.type = type;
    t.pack = pack;
    t.device = device;
    t.on_cpu = false;
    t.group.clear();
    t.replica = replica;
    t.fused_forward = false;
    t.checkpoint_boundaries.clear();
    t.reads_checkpoint = false;
    return t;
  };

  // Forward and backward tasks, per replica, in wrap-around slot order.
  for (int r = 0; r < num_replicas; ++r) {
    int slot = 0;
    for (int i = 0; i < num_fwd; ++i, ++slot) {
      const Pack& p = fwd_pack(i);
      Task& t = add_task(TaskType::kForward, p,
                         HarmonyTaskDevice(mode, num_devices, r, slot), r);
      AssignMicrobatches(share_of(r), config.u_fwd, &t.group);
      // Checkpoint the input of every later backward pack whose boundary
      // this pack computes (the output of layer b - 1).
      for (int j = 0; j < num_bwd; ++j) {
        const int b = config.bwd_packs[j].lo;
        if (b - 1 >= p.lo && b - 1 <= p.hi && checkpointed(j)) {
          t.checkpoint_boundaries.push_back(b);
        }
      }
    }
    for (int j = num_bwd - 1; j >= 0; --j, ++slot) {
      Task& t = add_task(TaskType::kBackward, config.bwd_packs[j],
                         HarmonyTaskDevice(mode, num_devices, r, slot), r);
      AssignMicrobatches(share_of(r), config.u_bwd, &t.group);
      t.fused_forward = flags.jit_compute && j + 1 == num_bwd;
      t.reads_checkpoint = !t.fused_forward && t.pack.lo > 0 &&
                           policy.at(t.pack.lo) == StashPolicy::kRecompute;
    }
  }

  // Weight-update tasks, one per backward pack (per replica without a
  // single master update), in backward completion order.
  for (int j = num_bwd - 1; j >= 0; --j) {
    const int rev = num_bwd - 1 - j;
    for (int r = 0; r < updates_per_pack; ++r) {
      // PP: the same process as the backward task that produced the
      // gradients, slot num_fwd + rev of replica 0 (Alg 3 line 23).
      const int device =
          dp ? (single_update_per_pack ? rev % num_devices : r)
             : HarmonyTaskDevice(mode, num_devices, 0, num_fwd + rev);
      Task& t = add_task(TaskType::kUpdate, config.bwd_packs[j], device,
                         single_update_per_pack ? -1 : r);
      t.on_cpu = flags.cpu_optimizer;
    }
  }

  g.device_order.resize(num_devices);
  g.cpu_order.resize(num_devices);
  for (std::vector<int>& order : g.device_order) order.clear();
  for (std::vector<int>& order : g.cpu_order) order.clear();
  if (flags.input_batch_grouping) {
    // Grouped execution: each device runs its F/B tasks in creation order.
    for (const Task& t : g.tasks) {
      if (t.type != TaskType::kUpdate) g.device_order[t.device].push_back(t.id);
    }
    PlaceUpdates(&g);
  } else {
    SplitUngrouped(&g);
  }

  // Structural validation is O(tasks x layers) with per-layer sorts — more
  // expensive than estimating the graph. Debug builds validate every graph;
  // release builds rely on explicit ValidateTaskGraph calls at the seams
  // (tests, baselines, search winners) instead of paying it per candidate in
  // the configuration-search inner loop.
#ifndef NDEBUG
  ValidateTaskGraph(g);
#endif
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

void ValidateTaskGraph(const TaskGraph& graph) {
  HARMONY_CHECK_GE(graph.num_devices, 1);
  HARMONY_CHECK_GE(graph.num_layers, 1);
  HARMONY_CHECK_EQ(graph.stash_policy.num_layers(), graph.num_layers)
      << "every task-graph producer fills stash_policy";
  HARMONY_CHECK_EQ(static_cast<int>(graph.device_order.size()), graph.num_devices);

  for (int i = 0; i < graph.num_tasks(); ++i) {
    const Task& t = graph.task(i);
    HARMONY_CHECK_EQ(t.id, i);
    HARMONY_CHECK_GE(t.pack.lo, 0);
    HARMONY_CHECK_LE(t.pack.lo, t.pack.hi);
    HARMONY_CHECK_LT(t.pack.hi, graph.num_layers);
    HARMONY_CHECK_GE(t.device, 0);
    HARMONY_CHECK_LT(t.device, graph.num_devices);
    if (t.type != TaskType::kUpdate) HARMONY_CHECK(!t.group.empty());
  }

  // Per replica: forward-like and backward coverage of (layer, sample) space
  // must each be an exact partition.
  for (int r = 0; r < graph.num_replicas; ++r) {
    // replica share = max sample end seen.
    int share = 0;
    for (const Task& t : graph.tasks) {
      if (t.replica != r || t.group.empty()) continue;
      share = std::max(share, t.group.back().end());
    }
    HARMONY_CHECK_GE(share, 1);
    // coverage[layer] accumulates covered sample counts; overlaps detected
    // via per-layer interval sort.
    auto check_partition = [&](bool backward) {
      std::vector<std::vector<MbPiece>> per_layer(graph.num_layers);
      for (const Task& t : graph.tasks) {
        if (t.replica != r) continue;
        const bool counts = backward
                                ? t.type == TaskType::kBackward
                                : (t.type == TaskType::kForward || t.fused_forward);
        if (!counts) continue;
        for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
          for (const MbPiece& p : t.group) per_layer[l].push_back(p);
        }
      }
      for (int l = 0; l < graph.num_layers; ++l) {
        auto& pieces = per_layer[l];
        std::sort(pieces.begin(), pieces.end(),
                  [](const MbPiece& a, const MbPiece& b) { return a.begin < b.begin; });
        int cursor = 0;
        for (const MbPiece& p : pieces) {
          HARMONY_CHECK_EQ(p.begin, cursor)
              << (backward ? "backward" : "forward") << " coverage gap/overlap at layer "
              << l << " replica " << r;
          cursor = p.end();
        }
        HARMONY_CHECK_EQ(cursor, share)
            << (backward ? "backward" : "forward") << " incomplete at layer " << l;
      }
    };
    check_partition(false);
    check_partition(true);
  }

  // Order lists contain each task exactly once, on the right device.
  std::vector<int> seen(graph.num_tasks(), 0);
  for (int d = 0; d < graph.num_devices; ++d) {
    for (int id : graph.device_order[d]) {
      HARMONY_CHECK_EQ(graph.task(id).device, d);
      HARMONY_CHECK(!graph.task(id).on_cpu);
      ++seen[id];
    }
    if (d < static_cast<int>(graph.cpu_order.size())) {
      for (int id : graph.cpu_order[d]) {
        HARMONY_CHECK_EQ(graph.task(id).device, d);
        HARMONY_CHECK(graph.task(id).on_cpu);
        ++seen[id];
      }
    }
  }
  for (int i = 0; i < graph.num_tasks(); ++i) {
    HARMONY_CHECK_EQ(seen[i], 1) << "task " << i << " order multiplicity";
  }
}

}  // namespace harmony::core
