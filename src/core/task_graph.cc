#include "core/task_graph.h"

#include <algorithm>
#include <map>
#include <numeric>
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

std::vector<MbPiece> SplitMicrobatches(int total, int u) {
  HARMONY_CHECK_GE(total, 1);
  HARMONY_CHECK_GE(u, 1);
  std::vector<MbPiece> pieces;
  for (int begin = 0; begin < total; begin += u) {
    pieces.push_back(MbPiece{begin, std::min(u, total - begin)});
  }
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

struct PendingTask {
  Task task;
  int orig_seq = 0;  // creation order, used as the grouped execution order
};

/// Shared generation machinery: also reused by the baseline generators via
/// BuildOrders (exposed through task_graph_internal.h if ever needed).
void BuildOrders(TaskGraph* graph, bool grouped) {
  graph->device_order.assign(graph->num_devices, {});
  graph->cpu_order.assign(graph->num_devices, {});
  struct Key {
    int begin;
    int seq;
    int id;
  };
  std::vector<Key> keys;
  keys.reserve(graph->tasks.size());
  for (const Task& t : graph->tasks) {
    if (t.type == TaskType::kUpdate) continue;
    const int begin = t.group.empty() ? 0 : t.group.front().begin;
    keys.push_back(Key{grouped ? 0 : begin, t.id, t.id});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.seq < b.seq;
  });
  for (const Key& k : keys) {
    graph->device_order[graph->task(k.id).device].push_back(k.id);
  }
}

/// Places update tasks into the device/cpu order lists. With jit updates and
/// grouped execution, a GPU update slots in right after its pack's backward
/// task; otherwise updates trail the iteration.
void PlaceUpdates(TaskGraph* graph, bool grouped) {
  for (const Task& t : graph->tasks) {
    if (t.type != TaskType::kUpdate) continue;
    if (t.on_cpu) {
      graph->cpu_order[t.device].push_back(t.id);
      continue;
    }
    auto& order = graph->device_order[t.device];
    if (graph->flags.jit_update && grouped) {
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

}  // namespace

int HarmonyTaskDevice(HarmonyMode mode, int num_devices, int replica,
                      int slot) {
  return mode == HarmonyMode::kDataParallel ? replica : slot % num_devices;
}

TaskGraph GenerateHarmonyTaskGraph(const Configuration& config, HarmonyMode mode,
                                   int num_devices, int minibatch,
                                   const OptimizationFlags& flags,
                                   const profile::ProfileDb& profiles) {
  HARMONY_CHECK_GE(num_devices, 1);
  HARMONY_CHECK_GE(minibatch, 1);
  HARMONY_CHECK(!config.bwd_packs.empty());
  const int R = profiles.num_layers();
  const bool dp = mode == HarmonyMode::kDataParallel;
  const int num_replicas = dp ? num_devices : 1;

  TaskGraph g;
  g.name = std::string(HarmonyModeName(mode));
  g.flags = flags;
  g.num_devices = num_devices;
  g.num_replicas = num_replicas;
  g.num_layers = R;
  g.minibatch = minibatch;
  g.u_fwd = config.u_fwd;
  g.u_bwd = config.u_bwd;
  g.grad_reduce_via_host = dp && num_devices > 1;
  g.device_reserved_bytes.assign(num_devices, 0);

  // Effective pack lists. With jit-compute the last backward pack's forward
  // runs fused inside the backward task; without it, that pack gets a
  // regular forward task appended to P_F.
  PackList fwd_packs = config.fwd_packs;
  const Pack last_bwd = config.bwd_packs.back();
  if (!flags.jit_compute) fwd_packs.push_back(last_bwd);

  // Resolve the residency policy table (the explicit {keep, swap, recompute}
  // axis). This is the one place an empty Configuration::policy is read: it
  // means the paper's default, recompute everywhere (Sec 4.3.1).
  PolicyTable policy = config.policy;
  if (policy.empty()) policy = PolicyTable::Uniform(R, StashPolicy::kRecompute);
  HARMONY_CHECK_EQ(policy.num_layers(), R)
      << "policy table size != model layers";
  g.stash_policy = policy;

  // Checkpoint boundaries: inputs of every backward pack whose remat chain
  // starts at the pack input — i.e. the pack's first layer is kRecompute —
  // will be read from host (fused pack's input streams in instead).
  // Boundary 0 is the data loader (already host-resident). Packs whose
  // first layer keeps or swaps its stash need no input checkpoint.
  std::vector<int> ckpt_boundaries;
  for (size_t j = 0; j < config.bwd_packs.size(); ++j) {
    const bool fused = flags.jit_compute && j + 1 == config.bwd_packs.size();
    const int b = config.bwd_packs[j].lo;
    if (!fused && b > 0 && policy.at(b) == StashPolicy::kRecompute) {
      ckpt_boundaries.push_back(b);
    }
  }

  // Per-replica minibatch shares (Alg 1 line 2: D <- D/N for DP).
  std::vector<int> shares(num_replicas, minibatch / num_replicas);
  for (int r = 0; r < minibatch % num_replicas; ++r) ++shares[r];
  for (int s : shares) HARMONY_CHECK_GE(s, 1);

  auto add_task = [&g](Task t) {
    t.id = g.num_tasks();
    g.tasks.push_back(std::move(t));
    return g.tasks.back().id;
  };

  // Forward and backward tasks, per replica.
  std::vector<std::vector<int>> bwd_ids(num_replicas);
  for (int r = 0; r < num_replicas; ++r) {
    const auto fwd_pieces = SplitMicrobatches(shares[r], config.u_fwd);
    const auto bwd_pieces = SplitMicrobatches(shares[r], config.u_bwd);
    int slot = 0;  // wrap-around slot counter (F and B tasks only)
    for (const Pack& p : fwd_packs) {
      Task t;
      t.type = TaskType::kForward;
      t.pack = p;
      t.device = HarmonyTaskDevice(mode, num_devices, r, slot);
      t.group = fwd_pieces;
      t.replica = r;
      for (int b : ckpt_boundaries) {
        if (b - 1 >= p.lo && b - 1 <= p.hi) t.checkpoint_boundaries.push_back(b);
      }
      add_task(std::move(t));
      ++slot;
    }
    for (int j = static_cast<int>(config.bwd_packs.size()) - 1; j >= 0; --j) {
      Task t;
      t.type = TaskType::kBackward;
      t.pack = config.bwd_packs[j];
      t.device = HarmonyTaskDevice(mode, num_devices, r, slot);
      t.group = bwd_pieces;
      t.replica = r;
      t.fused_forward =
          flags.jit_compute && j + 1 == static_cast<int>(config.bwd_packs.size());
      t.reads_checkpoint = !t.fused_forward && t.pack.lo > 0 &&
                           policy.at(t.pack.lo) == StashPolicy::kRecompute;
      bwd_ids[r].push_back(add_task(std::move(t)));
      ++slot;
    }
  }

  // Weight-update tasks, one per backward pack, in backward completion order.
  // With CPU offload (or DP) gradients from all replicas reduce into a single
  // master update; otherwise each replica updates its own copy on its GPU.
  const bool single_update_per_pack = flags.cpu_optimizer || !dp;
  for (int j = static_cast<int>(config.bwd_packs.size()) - 1; j >= 0; --j) {
    const int rev = static_cast<int>(config.bwd_packs.size()) - 1 - j;
    for (int r = 0; r < (single_update_per_pack ? 1 : num_replicas); ++r) {
      Task t;
      t.type = TaskType::kUpdate;
      t.pack = config.bwd_packs[j];
      t.on_cpu = flags.cpu_optimizer;
      t.replica = single_update_per_pack ? -1 : r;
      if (dp) {
        t.device = single_update_per_pack ? rev % num_devices : r;
      } else {
        // Same process as the backward task that produced the gradients
        // (Alg 3 line 23).
        t.device = g.task(bwd_ids[0][rev]).device;
      }
      add_task(std::move(t));
    }
  }

  BuildOrders(&g, flags.input_batch_grouping);
  PlaceUpdates(&g, flags.input_batch_grouping);

  // Without grouping, F/B tasks split into one task per microbatch so the
  // device interleaves packs microbatch-major (the pre-Harmony execution
  // style that causes repeated swaps).
  if (!flags.input_batch_grouping) {
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
    g = std::move(split);
  }

  // Structural validation is O(tasks x layers) with per-layer sorts — more
  // expensive than estimating the graph. Debug builds validate every graph;
  // release builds rely on explicit ValidateTaskGraph calls at the seams
  // (tests, baselines, search winners) instead of paying it per candidate in
  // the configuration-search inner loop.
#ifndef NDEBUG
  ValidateTaskGraph(g);
#endif
  return g;
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
