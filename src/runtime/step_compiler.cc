#include "runtime/step_compiler.h"

#include <algorithm>
#include <set>
#include <span>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace harmony::runtime {

using core::MbPiece;
using core::Task;
using core::TaskType;

StepCompiler::StepCompiler(const hw::MachineSpec& machine,
                           const model::SequentialModel& model,
                           const core::TaskGraph& graph,
                           model::Optimizer optimizer)
    : machine_(machine), model_(model), graph_(graph), cost_(machine.PlanningGpu()) {
  opt_mult_ = model::OptimizerStateBytesPerParamByte(optimizer);
}

void StepCompiler::Precompute() {
  const int R = model_.num_layers();
  boundary_bytes_.assign(R + 1, 0);
  boundary_bytes_[0] = model_.sample_input_bytes;
  stash_bytes_.assign(R, 0);
  for (int l = 0; l < R; ++l) {
    boundary_bytes_[l + 1] = model_.layers[l].boundary_out_bytes();
    stash_bytes_[l] = model_.layers[l].spec.stash_bytes_per_sample +
                      model_.layers[l].relay_bytes_per_sample;
  }

  program_.static_host_bytes = 0;
  for (const auto& layer : model_.layers) {
    program_.static_host_bytes += layer.spec.param_bytes * (1 + opt_mult_);
  }

  act_layout_.assign(graph_.num_replicas,
                     std::vector<std::vector<MbPiece>>(R + 1));
  grad_layout_.assign(graph_.num_replicas,
                      std::vector<std::vector<MbPiece>>(R + 1));
  stash_layout_.assign(graph_.num_replicas,
                       std::vector<std::vector<MbPiece>>(R));
  // Accumulate raw pieces first, then canonicalize each slot once: the
  // sort-after-every-merge variant re-sorted near-sorted vectors O(tasks)
  // times per boundary and dominated compile time on deep models.
  auto merge = [](std::vector<MbPiece>* dst, const std::vector<MbPiece>& src) {
    dst->insert(dst->end(), src.begin(), src.end());
  };
  for (const Task& t : graph_.tasks) {
    if (t.type == TaskType::kForward) {
      for (int b = t.pack.lo + 1; b <= t.pack.hi + 1; ++b) {
        merge(&act_layout_[t.replica][b], t.group);
      }
      // A layer's stash is stored by its forward task unless the policy says
      // the backward rematerializes it (fused packs have no forward task and
      // always rematerialize, so they never reach here).
      for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
        if (graph_.policy_at(l) != core::StashPolicy::kRecompute) {
          merge(&stash_layout_[t.replica][l], t.group);
        }
      }
    } else if (t.type == TaskType::kBackward) {
      grad_layout_[t.replica][t.pack.lo] = t.group;
    }
  }
  auto canonicalize = [](std::vector<std::vector<MbPiece>>& slots) {
    for (std::vector<MbPiece>& dst : slots) {
      std::sort(dst.begin(), dst.end(), [](const MbPiece& a, const MbPiece& b) {
        return a.begin < b.begin;
      });
      dst.erase(std::unique(dst.begin(), dst.end(),
                            [](const MbPiece& a, const MbPiece& b) {
                              return a.begin == b.begin;
                            }),
                dst.end());
    }
  };
  for (auto& per_replica : act_layout_) canonicalize(per_replica);
  for (auto& per_replica : stash_layout_) canonicalize(per_replica);
}

StepCompiler::Draft& StepCompiler::Begin(int task, TimeSec compute) {
  draft_.task = task;
  draft_.compute = compute;
  draft_.needs.clear();
  draft_.produces.clear();
  draft_.derefs.clear();
  draft_.copy_to_host.clear();
  draft_.move_to_host.clear();
  draft_.mark_dirty.clear();
  return draft_;
}

void StepCompiler::Emit(int d) {
  auto append = [](auto* pool, const auto& list) {
    pool->insert(pool->end(), list.begin(), list.end());
    return static_cast<uint32_t>(list.size());
  };
  Extent x;
  x.needs = append(&program_.need_pool, draft_.needs);
  x.produces = append(&program_.produce_pool, draft_.produces);
  x.derefs = append(&program_.id_pool, draft_.derefs);
  x.copy = append(&program_.id_pool, draft_.copy_to_host);
  x.move = append(&program_.id_pool, draft_.move_to_host);
  x.dirty = append(&program_.id_pool, draft_.mark_dirty);
  extents_.push_back(x);
  Step s;
  s.task = draft_.task;
  s.compute = draft_.compute;
  program_.steps[d].push_back(s);
}

void StepCompiler::BindSpans() {
  const NeedSpec* needs = program_.need_pool.data();
  const ProduceSpec* produces = program_.produce_pool.data();
  const TensorId* ids = program_.id_pool.data();
  auto take = [](auto*& cursor, uint32_t n) {
    std::span<std::remove_reference_t<decltype(*cursor)>> out(cursor, n);
    cursor += n;
    return out;
  };
  size_t e = 0;
  for (auto& dev : program_.steps) {
    for (Step& s : dev) {
      const Extent& x = extents_[e++];
      s.needs = take(needs, x.needs);
      s.produces = take(produces, x.produces);
      s.derefs = take(ids, x.derefs);
      s.copy_to_host = take(ids, x.copy);
      s.move_to_host = take(ids, x.move);
      s.mark_dirty = take(ids, x.dirty);
    }
  }
}

void StepCompiler::ConsumeBoundaryInput(int boundary, int replica,
                                        const MbPiece& piece, bool from_host) {
  if (boundary_bytes_[boundary] == 0) return;
  auto consume = [&](int begin, int size) {
    const TensorId id =
        Id(TensorKey{TensorKind::kActivation, boundary, begin, replica});
    draft_.needs.push_back(NeedSpec{
        id, static_cast<Bytes>(size) * boundary_bytes_[boundary], from_host});
    draft_.derefs.push_back(id);
  };
  if (boundary == 0 || act_layout_[replica][boundary].empty()) {
    // Data loader (or an unproduced boundary, which AutoCreate rejects):
    // keyed at consumer granularity.
    consume(piece.begin, piece.size);
    return;
  }
  bool any = false;
  for (const MbPiece& p : act_layout_[replica][boundary]) {
    if (!p.Overlaps(piece)) continue;
    consume(p.begin, p.size);
    any = true;
  }
  HARMONY_CHECK(any) << "no producer pieces for boundary " << boundary;
}

void StepCompiler::ConsumeStash(int layer, int replica, const MbPiece& piece) {
  if (stash_bytes_[layer] == 0) return;
  HARMONY_CHECK(!stash_layout_[replica][layer].empty())
      << "backward without recompute needs stash of layer " << layer;
  // Swapped-out stash lives host-side only (the forward's move released the
  // GPU copy); consumers must pull it back through the host channel.
  const bool swapped = graph_.policy_at(layer) == core::StashPolicy::kSwap;
  for (const MbPiece& p : stash_layout_[replica][layer]) {
    if (!p.Overlaps(piece)) continue;
    const TensorId id = Id(TensorKey{TensorKind::kStash, layer, p.begin, replica});
    draft_.needs.push_back(NeedSpec{
        id, static_cast<Bytes>(p.size) * stash_bytes_[layer], swapped});
    draft_.derefs.push_back(id);
  }
}

void StepCompiler::CompileForward(const Task& t) {
  const int d = t.device;
  for (const MbPiece& piece : t.group) {
    for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
      Draft& s = Begin(t.id, cost_.FwdTime(model_.layers[l].spec, piece.size));
      const Bytes params = model_.layers[l].spec.param_bytes;
      if (params > 0) {
        s.needs.push_back(
            NeedSpec{Id(TensorKey{TensorKind::kWeight, l, -1, d}), params});
      }
      if (l == t.pack.lo) {
        ConsumeBoundaryInput(l, t.replica, piece, /*from_host=*/false);
      } else if (boundary_bytes_[l] > 0) {
        const TensorId in =
            Id(TensorKey{TensorKind::kActivation, l, piece.begin, t.replica});
        s.needs.push_back(
            NeedSpec{in, static_cast<Bytes>(piece.size) * boundary_bytes_[l]});
        s.derefs.push_back(in);
      }
      if (boundary_bytes_[l + 1] > 0) {
        const TensorId out = Id(
            TensorKey{TensorKind::kActivation, l + 1, piece.begin, t.replica});
        s.produces.push_back(ProduceSpec{
            out, static_cast<Bytes>(piece.size) * boundary_bytes_[l + 1]});
        if (std::find(t.checkpoint_boundaries.begin(),
                      t.checkpoint_boundaries.end(),
                      l + 1) != t.checkpoint_boundaries.end()) {
          s.copy_to_host.push_back(out);
        }
      }
      const core::StashPolicy pol = graph_.policy_at(l);
      if (pol != core::StashPolicy::kRecompute && stash_bytes_[l] > 0) {
        const TensorId st =
            Id(TensorKey{TensorKind::kStash, l, piece.begin, t.replica});
        s.produces.push_back(ProduceSpec{
            st, static_cast<Bytes>(piece.size) * stash_bytes_[l]});
        if (pol == core::StashPolicy::kSwap) {
          // vDNN-style offload: release the GPU copy as soon as the move
          // lands; the backward fetches it back through the host channel.
          s.move_to_host.push_back(st);
        }
      }
      Emit(d);
    }
  }
}

void StepCompiler::CompileBackward(const Task& t) {
  const int d = t.device;
  const int R = model_.num_layers();
  // Per-layer rematerialization: a fused jit-compute task re-runs its whole
  // pack; otherwise only the layers the residency policy marked kRecompute.
  auto remat_layer = [&](int l) {
    return t.fused_forward ||
           graph_.policy_at(l) == core::StashPolicy::kRecompute;
  };
  const bool push_grads =
      graph_.flags.cpu_optimizer || graph_.grad_reduce_via_host;

  for (size_t pi = 0; pi < t.group.size(); ++pi) {
    const MbPiece& piece = t.group[pi];
    const bool first_piece = pi == 0;
    const bool last_piece = pi + 1 == t.group.size();
    // Rematerialization chain (or the fused jit-compute forward): re-run the
    // forward of every remat layer, feeding each from the stash below it —
    // remat-produced (this piece's granularity) or stored (forward-piece
    // granularity) — and the pack input (checkpoint) at the pack start.
    for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
      if (!remat_layer(l)) continue;
      Draft& s = Begin(t.id, cost_.FwdTime(model_.layers[l].spec, piece.size));
      const Bytes params = model_.layers[l].spec.param_bytes;
      if (params > 0) {
        s.needs.push_back(
            NeedSpec{Id(TensorKey{TensorKind::kWeight, l, -1, d}), params});
      }
      if (l == t.pack.lo) {
        // A checkpoint read takes the message-passing channel.
        ConsumeBoundaryInput(l, t.replica, piece, t.reads_checkpoint);
      } else if (remat_layer(l - 1)) {
        if (stash_bytes_[l - 1] > 0) {
          const TensorId in =
              Id(TensorKey{TensorKind::kStash, l - 1, piece.begin, t.replica});
          s.needs.push_back(
              NeedSpec{in, static_cast<Bytes>(piece.size) * stash_bytes_[l - 1]});
          s.derefs.push_back(in);
        }
      } else {
        // Mixed table: the remat chain restarts above a stored layer.
        ConsumeStash(l - 1, t.replica, piece);
      }
      if (stash_bytes_[l] > 0) {
        s.produces.push_back(ProduceSpec{
            Id(TensorKey{TensorKind::kStash, l, piece.begin, t.replica}),
            static_cast<Bytes>(piece.size) * stash_bytes_[l]});
      }
      Emit(d);
    }
    for (int l = t.pack.hi; l >= t.pack.lo; --l) {
      Draft& s = Begin(t.id, cost_.BwdTime(model_.layers[l].spec, piece.size));
      const Bytes params = model_.layers[l].spec.param_bytes;
      if (params > 0) {
        s.needs.push_back(
            NeedSpec{Id(TensorKey{TensorKind::kWeight, l, -1, d}), params});
        const TensorId g = Id(TensorKey{TensorKind::kGrad, l, -1, t.replica});
        if (first_piece) {
          s.produces.push_back(ProduceSpec{g, params});
        } else {
          s.needs.push_back(NeedSpec{g, params});
        }
        s.mark_dirty.push_back(g);
      }
      // Stashed activations of this layer (rematerialized or fetched).
      if (remat_layer(l)) {
        if (stash_bytes_[l] > 0) {
          const TensorId st =
              Id(TensorKey{TensorKind::kStash, l, piece.begin, t.replica});
          s.needs.push_back(
              NeedSpec{st, static_cast<Bytes>(piece.size) * stash_bytes_[l]});
          s.derefs.push_back(st);
        }
      } else {
        ConsumeStash(l, t.replica, piece);
      }
      // Incoming gradient dA(l+1).
      if (l == t.pack.hi) {
        if (t.pack.hi + 1 <= R - 1 && boundary_bytes_[l + 1] > 0) {
          for (const MbPiece& p : grad_layout_[t.replica][l + 1]) {
            if (!p.Overlaps(piece)) continue;
            const TensorId gin =
                Id(TensorKey{TensorKind::kGradAct, l + 1, p.begin, t.replica});
            s.needs.push_back(NeedSpec{
                gin, static_cast<Bytes>(p.size) * boundary_bytes_[l + 1]});
            s.derefs.push_back(gin);
          }
        }
      } else if (boundary_bytes_[l + 1] > 0) {
        const TensorId gin =
            Id(TensorKey{TensorKind::kGradAct, l + 1, piece.begin, t.replica});
        s.needs.push_back(
            NeedSpec{gin, static_cast<Bytes>(piece.size) * boundary_bytes_[l + 1]});
        s.derefs.push_back(gin);
      }
      // Outgoing gradient dA(l) (none for the model input).
      if (l > 0 && boundary_bytes_[l] > 0) {
        s.produces.push_back(ProduceSpec{
            Id(TensorKey{TensorKind::kGradAct, l, piece.begin, t.replica}),
            static_cast<Bytes>(piece.size) * boundary_bytes_[l]});
      }
      // The group's last step pushes the accumulated gradients to host when
      // the update runs on CPU or gradients reduce across replicas.
      if (push_grads && last_piece && l == t.pack.lo) {
        for (int gl = t.pack.lo; gl <= t.pack.hi; ++gl) {
          if (model_.layers[gl].spec.param_bytes > 0) {
            s.move_to_host.push_back(
                Id(TensorKey{TensorKind::kGrad, gl, -1, t.replica}));
          }
        }
      }
      Emit(d);
    }
  }
}

void StepCompiler::CompileGpuUpdate(const Task& t) {
  const int d = t.device;
  const int replica = std::max(t.replica, 0);
  bool any = false;
  // One step per layer: an update of a pack larger than GPU memory must
  // stream layer by layer, exactly like forward/backward execution.
  for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
    const Bytes params = model_.layers[l].spec.param_bytes;
    if (params == 0) continue;
    Draft& s = Begin(t.id, cost_.GpuUpdateTime(model_.layers[l].spec));
    const TensorId w = Id(TensorKey{TensorKind::kWeight, l, -1, d});
    const TensorId g = Id(TensorKey{TensorKind::kGrad, l, -1, replica});
    const TensorId o = Id(TensorKey{TensorKind::kOptState, l, -1, d});
    s.needs.push_back(NeedSpec{w, params});
    s.needs.push_back(NeedSpec{g, params});
    s.needs.push_back(NeedSpec{o, opt_state_bytes(l)});
    s.mark_dirty.push_back(w);
    s.mark_dirty.push_back(o);
    s.copy_to_host.push_back(w);   // master write-back; cached copy stays
    s.move_to_host.push_back(o);   // persists on host for the next iteration
    s.derefs.push_back(g);
    Emit(d);
    any = true;
  }
  if (!any) {
    // Pack with no parameters at all: still emit an empty step so the task
    // completes and dependents unblock.
    Begin(t.id, 0);
    Emit(d);
  }
}

void StepCompiler::CompileCpuUpdate(const Task& t,
                                    const core::DepResolver& deps) {
  CpuStep s;
  s.task = t.id;
  const auto producers = deps.BackwardTasksForPack(t.pack, t.replica);
  std::set<int> replicas;
  for (int pid : producers) replicas.insert(graph_.task(pid).replica);
  const int nrep = std::max<int>(1, replicas.size());
  for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
    const Bytes params = model_.layers[l].spec.param_bytes;
    if (params == 0) continue;
    s.duration += static_cast<double>(params) * (2.0 + nrep) /
                  machine_.cpu_update_bw;
    for (int r : replicas) {
      const TensorId g = Id(TensorKey{TensorKind::kGrad, l, -1, r});
      s.host_needs.push_back(g);
      s.host_frees.push_back(g);
    }
  }
  // Gradients are only final once their backward tasks complete (an eviction
  // can land a partial gradient on host earlier).
  s.wait_tasks.insert(s.wait_tasks.end(), producers.begin(), producers.end());
  if (!graph_.flags.jit_update) {
    for (int r = 0; r < graph_.num_replicas; ++r) {
      if (t.replica >= 0 && r != t.replica) continue;
      const auto& all = deps.AllBackwardTasks(r);
      s.wait_tasks.insert(s.wait_tasks.end(), all.begin(), all.end());
    }
  }
  program_.cpu_steps[t.device].push_back(std::move(s));
}

void StepCompiler::ComputeRefs() {
  program_.ref_counts.assign(program_.tensors.size(), 0);
  for (const auto& dev : program_.steps) {
    for (const Step& s : dev) {
      for (const TensorId id : s.derefs) ++program_.ref_counts[id];
    }
  }
}

StepProgram StepCompiler::Compile() {
  Precompute();
  program_.steps.assign(graph_.num_devices, {});
  program_.cpu_steps.assign(graph_.num_devices, {});
  // One dependency index for every CPU update: building it per update made
  // compile O(tasks x CPU updates).
  const core::DepResolver deps(graph_);
  for (int d = 0; d < graph_.num_devices; ++d) {
    for (int id : graph_.device_order[d]) {
      const Task& t = graph_.task(id);
      switch (t.type) {
        case TaskType::kForward: CompileForward(t); break;
        case TaskType::kBackward: CompileBackward(t); break;
        case TaskType::kUpdate: CompileGpuUpdate(t); break;
      }
    }
    if (static_cast<size_t>(d) < graph_.cpu_order.size()) {
      for (int id : graph_.cpu_order[d]) {
        CompileCpuUpdate(graph_.task(id), deps);
      }
    }
  }
  BindSpans();
  ComputeRefs();

  program_.task_step_counts.assign(graph_.num_tasks(), 0);
  for (const auto& dev : program_.steps) {
    for (const Step& s : dev) ++program_.task_step_counts[s.task];
  }
  for (const auto& proc : program_.cpu_steps) {
    for (const CpuStep& s : proc) ++program_.task_step_counts[s.task];
  }
  return std::move(program_);
}

// ---------------------------------------------------------------------------
// Debug renderings
// ---------------------------------------------------------------------------

namespace {

void AppendKeys(std::string* out, const char* tag,
                std::span<const TensorId> ids, const TensorCatalog& tensors) {
  if (ids.empty()) return;
  *out += " ";
  *out += tag;
  *out += "=[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i) *out += " ";
    *out += tensors.key(ids[i]).ToString();
  }
  *out += "]";
}

}  // namespace

std::string DebugString(const Step& s, const TensorCatalog& tensors) {
  std::string out = "t" + std::to_string(s.task);
  out += " needs=[";
  for (size_t i = 0; i < s.needs.size(); ++i) {
    if (i) out += " ";
    out += tensors.key(s.needs[i].id).ToString() + ":" +
           std::to_string(s.needs[i].bytes);
    if (s.needs[i].from_host) out += "@host";
  }
  out += "] produces=[";
  for (size_t i = 0; i < s.produces.size(); ++i) {
    if (i) out += " ";
    out += tensors.key(s.produces[i].id).ToString() + ":" +
           std::to_string(s.produces[i].bytes);
  }
  out += "]";
  AppendKeys(&out, "derefs", s.derefs, tensors);
  AppendKeys(&out, "copy", s.copy_to_host, tensors);
  AppendKeys(&out, "move", s.move_to_host, tensors);
  AppendKeys(&out, "dirty", s.mark_dirty, tensors);
  return out;
}

std::string DebugString(const CpuStep& s, const TensorCatalog& tensors) {
  std::string out = "t" + std::to_string(s.task) + " cpu";
  AppendKeys(&out, "host_needs", s.host_needs, tensors);
  AppendKeys(&out, "host_frees", s.host_frees, tensors);
  if (!s.wait_tasks.empty()) {
    out += " waits=[";
    for (size_t i = 0; i < s.wait_tasks.size(); ++i) {
      if (i) out += " ";
      out += "t" + std::to_string(s.wait_tasks[i]);
    }
    out += "]";
  }
  return out;
}

}  // namespace harmony::runtime
