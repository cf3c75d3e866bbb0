#include "runtime/step_compiler.h"

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace harmony::runtime {

using core::MbPiece;
using core::Task;
using core::TaskType;

namespace {

/// Grows a [replica][slot] piece layout to at least `replicas` x `slots`
/// and empties every slot, keeping all storage: a larger graph's extra slots
/// stay, empty, for the next one.
void ResetLayout(std::vector<std::vector<std::vector<MbPiece>>>* layout,
                 int replicas, int slots) {
  if (layout->size() < static_cast<size_t>(replicas)) layout->resize(replicas);
  for (std::vector<std::vector<MbPiece>>& per_replica : *layout) {
    if (per_replica.size() < static_cast<size_t>(slots)) {
      per_replica.resize(slots);
    }
    for (std::vector<MbPiece>& slot : per_replica) slot.clear();
  }
}

}  // namespace

StepCompiler::StepCompiler(const hw::MachineSpec& machine,
                           const model::SequentialModel& model,
                           const core::TaskGraph& graph,
                           model::Optimizer optimizer)
    : machine_(&machine), model_(&model), graph_(&graph),
      optimizer_(optimizer) {}

void StepCompiler::Precompute() {
  const int R = model_->num_layers();
  boundary_bytes_.assign(R + 1, 0);
  boundary_bytes_[0] = model_->sample_input_bytes;
  stash_bytes_.assign(R, 0);
  for (int l = 0; l < R; ++l) {
    boundary_bytes_[l + 1] = model_->layers[l].boundary_out_bytes();
    stash_bytes_[l] = model_->layers[l].spec.stash_bytes_per_sample +
                      model_->layers[l].relay_bytes_per_sample;
  }

  program_.static_host_bytes = 0;
  for (const auto& layer : model_->layers) {
    program_.static_host_bytes += layer.spec.param_bytes * (1 + opt_mult_);
  }

  ResetLayout(&act_layout_, graph_->num_replicas, R + 1);
  ResetLayout(&grad_layout_, graph_->num_replicas, R + 1);
  ResetLayout(&stash_layout_, graph_->num_replicas, R);
  // Accumulate raw pieces first, then canonicalize each slot once: the
  // sort-after-every-merge variant re-sorted near-sorted vectors O(tasks)
  // times per boundary and dominated compile time on deep models.
  auto merge = [](std::vector<MbPiece>* dst, const std::vector<MbPiece>& src) {
    dst->insert(dst->end(), src.begin(), src.end());
  };
  for (const Task& t : graph_->tasks) {
    if (t.type == TaskType::kForward) {
      for (int b = t.pack.lo + 1; b <= t.pack.hi + 1; ++b) {
        merge(&act_layout_[t.replica][b], t.group);
      }
      // A layer's stash is stored by its forward task unless the policy says
      // the backward rematerializes it (fused packs have no forward task and
      // always rematerialize, so they never reach here).
      for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
        if (graph_->policy_at(l) != core::StashPolicy::kRecompute) {
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
  const TensorId* cpu_ids = program_.cpu_id_pool.data();
  const int* waits = program_.wait_pool.data();
  e = 0;
  for (auto& proc : program_.cpu_steps) {
    for (CpuStep& s : proc) {
      const CpuExtent& x = cpu_extents_[e++];
      // The gradients an update needs on host are the ones it consumes.
      s.host_needs = take(cpu_ids, x.needs);
      s.host_frees = s.host_needs;
      s.wait_tasks = take(waits, x.waits);
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
  const bool swapped = graph_->policy_at(layer) == core::StashPolicy::kSwap;
  for (const MbPiece& p : stash_layout_[replica][layer]) {
    if (!p.Overlaps(piece)) continue;
    const TensorId id = Id(TensorKey{TensorKind::kStash, layer, p.begin, replica});
    draft_.needs.push_back(NeedSpec{
        id, static_cast<Bytes>(p.size) * stash_bytes_[layer], swapped});
    draft_.derefs.push_back(id);
  }
}

TensorId StepCompiler::WeightId(int l) {
  TensorId& id = task_weights_[l - task_lo_];
  if (id == kInvalidTensorId) {
    id = Id(TensorKey{TensorKind::kWeight, l, -1, task_device_});
  }
  return id;
}

TensorId StepCompiler::GradId(int l) {
  TensorId& id = task_grads_[l - task_lo_];
  if (id == kInvalidTensorId) {
    id = Id(TensorKey{TensorKind::kGrad, l, -1, task_replica_});
  }
  return id;
}

void StepCompiler::BeginTask(const Task& t, int replica) {
  task_device_ = t.device;
  task_replica_ = replica;
  task_lo_ = t.pack.lo;
  const size_t layers = static_cast<size_t>(t.pack.hi - t.pack.lo + 1);
  task_weights_.assign(layers, kInvalidTensorId);
  task_grads_.assign(layers, kInvalidTensorId);
  task_stash_.assign(layers, kInvalidTensorId);
}

void StepCompiler::CompileForward(const Task& t) {
  const int d = t.device;
  BeginTask(t, t.replica);
  for (const MbPiece& piece : t.group) {
    // Layer l's output, which layer l + 1 of the same piece consumes.
    TensorId chain = kInvalidTensorId;
    for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
      Draft& s = Begin(t.id, cost_->FwdTime(model_->layers[l].spec, piece.size));
      const Bytes params = model_->layers[l].spec.param_bytes;
      if (params > 0) s.needs.push_back(NeedSpec{WeightId(l), params});
      if (l == t.pack.lo) {
        ConsumeBoundaryInput(l, t.replica, piece, /*from_host=*/false);
      } else if (boundary_bytes_[l] > 0) {
        const TensorId in = chain;
        HARMONY_DCHECK_EQ(in, program_.tensors.Find(TensorKey{
                                  TensorKind::kActivation, l, piece.begin,
                                  t.replica}));
        s.needs.push_back(
            NeedSpec{in, static_cast<Bytes>(piece.size) * boundary_bytes_[l]});
        s.derefs.push_back(in);
      }
      if (boundary_bytes_[l + 1] > 0) {
        const TensorId out = Id(
            TensorKey{TensorKind::kActivation, l + 1, piece.begin, t.replica});
        chain = out;
        s.produces.push_back(ProduceSpec{
            out, static_cast<Bytes>(piece.size) * boundary_bytes_[l + 1]});
        if (std::find(t.checkpoint_boundaries.begin(),
                      t.checkpoint_boundaries.end(),
                      l + 1) != t.checkpoint_boundaries.end()) {
          s.copy_to_host.push_back(out);
        }
      }
      const core::StashPolicy pol = graph_->policy_at(l);
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
  const int R = model_->num_layers();
  // Per-layer rematerialization: a fused jit-compute task re-runs its whole
  // pack; otherwise only the layers the residency policy marked kRecompute.
  auto remat_layer = [&](int l) {
    return t.fused_forward ||
           graph_->policy_at(l) == core::StashPolicy::kRecompute;
  };
  const bool push_grads =
      graph_->flags.cpu_optimizer || graph_->grad_reduce_via_host;

  BeginTask(t, t.replica);
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
      Draft& s = Begin(t.id, cost_->FwdTime(model_->layers[l].spec, piece.size));
      const Bytes params = model_->layers[l].spec.param_bytes;
      if (params > 0) s.needs.push_back(NeedSpec{WeightId(l), params});
      if (l == t.pack.lo) {
        // A checkpoint read takes the message-passing channel.
        ConsumeBoundaryInput(l, t.replica, piece, t.reads_checkpoint);
      } else if (remat_layer(l - 1)) {
        if (stash_bytes_[l - 1] > 0) {
          // Rematerialized just above, in this piece.
          const TensorId in = task_stash_[l - 1 - t.pack.lo];
          s.needs.push_back(
              NeedSpec{in, static_cast<Bytes>(piece.size) * stash_bytes_[l - 1]});
          s.derefs.push_back(in);
        }
      } else {
        // Mixed table: the remat chain restarts above a stored layer.
        ConsumeStash(l - 1, t.replica, piece);
      }
      if (stash_bytes_[l] > 0) {
        const TensorId out =
            Id(TensorKey{TensorKind::kStash, l, piece.begin, t.replica});
        task_stash_[l - t.pack.lo] = out;
        s.produces.push_back(ProduceSpec{
            out, static_cast<Bytes>(piece.size) * stash_bytes_[l]});
      }
      Emit(d);
    }
    // Layer l's outgoing gradient, which layer l - 1 of the same piece
    // consumes.
    TensorId chain = kInvalidTensorId;
    for (int l = t.pack.hi; l >= t.pack.lo; --l) {
      Draft& s = Begin(t.id, cost_->BwdTime(model_->layers[l].spec, piece.size));
      const Bytes params = model_->layers[l].spec.param_bytes;
      if (params > 0) {
        s.needs.push_back(NeedSpec{WeightId(l), params});
        const TensorId g = GradId(l);
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
          const TensorId st = task_stash_[l - t.pack.lo];
          HARMONY_DCHECK_EQ(st, program_.tensors.Find(TensorKey{
                                    TensorKind::kStash, l, piece.begin,
                                    t.replica}));
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
        const TensorId gin = chain;
        HARMONY_DCHECK_EQ(gin, program_.tensors.Find(TensorKey{
                                   TensorKind::kGradAct, l + 1, piece.begin,
                                   t.replica}));
        s.needs.push_back(
            NeedSpec{gin, static_cast<Bytes>(piece.size) * boundary_bytes_[l + 1]});
        s.derefs.push_back(gin);
      }
      // Outgoing gradient dA(l) (none for the model input).
      if (l > 0 && boundary_bytes_[l] > 0) {
        chain = Id(TensorKey{TensorKind::kGradAct, l, piece.begin, t.replica});
        s.produces.push_back(ProduceSpec{
            chain, static_cast<Bytes>(piece.size) * boundary_bytes_[l]});
      }
      // The group's last step pushes the accumulated gradients to host when
      // the update runs on CPU or gradients reduce across replicas.
      if (push_grads && last_piece && l == t.pack.lo) {
        for (int gl = t.pack.lo; gl <= t.pack.hi; ++gl) {
          if (model_->layers[gl].spec.param_bytes > 0) {
            s.move_to_host.push_back(GradId(gl));
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
  BeginTask(t, replica);
  bool any = false;
  // One step per layer: an update of a pack larger than GPU memory must
  // stream layer by layer, exactly like forward/backward execution.
  for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
    const Bytes params = model_->layers[l].spec.param_bytes;
    if (params == 0) continue;
    Draft& s = Begin(t.id, cost_->GpuUpdateTime(model_->layers[l].spec));
    const TensorId w = WeightId(l);
    const TensorId g = GradId(l);
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
  // Gradients are only final once their backward tasks complete (an eviction
  // can land a partial gradient on host earlier): wait for the producers,
  // and gather their replicas.
  const size_t waits = program_.wait_pool.size();
  replicas_.clear();
  deps.ForEachBackwardTaskForPack(t.pack, t.replica, [&](int pid) {
    program_.wait_pool.push_back(pid);
    replicas_.push_back(graph_->task(pid).replica);
  });
  std::sort(replicas_.begin(), replicas_.end());
  replicas_.erase(std::unique(replicas_.begin(), replicas_.end()),
                  replicas_.end());
  const int nrep = std::max<int>(1, static_cast<int>(replicas_.size()));
  const size_t needs = program_.cpu_id_pool.size();
  for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
    const Bytes params = model_->layers[l].spec.param_bytes;
    if (params == 0) continue;
    s.duration += static_cast<double>(params) * (2.0 + nrep) /
                  machine_->cpu_update_bw;
    for (int r : replicas_) {
      program_.cpu_id_pool.push_back(
          Id(TensorKey{TensorKind::kGrad, l, -1, r}));
    }
  }
  if (!graph_->flags.jit_update) {
    for (int r = 0; r < graph_->num_replicas; ++r) {
      if (t.replica >= 0 && r != t.replica) continue;
      const auto& all = deps.AllBackwardTasks(r);
      program_.wait_pool.insert(program_.wait_pool.end(), all.begin(),
                                all.end());
    }
  }
  cpu_extents_.push_back(
      CpuExtent{static_cast<uint32_t>(program_.cpu_id_pool.size() - needs),
                static_cast<uint32_t>(program_.wait_pool.size() - waits)});
  program_.cpu_steps[t.device].push_back(s);
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
  StepProgram program;
  Compile(*machine_, *model_, *graph_, optimizer_, &program);
  return program;
}

void StepCompiler::ResetProgram() {
  const size_t devices = static_cast<size_t>(graph_->num_devices);
  program_.steps.resize(devices);
  for (std::vector<Step>& dev : program_.steps) dev.clear();
  program_.cpu_steps.resize(devices);
  for (std::vector<CpuStep>& proc : program_.cpu_steps) proc.clear();
  program_.tensors.Clear();
  program_.need_pool.clear();
  program_.produce_pool.clear();
  program_.id_pool.clear();
  program_.cpu_id_pool.clear();
  program_.wait_pool.clear();
  extents_.clear();
  cpu_extents_.clear();
}

void StepCompiler::Compile(const hw::MachineSpec& machine,
                           const model::SequentialModel& model,
                           const core::TaskGraph& graph,
                           model::Optimizer optimizer, StepProgram* program) {
  machine_ = &machine;
  model_ = &model;
  graph_ = &graph;
  optimizer_ = optimizer;
  cost_.emplace(machine.PlanningGpu());
  opt_mult_ = model::OptimizerStateBytesPerParamByte(optimizer);
  program_ = std::move(*program);
  ResetProgram();
  Precompute();
  // One dependency index for every CPU update: building it per update made
  // compile O(tasks x CPU updates).
  const core::DepResolver deps(graph, &deps_);
  for (int d = 0; d < graph.num_devices; ++d) {
    for (int id : graph.device_order[d]) {
      const Task& t = graph.task(id);
      switch (t.type) {
        case TaskType::kForward: CompileForward(t); break;
        case TaskType::kBackward: CompileBackward(t); break;
        case TaskType::kUpdate: CompileGpuUpdate(t); break;
      }
    }
    if (static_cast<size_t>(d) < graph.cpu_order.size()) {
      for (int id : graph.cpu_order[d]) {
        CompileCpuUpdate(graph.task(id), deps);
      }
    }
  }
  BindSpans();
  ComputeRefs();

  program_.task_step_counts.assign(graph.num_tasks(), 0);
  for (const auto& dev : program_.steps) {
    for (const Step& s : dev) ++program_.task_step_counts[s.task];
  }
  for (const auto& proc : program_.cpu_steps) {
    for (const CpuStep& s : proc) ++program_.task_step_counts[s.task];
  }
  *program = std::move(program_);
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
