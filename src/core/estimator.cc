#include "core/estimator.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace harmony::core {

/// Schedule units are stored structure-of-arrays, indexed by flat unit id
/// (uid = lane_base[lane] + position within lane, lanes concatenated in
/// order). The hot scheduling loop then reads producer end times and lane
/// predecessors as direct unit_end[p] loads — no per-edge binary search,
/// and the completion scans stride dense double arrays.
struct EstimatorScratch::Impl {
  std::vector<int32_t> unit_task;
  std::vector<int32_t> unit_piece;  // -1 for update tasks (no group)
  std::vector<int32_t> unit_lane;
  std::vector<double> unit_start;   // -1 = not yet scheduled
  std::vector<double> unit_end;
  // A task's units are consecutive in its lane: piece k of task id is
  // uid task_uid0[id] + k, for k < task_units[id] (0 = in no order list).
  std::vector<int> task_uid0;
  std::vector<int> task_units;
  std::vector<int> lane_base;
  DepIndex deps;  // the DepResolver's CSR index, rebuilt in place
  // Producer lists in CSR form: unit uid's producers are
  // data[off[uid] .. off[uid + 1]). Built in uid order, so offsets are
  // recorded as the data arrays grow — one pass, no per-unit vectors.
  std::vector<int> grad_off, grad_data;
  std::vector<int> rigid_off, rigid_data;
  std::vector<int> stream_off;
  std::vector<std::pair<int, int>> stream_data;  // (producer uid, task id)
  std::vector<int> dep_count;
  // Dependents in CSR form (count pass + fill pass over the same edge
  // enumeration).
  std::vector<int> dep_off, dep_data, dep_cursor;
  std::vector<int> ready;
  // Per-task residency-policy summary, hoisted out of the per-unit loop: the
  // policy is a task-level invariant, so the per-layer scans run once per
  // task here instead of once per microbatch unit. Legacy and uniform tables
  // then skip the per-layer work in the hot loop entirely.
  std::vector<Bytes> task_swap_per_sample;  // Σ stash bytes over kSwap layers
  std::vector<int32_t> task_remat_layers;   // # kRecompute layers in the pack
  // Layer prefix sums behind the two arrays above: one O(R) policy scan per
  // estimate, then each task's summary is two subtractions.
  std::vector<Bytes> prefix_swap;
  std::vector<int32_t> prefix_remat;
  // Per-task piece-duration cache: a task's pieces share one size except
  // the remainder piece, so each (task, size) duration is computed once per
  // estimate instead of once per piece (-1 = nothing cached).
  std::vector<int32_t> task_dur_usize;
  std::vector<double> task_dur;
};

EstimatorScratch::EstimatorScratch() : impl_(std::make_unique<Impl>()) {}
EstimatorScratch::~EstimatorScratch() = default;
EstimatorScratch::EstimatorScratch(EstimatorScratch&&) noexcept = default;
EstimatorScratch& EstimatorScratch::operator=(EstimatorScratch&&) noexcept =
    default;

RuntimeEstimator::RuntimeEstimator(const profile::ProfileDb& profiles,
                                   const hw::MachineSpec& machine)
    : profiles_(profiles), machine_(machine) {}

Estimate RuntimeEstimator::EstimateIteration(const TaskGraph& graph,
                                             trace::TraceBus* trace,
                                             EstimatorScratch* scratch) const {
  std::unique_ptr<EstimatorScratch> transient;
  if (scratch == nullptr) {
    transient = std::make_unique<EstimatorScratch>();
    scratch = transient.get();
  }
  EstimatorScratch::Impl& sc = *scratch->impl_;

  const DepResolver deps(graph, &sc.deps);
  const int N = graph.num_devices;
  // Effective per-GPU swap bandwidth: the host link is shared by all GPUs
  // (the estimator's static approximation of contention).
  const double swap_bw = machine_.EffectiveSwapBw(N);
  const double p2p_bw = machine_.EffectiveP2pBw();

  Bytes swap_bytes = 0, p2p_bytes = 0;

  auto pack_params = [&](const Pack& p) {
    return profiles_.PackParamBytes(p.lo, p.hi);
  };
  auto boundary_in_bytes = [&](int b) -> Bytes {
    if (b <= 0 || b >= graph.num_layers) return 0;
    return profiles_.layer(b).input_bytes_per_sample;
  };

  // Pass 1 — lane sizes: per GPU compute lane + per process CPU lane.
  auto& lane_base = sc.lane_base;
  lane_base.assign(2 * N + 1, 0);
  for (int d = 0; d < N; ++d) {
    int count = 0;
    for (int id : graph.device_order[d]) {
      const Task& t = graph.task(id);
      count += t.type == TaskType::kUpdate ? 1 : static_cast<int>(t.group.size());
    }
    lane_base[d + 1] = count;
    if (static_cast<size_t>(d) < graph.cpu_order.size()) {
      lane_base[N + d + 1] = static_cast<int>(graph.cpu_order[d].size());
    }
  }
  for (int lane_id = 0; lane_id < 2 * N; ++lane_id) {
    lane_base[lane_id + 1] += lane_base[lane_id];
  }
  const int total_units = lane_base[2 * N];

  // Pass 2 — fill the flat unit arrays lane by lane; task_uid0 maps
  // (task, piece) straight to a uid.
  sc.unit_task.assign(total_units, -1);
  sc.unit_piece.assign(total_units, -1);
  sc.unit_lane.assign(total_units, -1);
  sc.unit_start.assign(total_units, -1.0);
  sc.unit_end.assign(total_units, -1.0);
  int32_t* const unit_task = sc.unit_task.data();
  int32_t* const unit_piece = sc.unit_piece.data();
  int32_t* const unit_lane = sc.unit_lane.data();
  double* const unit_start = sc.unit_start.data();
  double* const unit_end = sc.unit_end.data();
  sc.task_uid0.assign(graph.num_tasks(), -1);
  sc.task_units.assign(graph.num_tasks(), 0);
  for (int d = 0; d < N; ++d) {
    int uid = lane_base[d];
    for (int id : graph.device_order[d]) {
      const Task& t = graph.task(id);
      const int units =
          t.type == TaskType::kUpdate ? 1 : static_cast<int>(t.group.size());
      sc.task_uid0[id] = uid;
      sc.task_units[id] = units;
      for (int k = 0; k < units; ++k) {
        unit_task[uid] = id;
        unit_piece[uid] = t.type == TaskType::kUpdate ? -1 : k;
        unit_lane[uid] = d;
        ++uid;
      }
    }
    if (static_cast<size_t>(d) < graph.cpu_order.size()) {
      uid = lane_base[N + d];
      for (int id : graph.cpu_order[d]) {
        sc.task_uid0[id] = uid;
        sc.task_units[id] = 1;
        unit_task[uid] = id;
        unit_lane[uid] = N + d;
        ++uid;
      }
    }
  }

  auto uid_of = [&](int task, int piece) -> int {
    HARMONY_CHECK_GT(sc.task_units[task], 0);
    const int uid0 = sc.task_uid0[task];
    return piece >= 0 && piece < sc.task_units[task] ? uid0 + piece : uid0;
  };

  // Pass 2b — per-task policy summary (see Impl). Integer stash bytes
  // distribute exactly over the microbatch size, so charging
  // usize * Σ per-sample bytes in the hot loop is bit-identical to the
  // per-layer sum it replaces. One O(R) policy scan builds prefix sums;
  // each task then reads its pack's range in O(1).
  sc.prefix_swap.assign(graph.num_layers + 1, 0);
  sc.prefix_remat.assign(graph.num_layers + 1, 0);
  for (int l = 0; l < graph.num_layers; ++l) {
    const StashPolicy p = graph.policy_at(l);
    sc.prefix_swap[l + 1] =
        sc.prefix_swap[l] +
        (p == StashPolicy::kSwap ? profiles_.layer(l).stash_bytes_per_sample
                                 : 0);
    sc.prefix_remat[l + 1] =
        sc.prefix_remat[l] + (p == StashPolicy::kRecompute ? 1 : 0);
  }
  sc.task_swap_per_sample.assign(graph.num_tasks(), 0);
  sc.task_remat_layers.assign(graph.num_tasks(), 0);
  for (int id = 0; id < graph.num_tasks(); ++id) {
    const Task& t = graph.task(id);
    if (t.type == TaskType::kUpdate) continue;
    sc.task_swap_per_sample[id] =
        sc.prefix_swap[t.pack.hi + 1] - sc.prefix_swap[t.pack.lo];
    sc.task_remat_layers[id] =
        sc.prefix_remat[t.pack.hi + 1] - sc.prefix_remat[t.pack.lo];
  }
  const Bytes* const task_swap_per_sample = sc.task_swap_per_sample.data();
  const int32_t* const task_remat_layers = sc.task_remat_layers.data();

  // Precompute each unit's producers (cross-lane dependencies), CSR-packed in
  // uid order. Updates keep their gradient producers separate from the
  // rigid-scheduling extras, since only the former enter the traffic model.
  sc.grad_off.assign(total_units + 1, 0);
  sc.rigid_off.assign(total_units + 1, 0);
  sc.stream_off.assign(total_units + 1, 0);
  sc.grad_data.clear();
  sc.rigid_data.clear();
  sc.stream_data.clear();

  for (int uid = 0; uid < total_units; ++uid) {
    const Task& t = graph.task(unit_task[uid]);
    if (t.type == TaskType::kUpdate) {
      deps.ForEachBackwardTaskForPack(t.pack, t.replica, [&](int pid) {
        const Task& p = graph.task(pid);
        sc.grad_data.push_back(
            uid_of(pid, static_cast<int>(p.group.size()) - 1));
      });
      if (!graph.flags.jit_update) {
        // Rigid scheduling: updates wait for the entire backward pass.
        for (int r = 0; r < graph.num_replicas; ++r) {
          if (t.replica >= 0 && r != t.replica) continue;
          for (int pid : deps.AllBackwardTasks(r)) {
            const Task& p = graph.task(pid);
            sc.rigid_data.push_back(
                uid_of(pid, static_cast<int>(p.group.size()) - 1));
          }
        }
      }
    } else {
      const MbPiece piece = t.group[unit_piece[uid]];
      const bool wants_act = t.type == TaskType::kForward || t.fused_forward;
      const int in_boundary = wants_act ? t.pack.lo : t.pack.hi + 1;
      deps.ForEachProducer(
          wants_act ? Flow::kActivation : Flow::kGradient, in_boundary, piece,
          t.replica, [&](int pid, int pk) {
            sc.stream_data.emplace_back(uid_of(pid, pk), pid);
          });
    }
    sc.grad_off[uid + 1] = static_cast<int>(sc.grad_data.size());
    sc.rigid_off[uid + 1] = static_cast<int>(sc.rigid_data.size());
    sc.stream_off[uid + 1] = static_cast<int>(sc.stream_data.size());
  }
  const int* const grad_off = sc.grad_off.data();
  const int* const grad_data = sc.grad_data.data();
  const int* const rigid_off = sc.rigid_off.data();
  const int* const rigid_data = sc.rigid_data.data();
  const int* const stream_off = sc.stream_off.data();
  const std::pair<int, int>* const stream_data = sc.stream_data.data();

  // Dependency-counted ready queue (Kahn): a unit becomes ready when its lane
  // predecessor and every producer unit have finished. Duplicate edges are
  // fine — each one both increments the count and appears in the dependents
  // list. Any pop order yields the same schedule: a unit's times depend only
  // on its (finished) producers, and the byte counters are order-free sums.
  //
  // Dependents are CSR too: a count pass sizes each unit's out-list, a fill
  // pass walks the identical edge enumeration into the reserved spans.
  auto& dep_count = sc.dep_count;
  dep_count.assign(total_units, 0);
  sc.dep_off.assign(total_units + 1, 0);
  auto for_each_edge = [&](auto&& edge) {
    for (int lane_id = 0; lane_id < 2 * N; ++lane_id) {
      for (int uid = lane_base[lane_id] + 1; uid < lane_base[lane_id + 1];
           ++uid) {
        edge(uid - 1, uid);
      }
    }
    for (int uid = 0; uid < total_units; ++uid) {
      for (int e = grad_off[uid]; e < grad_off[uid + 1]; ++e) {
        edge(grad_data[e], uid);
      }
      for (int e = rigid_off[uid]; e < rigid_off[uid + 1]; ++e) {
        edge(rigid_data[e], uid);
      }
      for (int e = stream_off[uid]; e < stream_off[uid + 1]; ++e) {
        edge(stream_data[e].first, uid);
      }
    }
  };
  for_each_edge([&](int from, int to) {
    if (from == to) return;  // a task is never its own producer
    ++dep_count[to];
    ++sc.dep_off[from + 1];
  });
  for (int uid = 0; uid < total_units; ++uid) {
    sc.dep_off[uid + 1] += sc.dep_off[uid];
  }
  sc.dep_data.resize(sc.dep_off[total_units]);
  sc.dep_cursor.assign(sc.dep_off.begin(), sc.dep_off.end() - 1);
  for_each_edge([&](int from, int to) {
    if (from == to) return;
    sc.dep_data[sc.dep_cursor[from]++] = to;
  });
  const int* const dep_off = sc.dep_off.data();
  const int* const dep_data = sc.dep_data.data();

  // Duration of one piece of F/B task `task_id` at microbatch `usize`: pack
  // time, then fused forward or rematerialization, then per-layer swap
  // read-back, then the checkpoint read — the FP summation order every
  // golden pins.
  auto piece_duration = [&](int task_id, int usize) -> TimeSec {
    const Task& t = graph.task(task_id);
    if (t.type == TaskType::kForward) {
      return profiles_.PackFwdTime(t.pack.lo, t.pack.hi, usize);
    }
    TimeSec duration = profiles_.PackBwdTime(t.pack.lo, t.pack.hi, usize);
    if (t.fused_forward) {
      duration += profiles_.PackFwdTime(t.pack.lo, t.pack.hi, usize);
    } else {
      const int remat_layers = task_remat_layers[task_id];
      if (remat_layers == t.pack.num_layers()) {
        // Whole-pack rematerialization: one PackFwdTime call, not a
        // per-layer sum — preserves the FP summation order of the
        // pre-policy estimator so legacy goldens stay bit-identical.
        duration += profiles_.PackFwdTime(t.pack.lo, t.pack.hi, usize);
      } else if (remat_layers > 0) {
        for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
          if (graph.policy_at(l) == StashPolicy::kRecompute) {
            duration += profiles_.FwdTime(l, usize);
          }
        }
      }
      // Swapped stash read-back: charged like the checkpoint read
      // (host -> device on the critical path; kKeep stays free). The stall
      // stays a per-layer FP sum — only the guard is hoisted.
      if (task_swap_per_sample[task_id] > 0) {
        for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
          if (graph.policy_at(l) != StashPolicy::kSwap) continue;
          const Bytes st = static_cast<Bytes>(usize) *
                           profiles_.layer(l).stash_bytes_per_sample;
          if (st == 0) continue;
          duration += static_cast<double>(st) / swap_bw;
        }
      }
    }
    if (t.type == TaskType::kBackward && t.reads_checkpoint) {
      const Bytes ck = static_cast<Bytes>(usize) * boundary_in_bytes(t.pack.lo);
      duration += static_cast<double>(ck) / swap_bw;
    }
    return duration;
  };
  sc.task_dur_usize.assign(graph.num_tasks(), -1);
  sc.task_dur.resize(graph.num_tasks());
  int32_t* const task_dur_usize = sc.task_dur_usize.data();
  double* const task_dur = sc.task_dur.data();

  auto& ready = sc.ready;
  ready.clear();
  ready.reserve(total_units);
  for (int uid = 0; uid < total_units; ++uid) {
    if (dep_count[uid] == 0) ready.push_back(uid);
  }

  int64_t scheduled = 0;
  while (!ready.empty()) {
    const int uid = ready.back();
    ready.pop_back();
    const int lane_id = unit_lane[uid];
    const int pos = uid - lane_base[lane_id];
    const Task& t = graph.task(unit_task[uid]);
    const TimeSec lane_free = pos == 0 ? 0.0 : unit_end[uid - 1];

    TimeSec ready_time = lane_free;
    TimeSec duration = 0.0;

    if (t.type == TaskType::kUpdate) {
      const Bytes params = pack_params(t.pack);
      const int nrep = grad_off[uid + 1] - grad_off[uid];
      TimeSec grads_ready = 0.0;
      for (int e = grad_off[uid]; e < grad_off[uid + 1]; ++e) {
        const TimeSec done = unit_end[grad_data[e]];
        HARMONY_DCHECK_GE(done, 0.0);
        grads_ready = std::max(grads_ready, done);
      }
      for (int e = rigid_off[uid]; e < rigid_off[uid + 1]; ++e) {
        const TimeSec done = unit_end[rigid_data[e]];
        HARMONY_DCHECK_GE(done, 0.0);
        grads_ready = std::max(grads_ready, done);
      }
      if (t.on_cpu) {
        // Gradient swap-out from each producing GPU, then CPU reduce +
        // Adam update on host-resident master state.
        grads_ready += static_cast<double>(params) / swap_bw;
        swap_bytes += params * nrep;
        duration = static_cast<double>(params) * (2.0 + nrep) /
                   machine_.cpu_update_bw;
      } else {
        // On-GPU update: W in+out, optimizer state in+out, compute.
        const Bytes traffic = 2 * params + 4 * params;
        swap_bytes += traffic + (graph.grad_reduce_via_host ? 2 * params : 0);
        TimeSec compute = 0;
        for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
          compute += profiles_.layer(l).gpu_update_time;
        }
        duration = static_cast<double>(traffic) / swap_bw + compute;
      }
      ready_time = std::max(ready_time, grads_ready);
    } else {
      const int task_id = unit_task[uid];
      const int usize = t.group[unit_piece[uid]].size;
      if (task_dur_usize[task_id] != usize) {
        task_dur[task_id] = piece_duration(task_id, usize);
        task_dur_usize[task_id] = usize;
      }
      duration = task_dur[task_id];
      // Swapped-out stash (kSwap layers): a forward's write overlaps compute
      // on the swap-out stream, so only the volume counts; a recomputing
      // backward reads the same volume back (piece_duration charges the
      // stall). Integer bytes, so usize x the per-task sum equals the
      // per-layer sum exactly.
      if (t.type == TaskType::kForward || !t.fused_forward) {
        swap_bytes += static_cast<Bytes>(usize) * task_swap_per_sample[task_id];
      }

      // Streaming input: activations (forward / fused) or boundary
      // gradient (backward).
      const bool wants_act = t.type == TaskType::kForward || t.fused_forward;
      const int in_boundary = wants_act ? t.pack.lo : t.pack.hi + 1;
      for (int e = stream_off[uid]; e < stream_off[uid + 1]; ++e) {
        const auto& [p, pid] = stream_data[e];
        const TimeSec done = unit_end[p];
        HARMONY_DCHECK_GE(done, 0.0);
        const Task& prod = graph.task(pid);
        const Bytes bytes =
            static_cast<Bytes>(usize) * boundary_in_bytes(in_boundary);
        TimeSec xfer = 0.0;
        if (prod.device != t.device && bytes > 0) {
          if (graph.flags.p2p_transfers) {
            xfer = static_cast<double>(bytes) / p2p_bw;
            p2p_bytes += bytes;
          } else {
            xfer = 2.0 * static_cast<double>(bytes) / swap_bw;
            swap_bytes += 2 * bytes;
          }
        }
        ready_time = std::max(ready_time, done + xfer);
      }

      // Checkpoint read for backward tasks (message passing via host; the
      // stall is inside piece_duration).
      if (t.type == TaskType::kBackward && t.reads_checkpoint) {
        swap_bytes += static_cast<Bytes>(usize) * boundary_in_bytes(t.pack.lo);
      }
      // Checkpoint writes (forward): overlapped on the swap-out stream;
      // count volume only.
      for (int b : t.checkpoint_boundaries) {
        swap_bytes += static_cast<Bytes>(usize) * boundary_in_bytes(b);
      }

      // Weight fetch at the first piece of a task; prefetch overlaps it
      // with the previous task on the device.
      if (unit_piece[uid] == 0) {
        const Bytes params = pack_params(t.pack);
        const TimeSec fetch = static_cast<double>(params) / swap_bw;
        swap_bytes += params;
        if (graph.flags.prefetch && pos > 0) {
          const TimeSec prev_span = unit_end[uid - 1] - unit_start[uid - 1];
          ready_time =
              std::max(ready_time, lane_free + std::max(0.0, fetch - prev_span));
        } else {
          ready_time = std::max(ready_time, lane_free + fetch);
        }
      }
    }

    unit_start[uid] = ready_time;
    unit_end[uid] = ready_time + duration;
    ++scheduled;
    for (int e = dep_off[uid]; e < dep_off[uid + 1]; ++e) {
      const int dep = dep_data[e];
      if (--dep_count[dep] == 0) ready.push_back(dep);
    }
  }
  HARMONY_CHECK_EQ(scheduled, total_units)
      << "estimator deadlock: schedule has cyclic waits in graph '"
      << graph.name << "'";

  // Replay the predicted schedule onto the trace bus: one compute lane per
  // GPU, one CPU lane per process, in start-time order (lane order is
  // schedule order, and units within a lane never overlap).
  if (trace != nullptr && trace->active()) {
    for (int lane_id = 0; lane_id < 2 * N; ++lane_id) {
      const bool cpu_lane = lane_id >= N;
      for (int uid = lane_base[lane_id]; uid < lane_base[lane_id + 1]; ++uid) {
        trace::Event begin;
        begin.kind = trace::EventKind::kOpBegin;
        begin.lane = cpu_lane ? trace::Lane::kCpu : trace::Lane::kCompute;
        begin.device = cpu_lane ? lane_id - N : lane_id;
        begin.time = unit_start[uid];
        begin.task = unit_task[uid];
        if (trace->detailed()) {
          begin.name = "t" + std::to_string(unit_task[uid]);
          if (unit_piece[uid] >= 0) {
            begin.name += " p" + std::to_string(unit_piece[uid]);
          }
        }
        trace::Event end = begin;
        end.kind = trace::EventKind::kOpEnd;
        end.time = unit_end[uid];
        end.name.clear();
        trace->Emit(begin);
        trace->Emit(end);
      }
    }
  }

  Estimate e;
  for (int uid = 0; uid < total_units; ++uid) {
    e.iteration_time = std::max(e.iteration_time, unit_end[uid]);
  }
  e.swap_bytes = swap_bytes;
  e.p2p_bytes = p2p_bytes;
  return e;
}

}  // namespace harmony::core
