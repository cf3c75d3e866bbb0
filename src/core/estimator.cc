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
  // golden pins. LaneFloor::Bound charges the same terms from prefix
  // tables, so a term added here must be nonnegative for that floor to stay
  // admissible.
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

// ---------------------------------------------------------------------------
// LaneFloor
// ---------------------------------------------------------------------------
//
// Why the floor never exceeds the estimate, including its FP error.
//
// Exact arithmetic. Each unit's start is a max over its lane predecessor's
// end, its producers' ends (plus transfers) and, for a task's first piece,
// the lane's free time plus the exposed weight fetch; its end is start plus
// duration. So every chain of units in which each unit waits for the one
// before ends no earlier than the sum of its durations (plus any fetch or
// swap-out it must wait for). The floor prices such chains: one lane's
// units in order; with grouping, the pipeline fill before a lane's first
// unit (piece 0 of each earlier slot, each the producer of the next) and
// the CPU update after its last one.
//
// FP error. Every term is a sum of nonnegative doubles (Predict clamps at
// 0; bytes are nonnegative), and recursive summation of k nonnegative terms
// has relative error at most gamma_k = k*u / (1 - k*u), u = 2^-53.
// - Estimator side. A piece duration is a nested left-to-right sum of at
//   most 3R + 2 terms (pack backward time, fused forward or recomputed
//   layers, one read-back per swapped layer, the checkpoint read), so it is
//   at least (1 - gamma_{3R+2}) x its exact value. FP addition and max are
//   monotone, so a chain of n units ends no earlier than the FP sum of its
//   durations: at least (1 - gamma_{n + 3R + 2}) x the exact sum.
// - Floor side. A prefix row P is a recursive sum, so |P[k] - S_k| <=
//   gamma_R S_k. The difference P[hi+1] - P[lo] can cancel, so its error is
//   bounded against P[hi+1], not against the pack sum: at most
//   (2 gamma_R + 3u) P[hi+1] with the subtraction's own rounding. Range()
//   subtracts range_slack_ P[hi+1], range_slack_ = 4(R + 2)u, which exceeds
//   that, so each range is at most its exact pack sum. What follows (a few
//   operations per piece, the full-piece product, the fill, the tail, one
//   add per slot into the lane) is relative error gamma_t, t <= 32 x slots
//   + 16.
// So floor <= (1 + gamma_t) / (1 - gamma_{n + 3R + 2}) x the chain's end.
// lane_margin_ = 2u (n + 3R + 3t), twice the first-order error, covers that
// and the final product's rounding. A chain visits each slot's pieces at
// most once, so n <= slots x share with slots <= 2R + 1. At R = 1000 layers
// and a 65,536-sample share the margin is about 3e-8.

namespace {

/// full x dur(u) + dur(rem) for the pieces SplitMicrobatches(share, u)
/// yields: a task's pieces share one size except the remainder piece.
template <typename Dur>
double PiecesTime(int share, int u, Dur&& dur) {
  const int full = share / u;
  const int rem = share % u;
  double t = full > 0 ? full * dur(u) : 0.0;
  if (rem > 0) t += dur(rem);
  return t;
}

}  // namespace

LaneFloor::LaneFloor(const profile::ProfileDb& profiles,
                     const hw::MachineSpec& machine, HarmonyMode mode,
                     int num_devices, int minibatch,
                     const OptimizationFlags& flags, int u_max)
    : profiles_(profiles),
      mode_(mode),
      num_devices_(num_devices),
      jit_compute_(flags.jit_compute),
      num_layers_(profiles.num_layers()),
      u_max_(u_max),
      swap_bw_(machine.EffectiveSwapBw(num_devices)),
      cpu_update_bw_(machine.cpu_update_bw),
      grouped_(flags.input_batch_grouping),
      cpu_optimizer_(flags.cpu_optimizer) {
  HARMONY_CHECK_GE(num_devices, 1);
  HARMONY_CHECK_GE(minibatch, 1);
  HARMONY_CHECK_GE(u_max, 1);
  const int R = num_layers_;
  // Replica shares as the generator splits them: the first minibatch % N
  // replicas take one extra sample.
  if (mode == HarmonyMode::kDataParallel) {
    const int base = minibatch / num_devices;
    const int extra = minibatch % num_devices;
    if (extra > 0) shares_.emplace_back(0, base + 1);
    if (base > 0) shares_.emplace_back(extra, base);
  } else {
    shares_.emplace_back(0, minibatch);
  }

  const size_t row = static_cast<size_t>(R) + 1;
  fwd_prefix_.assign(static_cast<size_t>(u_max + 1) * row, 0.0);
  bwd_prefix_.assign(static_cast<size_t>(u_max + 1) * row, 0.0);
  for (int u = 1; u <= u_max; ++u) {
    double* f = &fwd_prefix_[u * row];
    double* b = &bwd_prefix_[u * row];
    for (int l = 0; l < R; ++l) {
      f[l + 1] = f[l] + profiles.FwdTime(l, u);
      b[l + 1] = b[l] + profiles.BwdTime(l, u);
    }
  }

  param_prefix_.assign(row, 0);
  for (int l = 0; l < R; ++l) {
    param_prefix_[l + 1] = param_prefix_[l] + profiles.layer(l).param_bytes;
  }

  const double unit = std::numeric_limits<double>::epsilon() / 2;
  const double slots = 2.0 * R + 1;
  const double units = slots * (mode == HarmonyMode::kPipelineParallel
                                    ? minibatch
                                    : minibatch / num_devices + 1);
  range_slack_ = 4.0 * (R + 2) * unit;
  lane_margin_ = 2.0 * unit * (units + 3.0 * R + 3.0 * (32.0 * slots + 16.0));
}

const double* LaneFloor::FwdRow(int u) const {
  HARMONY_DCHECK(u >= 1 && u <= u_max_);
  return &fwd_prefix_[static_cast<size_t>(u) * (num_layers_ + 1)];
}

const double* LaneFloor::BwdRow(int u) const {
  HARMONY_DCHECK(u >= 1 && u <= u_max_);
  return &bwd_prefix_[static_cast<size_t>(u) * (num_layers_ + 1)];
}

double LaneFloor::Range(const double* prefix, const Pack& p) const {
  const double upto = prefix[p.hi + 1];
  return std::max(0.0, upto - prefix[p.lo] - range_slack_ * upto);
}

LaneFloor::Policy LaneFloor::ForPolicy(const PolicyTable& table,
                                       int u_bwd) const {
  const int R = num_layers_;
  HARMONY_CHECK(u_bwd >= 1 && u_bwd <= u_max_) << "u_bwd " << u_bwd;
  Policy p;
  p.u_bwd_ = u_bwd;
  p.table_ =
      table.empty() ? PolicyTable::Uniform(R, StashPolicy::kRecompute) : table;
  HARMONY_CHECK_EQ(p.table_.num_layers(), R)
      << "policy table size != model layers";

  const int remat = p.table_.Count(StashPolicy::kRecompute);
  p.remat_ = remat == R   ? Policy::Remat::kAll
             : remat == 0 ? Policy::Remat::kNone
                          : Policy::Remat::kSome;
  if (p.remat_ == Policy::Remat::kSome) {
    // Only the piece sizes a backward task of u_bwd takes: u_bwd and each
    // share's remainder.
    for (const auto& [replica, share] : shares_) {
      for (int size : {share >= u_bwd ? u_bwd : 0, share % u_bwd}) {
        if (size > 0 && std::find(p.sizes_.begin(), p.sizes_.end(), size) ==
                            p.sizes_.end()) {
          p.sizes_.push_back(size);
        }
      }
    }
    const size_t row = static_cast<size_t>(R) + 1;
    p.remat_prefix_.assign(p.sizes_.size() * row, 0.0);
    for (size_t k = 0; k < p.sizes_.size(); ++k) {
      double* r = &p.remat_prefix_[k * row];
      for (int l = 0; l < R; ++l) {
        r[l + 1] = r[l] + (p.table_.at(l) == StashPolicy::kRecompute
                               ? profiles_.FwdTime(l, p.sizes_[k])
                               : 0.0);
      }
    }
  }
  if (p.table_.Count(StashPolicy::kSwap) > 0) {
    p.swap_prefix_.assign(static_cast<size_t>(R) + 1, 0);
    for (int l = 0; l < R; ++l) {
      p.swap_prefix_[l + 1] =
          p.swap_prefix_[l] + (p.table_.at(l) == StashPolicy::kSwap
                                   ? profiles_.layer(l).stash_bytes_per_sample
                                   : 0);
    }
  }
  return p;
}

TimeSec LaneFloor::Bound(const Configuration& config,
                         const Policy& policy) const {
  HARMONY_CHECK_EQ(config.u_bwd, policy.u_bwd_);
  HARMONY_CHECK(!config.bwd_packs.empty());
  HARMONY_CHECK(config.u_fwd >= 1 && config.u_fwd <= u_max_)
      << "u_fwd " << config.u_fwd;
  const int num_fwd = static_cast<int>(config.fwd_packs.size());
  const int num_bwd = static_cast<int>(config.bwd_packs.size());
  // Without jit-compute the last backward pack gets a forward task of its
  // own, appended to P_F (as the generator does).
  const int fwd_slots = num_fwd + (jit_compute_ ? 0 : 1);
  const int slots = fwd_slots + num_bwd;

  auto remat_row = [&](int u) -> const double* {
    if (policy.remat_ == Policy::Remat::kAll) return FwdRow(u);
    for (size_t k = 0; k < policy.sizes_.size(); ++k) {
      if (policy.sizes_[k] == u) {
        return &policy.remat_prefix_[k * (num_layers_ + 1)];
      }
    }
    HARMONY_CHECK(false) << "no recompute prefix at piece size " << u;
    return nullptr;
  };
  // The pack of the F/B task in `slot`: forward packs first, then the
  // backward packs in reverse order.
  auto slot_pack = [&](int slot) -> const Pack& {
    if (slot < fwd_slots) {
      return slot < num_fwd ? config.fwd_packs[slot] : config.bwd_packs.back();
    }
    return config.bwd_packs[num_bwd - 1 - (slot - fwd_slots)];
  };
  auto slot_u = [&](int slot) {
    return slot < fwd_slots ? config.u_fwd : config.u_bwd;
  };
  // Duration of one piece of size `u` of the task in `slot`.
  auto piece_time = [&](int slot, int u) -> double {
    const Pack& p = slot_pack(slot);
    if (slot < fwd_slots) return Range(FwdRow(u), p);
    const bool fused = jit_compute_ && slot == fwd_slots;
    double t = Range(BwdRow(u), p);
    if (fused) {
      t += Range(FwdRow(u), p);
    } else {
      if (policy.remat_ != Policy::Remat::kNone) t += Range(remat_row(u), p);
      if (!policy.swap_prefix_.empty()) {
        const Bytes swapped =
            policy.swap_prefix_[p.hi + 1] - policy.swap_prefix_[p.lo];
        t += static_cast<double>(static_cast<Bytes>(u) * swapped) / swap_bw_;
      }
      if (p.lo > 0 && policy.table_.at(p.lo) == StashPolicy::kRecompute) {
        const Bytes checkpoint = profiles_.layer(p.lo).input_bytes_per_sample;
        t += static_cast<double>(static_cast<Bytes>(u) * checkpoint) / swap_bw_;
      }
    }
    return t;
  };

  std::vector<double> lanes(static_cast<size_t>(num_devices_), 0.0);
  for (const auto& [replica, share] : shares_) {
    for (int slot = 0; slot < slots; ++slot) {
      lanes[HarmonyTaskDevice(mode_, num_devices_, replica, slot)] +=
          PiecesTime(share, slot_u(slot),
                     [&](int u) { return piece_time(slot, u); });
    }
  }
  if (grouped_) {
    // With input-batch grouping a lane runs its tasks in slot order: its
    // first unit is piece 0 of its lowest slot, its last F/B unit the last
    // piece of its highest slot.
    auto fetch = [&](int slot) {
      const Pack& p = slot_pack(slot);
      return static_cast<double>(param_prefix_[p.hi + 1] -
                                 param_prefix_[p.lo]) /
             swap_bw_;
    };
    // CPU-update tail: pack 0's update waits for the last piece of every
    // replica's last slot, swaps the gradient out, then runs on the CPU.
    const Pack& p0 = config.bwd_packs.front();
    const double params =
        static_cast<double>(param_prefix_[p0.hi + 1] - param_prefix_[p0.lo]);
    const int replicas = mode_ == HarmonyMode::kDataParallel ? num_devices_ : 1;
    const double tail =
        params / swap_bw_ + params * (2.0 + replicas) / cpu_update_bw_;
    for (const auto& [replica, share] : shares_) {
      auto device = [&](int slot) {
        return HarmonyTaskDevice(mode_, num_devices_, replica, slot);
      };
      // Lane start: each slot before the first device repeat opens a lane
      // (PP: slots 0..N-1; DP: slot 0). Its first piece waits for its
      // weights (no earlier task to prefetch behind) and for piece 0 of the
      // slot before, its producer — except the first backward slot without
      // jit-compute, whose input is the loss.
      double prev_end = 0;
      for (int slot = 0;
           slot < slots && (slot == 0 || device(slot) != device(0)); ++slot) {
        const bool chained = slot > 0 && (slot != fwd_slots || jit_compute_);
        const double start = std::max(chained ? prev_end : 0.0, fetch(slot));
        lanes[device(slot)] += start;
        prev_end = start + piece_time(slot, std::min(slot_u(slot), share));
      }
      if (cpu_optimizer_) lanes[device(slots - 1)] += tail;
    }
  }
  return *std::max_element(lanes.begin(), lanes.end()) * (1.0 - lane_margin_);
}

}  // namespace harmony::core
