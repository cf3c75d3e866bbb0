#include "core/estimator.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace harmony::core {

/// Schedule units are indexed by flat unit id (uid = lane_base[lane] +
/// position within lane, lanes concatenated in order), so producer end times
/// and lane predecessors are direct unit_end[p] loads.
struct EstimatorScratch::Impl {
  std::vector<double> unit_start;
  std::vector<double> unit_end;  // -1 = not yet placed
  std::vector<int> lane_base;
  // The sweep's head of each lane: order-list position, piece within that
  // task, its uid, and the producer uid the head waits on (-1 = none).
  struct LaneHead {
    int pos = 0;
    int piece = 0;
    int uid = 0;
    int waits_on = -1;
  };
  std::vector<LaneHead> heads;
  DepIndex deps;  // the DepResolver's CSR index, rebuilt in place
  // Per-task summary, hoisted out of the per-unit loop: the policy, the
  // pack and the boundaries a task reads and writes are task-level
  // invariants, so the per-layer scans run once per task here instead of
  // once per microbatch unit. Legacy and uniform tables then skip the
  // per-layer work in the hot loop entirely.
  struct TaskSummary {
    // A task's units are consecutive in its lane: piece k is uid uid0 + k,
    // for k < units (0 = in no order list).
    int uid0 = -1;
    int units = 0;
    Bytes params = 0;             // the pack's weight bytes
    Bytes swap_per_sample = 0;    // Σ stash bytes over kSwap layers
    Bytes in_per_sample = 0;      // F/B: the input boundary's bytes
    Bytes volume_per_sample = 0;  // F/B: swap volume every unit adds
    int32_t remat_layers = 0;     // # kRecompute layers in the pack
    // Piece-duration cache: a task's pieces share one size except the
    // remainder piece, so each (task, size) duration is computed once per
    // estimate instead of once per piece (-1 = nothing cached).
    int32_t dur_usize = -1;
    double dur = 0;
  };
  std::vector<TaskSummary> tasks;
  // Layer prefix sums behind the summary: one O(R) scan per estimate, then
  // each task's pack sums are subtractions.
  std::vector<Bytes> prefix_params;
  std::vector<Bytes> prefix_swap;
  std::vector<int32_t> prefix_remat;
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
  using TaskSummary = EstimatorScratch::Impl::TaskSummary;
  using LaneHead = EstimatorScratch::Impl::LaneHead;

  const DepResolver deps(graph, &sc.deps);
  const int N = graph.num_devices;
  // Effective per-GPU swap bandwidth: the host link is shared by all GPUs
  // (the estimator's static approximation of contention).
  const double swap_bw = machine_.EffectiveSwapBw(N);
  const double p2p_bw = machine_.EffectiveP2pBw();

  Bytes swap_bytes = 0, p2p_bytes = 0;

  auto boundary_in_bytes = [&](int b) -> Bytes {
    if (b <= 0 || b >= graph.num_layers) return 0;
    return profiles_.layer(b).input_bytes_per_sample;
  };

  // Lane sizes: per GPU compute lane + per process CPU lane. lane_order(l)
  // is the task list lane l runs (nullptr: a CPU lane with no order list).
  auto lane_order = [&](int lane_id) -> const std::vector<int>* {
    if (lane_id < N) return &graph.device_order[lane_id];
    const size_t p = static_cast<size_t>(lane_id - N);
    return p < graph.cpu_order.size() ? &graph.cpu_order[p] : nullptr;
  };
  auto& lane_base = sc.lane_base;
  lane_base.assign(2 * N + 1, 0);
  sc.tasks.assign(graph.num_tasks(), TaskSummary{});
  TaskSummary* const task_summary = sc.tasks.data();
  for (int lane_id = 0; lane_id < 2 * N; ++lane_id) {
    int uid = lane_base[lane_id];
    if (const std::vector<int>* order = lane_order(lane_id)) {
      for (int id : *order) {
        const Task& t = graph.task(id);
        const int units =
            t.type == TaskType::kUpdate ? 1 : static_cast<int>(t.group.size());
        task_summary[id].uid0 = uid;
        task_summary[id].units = units;
        uid += units;
      }
    }
    lane_base[lane_id + 1] = uid;
  }
  const int total_units = lane_base[2 * N];
  sc.unit_start.assign(total_units, -1.0);
  sc.unit_end.assign(total_units, -1.0);
  double* const unit_start = sc.unit_start.data();
  double* const unit_end = sc.unit_end.data();

  auto uid_of = [&](int task, int piece) -> int {
    const TaskSummary& ts = task_summary[task];
    HARMONY_CHECK_GT(ts.units, 0);
    return piece >= 0 && piece < ts.units ? ts.uid0 + piece : ts.uid0;
  };

  // Per-task summary (see Impl). Integer bytes distribute exactly over the
  // microbatch size, so charging usize * Σ per-sample bytes in the hot loop
  // is bit-identical to the per-layer and per-boundary sums it replaces. One
  // O(R) scan builds prefix sums; each task then reads its pack's ranges in
  // O(1).
  const int R = graph.num_layers;
  sc.prefix_params.assign(R + 1, 0);
  sc.prefix_swap.assign(R + 1, 0);
  sc.prefix_remat.assign(R + 1, 0);
  for (int l = 0; l < R; ++l) {
    const StashPolicy p = graph.policy_at(l);
    const profile::LayerProfile& layer = profiles_.layer(l);
    sc.prefix_params[l + 1] = sc.prefix_params[l] + layer.param_bytes;
    sc.prefix_swap[l + 1] =
        sc.prefix_swap[l] +
        (p == StashPolicy::kSwap ? layer.stash_bytes_per_sample : 0);
    sc.prefix_remat[l + 1] =
        sc.prefix_remat[l] + (p == StashPolicy::kRecompute ? 1 : 0);
  }
  for (int id = 0; id < graph.num_tasks(); ++id) {
    const Task& t = graph.tasks[id];
    TaskSummary& ts = task_summary[id];
    ts.params = sc.prefix_params[t.pack.hi + 1] - sc.prefix_params[t.pack.lo];
    if (t.type == TaskType::kUpdate) continue;
    ts.swap_per_sample =
        sc.prefix_swap[t.pack.hi + 1] - sc.prefix_swap[t.pack.lo];
    ts.remat_layers =
        sc.prefix_remat[t.pack.hi + 1] - sc.prefix_remat[t.pack.lo];
    const bool wants_act = t.type == TaskType::kForward || t.fused_forward;
    ts.in_per_sample = boundary_in_bytes(wants_act ? t.pack.lo : t.pack.hi + 1);
    // Swapped-out stash (kSwap layers): a forward's write overlaps compute
    // on the swap-out stream, so only the volume counts; a recomputing
    // backward reads the same volume back (piece_duration charges the
    // stall). A backward's checkpoint read (message passing via host; the
    // stall is inside piece_duration) and a forward's checkpoint writes
    // (overlapped on the swap-out stream) count volume too.
    if (t.type == TaskType::kForward || !t.fused_forward) {
      ts.volume_per_sample += ts.swap_per_sample;
    }
    if (t.type == TaskType::kBackward && t.reads_checkpoint) {
      ts.volume_per_sample += boundary_in_bytes(t.pack.lo);
    }
    for (int b : t.checkpoint_boundaries) {
      ts.volume_per_sample += boundary_in_bytes(b);
    }
  }

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
      const int remat_layers = task_summary[task_id].remat_layers;
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
      if (task_summary[task_id].swap_per_sample > 0) {
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

  // Places unit `uid`, piece `piece` of task `task_id` (0 for an update) at
  // position `pos` of its lane, when every producer it reads has been
  // placed. Otherwise it returns the uid of a producer still to be placed
  // and changes nothing: the byte counters are committed only once the unit
  // is placed.
  auto place = [&](int uid, int pos, int task_id, int piece) -> int {
    const Task& t = graph.tasks[task_id];
    TaskSummary& ts = task_summary[task_id];
    const TimeSec lane_free = pos == 0 ? 0.0 : unit_end[uid - 1];
    TimeSec ready_time = lane_free;
    TimeSec duration = 0.0;
    Bytes unit_swap = 0, unit_p2p = 0;
    int waits_on = -1;

    if (t.type == TaskType::kUpdate) {
      const Bytes params = ts.params;
      int nrep = 0;
      TimeSec grads_ready = 0.0;
      // Gradient producers (these enter the traffic model), then, under
      // rigid scheduling, every backward task of the replicas updated.
      auto wait_for = [&](int pid) {
        if (waits_on >= 0) return;
        const int p =
            uid_of(pid, static_cast<int>(graph.tasks[pid].group.size()) - 1);
        const TimeSec done = unit_end[p];
        if (done < 0) {
          waits_on = p;
          return;
        }
        grads_ready = std::max(grads_ready, done);
      };
      deps.ForEachBackwardTaskForPack(t.pack, t.replica, [&](int pid) {
        ++nrep;
        wait_for(pid);
      });
      if (!graph.flags.jit_update) {
        // Rigid scheduling: updates wait for the entire backward pass.
        for (int r = 0; r < graph.num_replicas; ++r) {
          if (t.replica >= 0 && r != t.replica) continue;
          for (int pid : deps.AllBackwardTasks(r)) wait_for(pid);
        }
      }
      if (waits_on >= 0) return waits_on;
      if (t.on_cpu) {
        // Gradient swap-out from each producing GPU, then CPU reduce +
        // Adam update on host-resident master state.
        grads_ready += static_cast<double>(params) / swap_bw;
        unit_swap += params * nrep;
        duration = static_cast<double>(params) * (2.0 + nrep) /
                   machine_.cpu_update_bw;
      } else {
        // On-GPU update: W in+out, optimizer state in+out, compute.
        const Bytes traffic = 2 * params + 4 * params;
        unit_swap += traffic + (graph.grad_reduce_via_host ? 2 * params : 0);
        TimeSec compute = 0;
        for (int l = t.pack.lo; l <= t.pack.hi; ++l) {
          compute += profiles_.layer(l).gpu_update_time;
        }
        duration = static_cast<double>(traffic) / swap_bw + compute;
      }
      ready_time = std::max(ready_time, grads_ready);
    } else {
      // Streaming input: activations (forward / fused) or boundary
      // gradient (backward).
      const MbPiece mb = t.group[piece];
      const int usize = mb.size;
      const bool wants_act = t.type == TaskType::kForward || t.fused_forward;
      const int in_boundary = wants_act ? t.pack.lo : t.pack.hi + 1;
      const Bytes in_bytes = static_cast<Bytes>(usize) * ts.in_per_sample;
      deps.ForEachProducer(
          wants_act ? Flow::kActivation : Flow::kGradient, in_boundary, mb,
          t.replica, [&](int pid, int pk) {
            const int p = uid_of(pid, pk);
            // A forward task that checkpoints its own input boundary lists
            // itself as a producer of that boundary.
            if (waits_on >= 0 || p == uid) return;
            const TimeSec done = unit_end[p];
            if (done < 0) {
              waits_on = p;
              return;
            }
            TimeSec xfer = 0.0;
            if (graph.tasks[pid].device != t.device && in_bytes > 0) {
              if (graph.flags.p2p_transfers) {
                xfer = static_cast<double>(in_bytes) / p2p_bw;
                unit_p2p += in_bytes;
              } else {
                xfer = 2.0 * static_cast<double>(in_bytes) / swap_bw;
                unit_swap += 2 * in_bytes;
              }
            }
            ready_time = std::max(ready_time, done + xfer);
          });
      if (waits_on >= 0) return waits_on;

      if (ts.dur_usize != usize) {
        ts.dur = piece_duration(task_id, usize);
        ts.dur_usize = usize;
      }
      duration = ts.dur;
      unit_swap += static_cast<Bytes>(usize) * ts.volume_per_sample;

      // Weight fetch at the first piece of a task; prefetch overlaps it
      // with the previous task on the device.
      if (piece == 0) {
        const Bytes params = ts.params;
        const TimeSec fetch = static_cast<double>(params) / swap_bw;
        unit_swap += params;
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
    swap_bytes += unit_swap;
    p2p_bytes += unit_p2p;
    return -1;
  };

  // In-order lane sweep: each lane places its head unit while the head's
  // producers have ends. A head that reads an unplaced producer blocks its
  // lane, which remembers that producer and is skipped until it is placed.
  // A pass that places nothing with units left is a cyclic wait. Any
  // placement order yields the same schedule: a unit's times read only its
  // placed producers and its lane predecessor, and the byte counters are
  // integer sums.
  sc.heads.assign(2 * N, LaneHead{});
  for (int lane_id = 0; lane_id < 2 * N; ++lane_id) {
    sc.heads[lane_id].uid = lane_base[lane_id];
  }
  int placed = 0;
  while (placed < total_units) {
    const int placed_before = placed;
    for (int lane_id = 0; lane_id < 2 * N; ++lane_id) {
      LaneHead& head = sc.heads[lane_id];
      const int lane_end = lane_base[lane_id + 1];
      if (head.uid == lane_end ||
          (head.waits_on >= 0 && unit_end[head.waits_on] < 0)) {
        continue;
      }
      const std::vector<int>& order = *lane_order(lane_id);
      while (head.uid < lane_end) {
        const int task_id = order[head.pos];
        head.waits_on =
            place(head.uid, head.uid - lane_base[lane_id], task_id, head.piece);
        if (head.waits_on >= 0) break;
        ++head.uid;
        ++placed;
        if (++head.piece == task_summary[task_id].units) {
          head.piece = 0;
          ++head.pos;
        }
      }
    }
    HARMONY_CHECK_GT(placed, placed_before)
        << "estimator deadlock: schedule has cyclic waits in graph '"
        << graph.name << "'";
  }

  // Replay the predicted schedule onto the trace bus: one compute lane per
  // GPU, one CPU lane per process, in start-time order (lane order is
  // schedule order, and units within a lane never overlap).
  if (trace != nullptr && trace->active()) {
    for (int lane_id = 0; lane_id < 2 * N; ++lane_id) {
      const std::vector<int>* order = lane_order(lane_id);
      if (order == nullptr) continue;
      const bool cpu_lane = lane_id >= N;
      for (int id : *order) {
        const bool update = graph.task(id).type == TaskType::kUpdate;
        for (int k = 0; k < task_summary[id].units; ++k) {
          const int uid = task_summary[id].uid0 + k;
          trace::Event begin;
          begin.kind = trace::EventKind::kOpBegin;
          begin.lane = cpu_lane ? trace::Lane::kCpu : trace::Lane::kCompute;
          begin.device = cpu_lane ? lane_id - N : lane_id;
          begin.time = unit_start[uid];
          begin.task = id;
          // Labelled "t<id> p<piece>", or "t<id>" for an update.
          if (!update) {
            begin.detail = "p";
            begin.index = k;
          }
          trace::Event end;
          end.kind = trace::EventKind::kOpEnd;
          end.lane = begin.lane;
          end.device = begin.device;
          end.time = unit_end[uid];
          end.task = id;
          trace->Emit(begin);
          trace->Emit(end);
        }
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
// swap-out it must wait for). The floor prices such chains, one per lane:
// with grouping, the pipeline fill before the lane's first unit (piece 0 of
// each earlier slot, each the producer of the next); the lane's units in
// order, with each later task's exposed fetch; then the drain after its last
// unit (the last piece of each later slot holds the share's last sample, so
// it waits for the one before, up to the first backward slot without
// jit-compute, which reads the loss) and the CPU update after the last slot.
// The exposed fetch is max(0, fetch - span) after a predecessor of span
// `span` with prefetch, the whole fetch without it. The floor charges it
// only where the predecessor is the previous slot's last piece on the lane,
// whose span it bounds from above; where a GPU update sits in between it
// charges nothing with prefetch.
//
// FP error. Every duration term is a sum of nonnegative doubles (Predict
// clamps at 0; bytes are nonnegative), and recursive summation of k
// nonnegative terms has relative error at most gamma_k = k*u / (1 - k*u),
// u = 2^-53. Let E be the estimate, the largest unit end.
// - Estimator side. A piece duration is a nested left-to-right sum of at
//   most 3R + 2 terms (pack backward time, fused forward or recomputed
//   layers, one read-back per swapped layer, the checkpoint read), so it is
//   within a factor 1 -+ gamma_{3R+2} of its exact value. FP addition and
//   max are monotone, so a chain of n units and adds ends no earlier than
//   (1 - gamma_{n + 3R + 2}) x the exact sum of its durations and addends.
// - Floor side. A prefix row P is a recursive sum, so |P[k] - S_k| <=
//   gamma_R S_k. The difference P[hi+1] - P[lo] can cancel, so its error is
//   bounded against P[hi+1], not against the pack sum: at most
//   (2 gamma_R + 3u) P[hi+1] with the subtraction's own rounding. Range()
//   subtracts range_slack_ P[hi+1], range_slack_ = 4(R + 2)u, which exceeds
//   that, so each range is at most its exact pack sum; RangeUp() adds it, so
//   each is at least the exact sum times (1 - u). What follows (a few
//   operations per piece, the full-piece product, the fill, the exposures,
//   the drain, the tail, one add per slot into the lane) is relative error
//   gamma_t, t <= 64 x slots + 32.
// - Exposed fetch. Both sides compute `fetch` with the same operation on the
//   same integer. A span upper bound is a sum of at most four terms, each at
//   least its exact value times (1 - u), scaled by 1 + span_slack_,
//   span_slack_ = 2(3R + 8)u, so it is at least the estimator's FP duration.
//   The estimator's span, unit_end - unit_start, can exceed that duration by
//   one rounding of the end time, 2u E, plus its own rounding. So each
//   exposure the floor charges exceeds the estimator's by at most 5u E,
//   counting the two subtractions' roundings; a chain holds at most `slots`
//   of them.
// So floor <= (1 + gamma_t) x (E / (1 - gamma_{n + 3R + 2}) + 5u x slots x
// E). lane_margin_ = 2u (n + 3R + 3t + 5 slots), twice the first-order
// error, covers that and the final product's rounding. A chain visits each
// slot's pieces at most once and adds one exposure per slot and two tail
// terms, so n <= slots x (share + 1) + 2 with slots <= 2R + 1. At R = 1000
// layers and a 65,536-sample share the margin is about 3e-8.

LaneFloor::LaneFloor(const profile::ProfileDb& profiles,
                     const hw::MachineSpec& machine, HarmonyMode mode,
                     int num_devices, int minibatch,
                     const OptimizationFlags& flags, int u_max)
    : profiles_(profiles),
      mode_(mode),
      num_devices_(num_devices),
      lanes_(mode == HarmonyMode::kPipelineParallel ? num_devices : 1),
      jit_compute_(flags.jit_compute),
      num_layers_(profiles.num_layers()),
      u_max_(u_max),
      swap_bw_(machine.EffectiveSwapBw(num_devices)),
      cpu_update_bw_(machine.cpu_update_bw),
      grouped_(flags.input_batch_grouping),
      cpu_optimizer_(flags.cpu_optimizer),
      prefetch_(flags.prefetch),
      updates_between_(!flags.cpu_optimizer && flags.jit_update) {
  HARMONY_CHECK_GE(num_devices, 1);
  HARMONY_CHECK_GE(minibatch, 1);
  HARMONY_CHECK_GE(u_max, 1);
  const int R = num_layers_;
  // Replica shares as the generator splits them: the first minibatch % N
  // replicas take one extra sample.
  if (mode == HarmonyMode::kDataParallel) {
    const int base = minibatch / num_devices;
    const int extra = minibatch % num_devices;
    if (extra > 0) shares_.push_back(base + 1);
    if (base > 0) shares_.push_back(base);
  } else {
    shares_.push_back(minibatch);
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
  const double share = mode == HarmonyMode::kPipelineParallel
                           ? minibatch
                           : minibatch / num_devices + 1;
  const double units = slots * (share + 1.0) + 2.0;
  range_slack_ = 4.0 * (R + 2) * unit;
  span_slack_ = 2.0 * (3.0 * R + 8.0) * unit;
  lane_margin_ = 2.0 * unit *
                 (units + 3.0 * R + 3.0 * (64.0 * slots + 32.0) + 5.0 * slots);
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

double LaneFloor::RangeUp(const double* prefix, const Pack& p) const {
  const double upto = prefix[p.hi + 1];
  return upto - prefix[p.lo] + range_slack_ * upto;
}

double LaneFloor::Fetch(const Pack& p) const {
  return static_cast<double>(param_prefix_[p.hi + 1] - param_prefix_[p.lo]) /
         swap_bw_;
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
    for (int share : shares_) {
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

template <typename PieceFn, typename PackFn>
void LaneFloor::FillPass(int slots, int u, bool backward, double tail,
                         PieceFn&& piece, PackFn&& pack, Pass* out) const {
  const int L = lanes_;
  out->slots_ = slots;
  out->lanes_.assign(shares_.size() * L, Pass::Lane{});
  out->through_.assign(shares_.size(), 0.0);
  // A later task's fetch: exposed past its predecessor's span with
  // prefetch, whole without. With prefetch, a backward task that follows a
  // GPU update is charged nothing.
  const bool exposes = !prefetch_ || !(backward && updates_between_);
  for (size_t si = 0; si < shares_.size(); ++si) {
    const int share = shares_[si];
    const int full = share / u;
    const int rem = share % u;
    const int last = rem > 0 ? rem : u;
    Pass::Lane* lanes = &out->lanes_[si * L];
    double below_top = 0;  // last pieces of the slots below the top L
    for (int i = 0; i < slots; ++i) {
      Pass::Lane& lane = lanes[i % L];
      const double dur = full > 0 ? piece(i, u, false) : 0.0;
      const double dur_rem = rem > 0 ? piece(i, rem, false) : 0.0;
      lane.sum += (full > 0 ? full * dur : 0.0) + dur_rem;
      if (!grouped_) continue;
      const double fetch = Fetch(pack(i));
      if (i < L) {
        lane.head_fetch = fetch;
        lane.head_piece = full > 0 ? dur : dur_rem;
      } else if (exposes) {
        lane.sum += prefetch_ ? std::max(0.0, fetch - lane.top_span) : fetch;
      }
      if (prefetch_) lane.top_span = piece(i, last, true);
      // Until the drain pass below, top_drain holds the slot's last piece.
      const double last_piece = rem > 0 ? dur_rem : dur;
      if (i < slots - L) below_top += last_piece;
      lane.top_drain = last_piece;
    }
    if (!grouped_) continue;
    double drain = tail;
    for (int i = slots - 1; i >= 0 && i >= slots - L; --i) {
      const double last_piece = lanes[i % L].top_drain;
      lanes[i % L].top_drain = drain;
      drain += last_piece;
    }
    out->through_[si] = drain + below_top;
  }
}

void LaneFloor::ForwardPass(int u_fwd, const PackList& fwd_packs,
                            const Pack& last_bwd, Pass* out) const {
  HARMONY_CHECK(u_fwd >= 1 && u_fwd <= u_max_) << "u_fwd " << u_fwd;
  const int num_fwd = static_cast<int>(fwd_packs.size());
  // Without jit-compute the last backward pack gets a forward task of its
  // own, appended to P_F (as the generator does).
  auto pack = [&](int i) -> const Pack& {
    return i < num_fwd ? fwd_packs[i] : last_bwd;
  };
  FillPass(
      num_fwd + (jit_compute_ ? 0 : 1), u_fwd, /*backward=*/false, 0.0,
      [&](int i, int u, bool up) {
        return up ? RangeUp(FwdRow(u), pack(i)) * (1.0 + span_slack_)
                  : Range(FwdRow(u), pack(i));
      },
      pack, out);
}

void LaneFloor::BackwardPass(const PackList& bwd_packs, const Policy& policy,
                             Pass* out) const {
  HARMONY_CHECK(!bwd_packs.empty());
  const int num_bwd = static_cast<int>(bwd_packs.size());
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
  // Backward slot k runs the backward packs in reverse order; slot 0 is the
  // fused pack with jit-compute.
  auto pack = [&](int k) -> const Pack& {
    return bwd_packs[num_bwd - 1 - k];
  };
  // One piece of size `u` of slot k: a lower bound on the estimator's
  // duration, or (up) an upper bound on it.
  auto piece = [&](int k, int u, bool up) -> double {
    const Pack& p = pack(k);
    auto range = [&](const double* prefix) {
      return up ? RangeUp(prefix, p) : Range(prefix, p);
    };
    double t = range(BwdRow(u));
    if (jit_compute_ && k == 0) {
      t += range(FwdRow(u));
    } else {
      if (policy.remat_ != Policy::Remat::kNone) t += range(remat_row(u));
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
    return up ? t * (1.0 + span_slack_) : t;
  };
  // CPU-update tail: pack 0's update waits for the last piece of every
  // replica's last slot, swaps the gradient out, then runs on the CPU.
  double tail = 0;
  if (cpu_optimizer_) {
    const double params = static_cast<double>(
        param_prefix_[bwd_packs.front().hi + 1] -
        param_prefix_[bwd_packs.front().lo]);
    const int replicas =
        mode_ == HarmonyMode::kDataParallel ? num_devices_ : 1;
    tail = params / swap_bw_ + params * (2.0 + replicas) / cpu_update_bw_;
  }
  FillPass(num_bwd, policy.u_bwd_, /*backward=*/true, tail, piece, pack, out);
}

TimeSec LaneFloor::Compose(const Pass& fwd, const Pass& bwd) const {
  const int L = lanes_;
  const int F = fwd.slots_;
  const int B = bwd.slots_;
  HARMONY_DCHECK_GE(B, 1);
  double floor = 0;
  for (size_t si = 0; si < shares_.size(); ++si) {
    const Pass::Lane* fl = &fwd.lanes_[si * L];
    const Pass::Lane* bl = &bwd.lanes_[si * L];
    double prev_end = 0;  // end of piece 0 of the slot before (the fill)
    // Slot i sits on lane i mod L, and backward slot k is slot F + k, so
    // lane d holds forward slots iff d < F and backward slots of residue r.
    for (int d = 0; d < L && d < F + B; ++d) {
      const int r = ((d - F) % L + L) % L;
      const bool has_fwd = d < F;
      const bool has_bwd = r < B;
      double lane = (has_fwd ? fl[d].sum : 0.0) + (has_bwd ? bl[r].sum : 0.0);
      if (grouped_) {
        // Slot d opens lane d. Its piece 0 waits for its weights (no earlier
        // task to prefetch behind) and for piece 0 of slot d - 1, its
        // producer, except the first backward slot without jit-compute,
        // whose input is the loss.
        const Pass::Lane& head = has_fwd ? fl[d] : bl[d - F];
        const bool chained = d > 0 && (d != F || jit_compute_);
        const double start =
            std::max(chained ? prev_end : 0.0, head.head_fetch);
        prev_end = start + head.head_piece;
        lane += start;
        if (has_fwd && has_bwd) {
          // The lane's first backward slot follows its top forward slot.
          const double fetch = bl[r].head_fetch;
          lane += prefetch_ ? std::max(0.0, fetch - fl[d].top_span) : fetch;
        }
        // The drain after the lane's top slot: through the backward pass
        // when the chain reaches it.
        lane += has_bwd ? bl[r].top_drain
                        : fl[d].top_drain +
                              (jit_compute_ ? bwd.through_[si] : 0.0);
      }
      floor = std::max(floor, lane);
    }
  }
  return floor * (1.0 - lane_margin_);
}

TimeSec LaneFloor::Bound(const Configuration& config,
                         const Policy& policy) const {
  HARMONY_CHECK_EQ(config.u_bwd, policy.u_bwd_);
  HARMONY_CHECK(!config.bwd_packs.empty());
  // Per-thread stage storage: a warm call allocates nothing.
  thread_local Pass fwd;
  thread_local Pass bwd;
  ForwardPass(config.u_fwd, config.fwd_packs, config.bwd_packs.back(), &fwd);
  BackwardPass(config.bwd_packs, policy, &bwd);
  return Compose(fwd, bwd);
}

}  // namespace harmony::core
