#include "core/estimator.h"

#include <algorithm>
#include <limits>
#include <utility>
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
          if (trace->detailed()) {
            begin.name = "t" + std::to_string(id);
            if (!update) begin.name += " p" + std::to_string(k);
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
