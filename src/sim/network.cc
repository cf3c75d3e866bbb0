#include "sim/network.h"

#include <algorithm>
#include <limits>

namespace harmony::sim {

FlowNetwork::FlowNetwork(Engine* engine, std::vector<BytesPerSec> link_capacities)
    : engine_(engine),
      capacities_(std::move(link_capacities)),
      base_capacities_(capacities_),
      link_bytes_(capacities_.size(), 0.0),
      link_flows_(capacities_.size()),
      residual_(capacities_.size(), 0.0),
      nflows_(capacities_.size(), 0) {
  for (BytesPerSec c : capacities_) HARMONY_CHECK_GT(c, 0.0);
}

int64_t FlowNetwork::StartFlow(const std::vector<int>& path, Bytes bytes,
                               std::function<void()> done) {
  HARMONY_CHECK_GE(bytes, 0);
  const int64_t id = next_flow_id_++;
  if (bus_ != nullptr && bus_->active()) {
    trace::Event e;
    e.kind = trace::EventKind::kFlowBegin;
    e.lane = trace::Lane::kNet;
    e.time = engine_->now();
    e.bytes = bytes;
    bus_->Emit(e);
    done = [this, bytes, done = std::move(done)]() {
      trace::Event end;
      end.kind = trace::EventKind::kFlowEnd;
      end.lane = trace::Lane::kNet;
      end.time = engine_->now();
      end.bytes = bytes;
      bus_->Emit(end);
      done();
    };
  }
  if (bytes == 0 || path.empty()) {
    // Completes "immediately" but asynchronously, preserving callback order.
    engine_->After(0.0, std::move(done));
    return id;
  }
  for (int link : path) {
    HARMONY_CHECK_GE(link, 0);
    HARMONY_CHECK_LT(link, static_cast<int>(capacities_.size()));
  }
  AdvanceToNow();

  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int>(flow_id_.size());
    flow_id_.push_back(-1);
    flow_remaining_.push_back(0.0);
    flow_rate_.push_back(0.0);
    flow_path_.emplace_back();
    flow_done_.emplace_back();
    frozen_epoch_.push_back(0);
  }
  flow_id_[slot] = id;
  flow_path_[slot].assign(path.begin(), path.end());
  flow_remaining_[slot] = static_cast<double>(bytes);
  flow_rate_[slot] = 0.0;
  flow_done_[slot] = std::move(done);
  // The new flow's id is the largest, so appending keeps every list sorted
  // by flow id.
  active_.push_back(slot);
  for (int link : path) link_flows_[link].push_back(slot);

  RecomputeRates();
  return id;
}

void FlowNetwork::SetLinkCapacityFactor(int link, double factor) {
  HARMONY_CHECK_GE(link, 0);
  HARMONY_CHECK_LT(link, static_cast<int>(capacities_.size()));
  // Floor the factor so every rate stays strictly positive: the progressive
  // filling pass CHECKs shares > 0, and a literally dead link would wedge
  // flows forever with no completion event to cancel.
  constexpr double kMinFactor = 1e-6;
  const double clamped = std::max(factor, kMinFactor);
  const BytesPerSec target = base_capacities_[link] * clamped;
  if (target == capacities_[link]) return;
  AdvanceToNow();
  capacities_[link] = target;
  RecomputeRates();
}

void FlowNetwork::AdvanceToNow() {
  const TimeSec now = engine_->now();
  const double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0.0) return;
  for (int slot : active_) {
    const double moved = flow_rate_[slot] * dt;
    flow_remaining_[slot] = std::max(0.0, flow_remaining_[slot] - moved);
    for (int link : flow_path_[slot]) link_bytes_[link] += moved;
  }
}

void FlowNetwork::RecomputeRates() {
  // Progressive filling (max-min fairness): repeatedly saturate the most
  // constrained link, freezing the rates of the flows that traverse it.
  // All scratch (residual_, nflows_, frozen_epoch_) is reused; the only
  // per-round work is an O(links) scan plus the flows actually frozen.
  residual_.assign(capacities_.begin(), capacities_.end());
  for (size_t l = 0; l < link_flows_.size(); ++l) {
    nflows_[l] = static_cast<int>(link_flows_[l].size());
  }
  ++fill_epoch_;
  int unfrozen = static_cast<int>(active_.size());
  double min_dt = std::numeric_limits<double>::infinity();
  double prev_share = 0.0;
  while (unfrozen > 0) {
    // The binding link is the one offering the least residual share per flow.
    double best_share = std::numeric_limits<double>::infinity();
    int best_link = -1;
    for (size_t l = 0; l < residual_.size(); ++l) {
      if (nflows_[l] == 0) continue;
      const double share = residual_[l] / nflows_[l];
      if (share < best_share) {
        best_share = share;
        best_link = static_cast<int>(l);
      }
    }
    HARMONY_CHECK_GE(best_link, 0);
    // Fair-share floor: in exact arithmetic the binding share never decreases
    // across fill rounds (removing k flows at share s from a link with
    // residual r >= n*s leaves (r - k*s)/(n - k) >= s), so a later round's
    // share can only dip below an earlier one — in the worst case collapsing
    // to 0.0 on a link whose residual was eaten by repeated subtraction — via
    // floating-point error. Clamping to the previous round's share restores
    // the invariant and keeps every rate strictly positive.
    best_share = std::max(best_share, prev_share);
    HARMONY_CHECK_GT(best_share, 0.0);
    prev_share = best_share;
    for (int slot : link_flows_[best_link]) {
      // Skip flows frozen in an earlier round — and, for paths that traverse
      // the binding link more than once, duplicate entries within this round.
      if (frozen_epoch_[slot] == fill_epoch_) continue;
      frozen_epoch_[slot] = fill_epoch_;
      flow_rate_[slot] = best_share;
      --unfrozen;
      // Every flow freezes exactly once per recompute, so the projected
      // next-completion time is a by-product of the fill loop.
      min_dt = std::min(min_dt, flow_remaining_[slot] / flow_rate_[slot]);
      for (int link : flow_path_[slot]) {
        residual_[link] -= best_share;
        --nflows_[link];
      }
    }
    // Numerical safety: residual can go slightly negative from fp error.
    for (double& r : residual_) r = std::max(r, 0.0);
  }

  if (active_.empty()) {
    next_completion_time_ = std::numeric_limits<double>::infinity();
    return;
  }
  // now + min_dt, computed exactly the way Engine::After computes the event
  // time, so a wakeup re-armed from the stored projection lands on the same
  // double an enqueue-at-recompute would have.
  next_completion_time_ = engine_->now() + min_dt;
  if (!armed_times_.empty() && armed_times_.back() <= next_completion_time_) {
    // A pending wakeup already fires at or before the projection; it will
    // re-arm at next_completion_time_ if it turns out to be early.
    ++wakeups_suppressed_;
    return;
  }
  armed_times_.push_back(next_completion_time_);
  engine_->At(next_completion_time_, [this]() { OnWakeup(); });
}

void FlowNetwork::OnWakeup() {
  // Pending wakeups fire earliest-first, and the earliest is the back.
  armed_times_.pop_back();
  if (active_.empty()) return;
  if (engine_->now() < next_completion_time_) {
    // Early: the projection moved later after this wakeup was armed (a new
    // flow or a degraded link stretched everyone out). Re-arm at the stored
    // absolute projection unless a pending wakeup already covers it.
    if (armed_times_.empty() ||
        armed_times_.back() > next_completion_time_) {
      armed_times_.push_back(next_completion_time_);
      engine_->At(next_completion_time_, [this]() { OnWakeup(); });
    } else {
      ++wakeups_suppressed_;
    }
    return;
  }
  AdvanceToNow();
  // Collect and complete all flows that have drained (fp tolerance), keeping
  // the survivors' relative order (ascending flow id).
  done_scratch_.clear();
  size_t keep = 0;
  for (size_t i = 0; i < active_.size(); ++i) {
    const int slot = active_[i];
    // Sub-byte residue is floating-point error, not payload: a GB-scale
    // flow integrates with ~1e-7 relative error, so an absolute epsilon
    // below one byte would spin the engine on infinitesimal completions.
    if (flow_remaining_[slot] <= 1.0) {
      done_scratch_.push_back(std::move(flow_done_[slot]));
      RemoveFromLinks(slot);
      flow_done_[slot] = nullptr;
      flow_path_[slot].clear();
      free_slots_.push_back(slot);
    } else {
      active_[keep++] = slot;
    }
  }
  active_.resize(keep);
  RecomputeRates();
  for (auto& fn : done_scratch_) fn();
  done_scratch_.clear();
}

void FlowNetwork::RemoveFromLinks(int slot) {
  for (int link : flow_path_[slot]) {
    auto& on_link = link_flows_[link];
    // One entry per traversal; erase the first match, preserving order.
    auto it = std::find(on_link.begin(), on_link.end(), slot);
    HARMONY_CHECK(it != on_link.end());
    on_link.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Interconnect
// ---------------------------------------------------------------------------

Interconnect::Interconnect(const hw::MachineSpec& machine)
    : machine_(machine),
      capacities_(machine.NumLinks()),
      names_(machine.NumLinks()) {
  // Link ids come from hw::MachineSpec's Link* helpers, so a heterogeneous
  // machine's per-link scale applies by id. The scale is an exact 1.0
  // multiply on homogeneous machines.
  auto set_link = [&](int id, BytesPerSec cap, std::string name) {
    capacities_[id] = cap * machine.LinkScaleAt(id);
    names_[id] = std::move(name);
  };
  for (int g = 0; g < machine.num_gpus; ++g) {
    const std::string gpu = "gpu" + std::to_string(g);
    set_link(machine.LinkGpuUp(g), machine.pcie_bw, gpu + ".up");
    set_link(machine.LinkGpuDown(g), machine.pcie_bw, gpu + ".down");
    if (machine.nvlink_bw > 0) {
      set_link(machine.LinkNvlinkOut(g), machine.nvlink_bw, gpu + ".nvl.out");
      set_link(machine.LinkNvlinkIn(g), machine.nvlink_bw, gpu + ".nvl.in");
    }
  }
  for (int s = 0; s < machine.num_switches; ++s) {
    const std::string sw = "sw" + std::to_string(s);
    set_link(machine.LinkSwitchUp(s), machine.uplink_bw, sw + ".up");
    set_link(machine.LinkSwitchDown(s), machine.uplink_bw, sw + ".down");
  }
  set_link(machine.LinkHostWrite(), machine.host_mem_bw, "hostmem.write");
  set_link(machine.LinkHostRead(), machine.host_mem_bw, "hostmem.read");
}

std::vector<int> Interconnect::SwapInPath(int gpu) const {
  const int s = machine_.gpu_to_switch[gpu];
  return {machine_.LinkHostRead(), machine_.LinkSwitchDown(s),
          machine_.LinkGpuDown(gpu)};
}

std::vector<int> Interconnect::SwapOutPath(int gpu) const {
  const int s = machine_.gpu_to_switch[gpu];
  return {machine_.LinkGpuUp(gpu), machine_.LinkSwitchUp(s),
          machine_.LinkHostWrite()};
}

std::vector<int> Interconnect::P2pPath(int src_gpu, int dst_gpu) const {
  HARMONY_CHECK_NE(src_gpu, dst_gpu);
  if (machine_.nvlink_bw > 0) {
    // Dedicated NVLink ports: p2p bypasses the PCIe tree entirely.
    return {machine_.LinkNvlinkOut(src_gpu), machine_.LinkNvlinkIn(dst_gpu)};
  }
  const int ss = machine_.gpu_to_switch[src_gpu];
  const int ds = machine_.gpu_to_switch[dst_gpu];
  if (ss == ds) {
    return {machine_.LinkGpuUp(src_gpu), machine_.LinkGpuDown(dst_gpu)};
  }
  // Cross-switch p2p bounces through the root complex (no DRAM hop).
  return {machine_.LinkGpuUp(src_gpu), machine_.LinkSwitchUp(ss),
          machine_.LinkSwitchDown(ds), machine_.LinkGpuDown(dst_gpu)};
}

std::string Interconnect::LinkName(int link) const { return names_.at(link); }

}  // namespace harmony::sim
