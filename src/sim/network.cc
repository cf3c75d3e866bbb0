#include "sim/network.h"

#include <algorithm>
#include <limits>
#include <utility>

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

FlowNetwork::~FlowNetwork() {
  for (int slot : active_) engine_->DropHeld(flow_done_[slot]);
}

void FlowNetwork::EmitFlow(trace::EventKind kind, Bytes bytes) {
  if (bus_ == nullptr || !bus_->active()) return;
  trace::Event e;
  e.kind = kind;
  e.lane = trace::Lane::kNet;
  e.time = engine_->now();
  e.bytes = bytes;
  bus_->Emit(e);
}

void FlowNetwork::AddFlow(int64_t id, const std::vector<int>& path,
                          Bytes bytes, EventRec* done) {
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
    flow_bytes_.push_back(0);
    flow_done_.push_back(nullptr);
    frozen_epoch_.push_back(0);
  }
  flow_id_[slot] = id;
  flow_path_[slot].assign(path.begin(), path.end());
  flow_remaining_[slot] = static_cast<double>(bytes);
  flow_rate_[slot] = 0.0;
  flow_bytes_[slot] = bytes;
  flow_done_[slot] = done;
  // The new flow's id is the largest, so appending keeps every list sorted
  // by flow id.
  active_.push_back(slot);
  for (int link : path) link_flows_[link].push_back(slot);

  RecomputeRates();
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
      done_scratch_.emplace_back(std::exchange(flow_done_[slot], nullptr),
                                 flow_bytes_[slot]);
      RemoveFromLinks(slot);
      flow_path_[slot].clear();
      free_slots_.push_back(slot);
    } else {
      active_[keep++] = slot;
    }
  }
  active_.resize(keep);
  RecomputeRates();
  for (const auto& [done, bytes] : done_scratch_) {
    EmitFlow(trace::EventKind::kFlowEnd, bytes);
    engine_->RunHeld(done);
  }
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
    : capacities_(machine.NumLinks()),
      names_(machine.NumLinks()),
      num_gpus_(machine.num_gpus) {
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

  p2p_.resize(static_cast<size_t>(num_gpus_) * num_gpus_);
  for (int g = 0; g < num_gpus_; ++g) {
    const int s = machine.gpu_to_switch[g];
    swap_in_.push_back({machine.LinkHostRead(), machine.LinkSwitchDown(s),
                        machine.LinkGpuDown(g)});
    swap_out_.push_back({machine.LinkGpuUp(g), machine.LinkSwitchUp(s),
                         machine.LinkHostWrite()});
    for (int dst = 0; dst < num_gpus_; ++dst) {
      if (dst == g) continue;
      std::vector<int>& path = p2p_[g * num_gpus_ + dst];
      const int ds = machine.gpu_to_switch[dst];
      if (machine.nvlink_bw > 0) {
        // Dedicated NVLink ports: p2p bypasses the PCIe tree entirely.
        path = {machine.LinkNvlinkOut(g), machine.LinkNvlinkIn(dst)};
      } else if (s == ds) {
        path = {machine.LinkGpuUp(g), machine.LinkGpuDown(dst)};
      } else {
        // Cross-switch p2p bounces through the root complex (no DRAM hop).
        path = {machine.LinkGpuUp(g), machine.LinkSwitchUp(s),
                machine.LinkSwitchDown(ds), machine.LinkGpuDown(dst)};
      }
    }
  }
}

const std::vector<int>& Interconnect::SwapInPath(int gpu) const {
  return swap_in_.at(gpu);
}

const std::vector<int>& Interconnect::SwapOutPath(int gpu) const {
  return swap_out_.at(gpu);
}

const std::vector<int>& Interconnect::P2pPath(int src_gpu, int dst_gpu) const {
  HARMONY_CHECK_NE(src_gpu, dst_gpu);
  HARMONY_CHECK(src_gpu >= 0 && src_gpu < num_gpus_ && dst_gpu >= 0 &&
                dst_gpu < num_gpus_);
  return p2p_[src_gpu * num_gpus_ + dst_gpu];
}

std::string Interconnect::LinkName(int link) const { return names_.at(link); }

}  // namespace harmony::sim
