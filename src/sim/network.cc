#include "sim/network.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace harmony::sim {

FlowNetwork::FlowNetwork(Engine* engine,
                         const std::vector<BytesPerSec>& link_capacities)
    : engine_(engine) {
  Reset(link_capacities);
}

FlowNetwork::~FlowNetwork() {
  for (int slot : active_) engine_->DropHeld(flow_done_[slot]);
}

void FlowNetwork::Reset(const std::vector<BytesPerSec>& link_capacities) {
  for (BytesPerSec c : link_capacities) HARMONY_CHECK_GT(c, 0.0);
  for (int slot : active_) engine_->DropHeld(flow_done_[slot]);
  active_.clear();
  bus_ = nullptr;
  const size_t links = link_capacities.size();
  capacities_.assign(link_capacities.begin(), link_capacities.end());
  base_capacities_.assign(link_capacities.begin(), link_capacities.end());
  link_bytes_.assign(links, 0.0);
  if (link_flows_.size() < links) link_flows_.resize(links);
  for (std::vector<int>& on_link : link_flows_) on_link.clear();
  residual_.assign(links, 0.0);
  nflows_.assign(links, 0);
  free_slots_.clear();
  for (int slot = static_cast<int>(flow_id_.size()) - 1; slot >= 0; --slot) {
    flow_path_[slot].clear();
    flow_done_[slot] = nullptr;
    frozen_epoch_[slot] = 0;
    free_slots_.push_back(slot);
  }
  fill_epoch_ = 0;
  done_scratch_.clear();
  next_flow_id_ = 0;
  last_update_ = 0.0;
  armed_times_.clear();
  next_completion_time_ = 0.0;
  wakeups_suppressed_ = 0;
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
  for (size_t l = 0; l < nflows_.size(); ++l) {
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

void Interconnect::Reset(const hw::MachineSpec& machine) {
  num_gpus_ = machine.num_gpus;
  num_switches_ = machine.num_switches;
  // Link ids come from hw::MachineSpec's Link* helpers, so a heterogeneous
  // machine's per-link scale applies by id. The scale is an exact 1.0
  // multiply on homogeneous machines.
  capacities_.assign(machine.NumLinks(), 0.0);
  auto set_link = [&](int id, BytesPerSec cap) {
    capacities_[id] = cap * machine.LinkScaleAt(id);
  };
  for (int g = 0; g < num_gpus_; ++g) {
    set_link(machine.LinkGpuUp(g), machine.pcie_bw);
    set_link(machine.LinkGpuDown(g), machine.pcie_bw);
    if (machine.nvlink_bw > 0) {
      set_link(machine.LinkNvlinkOut(g), machine.nvlink_bw);
      set_link(machine.LinkNvlinkIn(g), machine.nvlink_bw);
    }
  }
  for (int s = 0; s < num_switches_; ++s) {
    set_link(machine.LinkSwitchUp(s), machine.uplink_bw);
    set_link(machine.LinkSwitchDown(s), machine.uplink_bw);
  }
  set_link(machine.LinkHostWrite(), machine.host_mem_bw);
  set_link(machine.LinkHostRead(), machine.host_mem_bw);

  const size_t gpus = static_cast<size_t>(num_gpus_);
  if (swap_in_.size() < gpus) {
    swap_in_.resize(gpus);
    swap_out_.resize(gpus);
  }
  if (p2p_.size() < gpus * gpus) p2p_.resize(gpus * gpus);
  for (int g = 0; g < num_gpus_; ++g) {
    const int s = machine.gpu_to_switch[g];
    swap_in_[g].assign({machine.LinkHostRead(), machine.LinkSwitchDown(s),
                        machine.LinkGpuDown(g)});
    swap_out_[g].assign({machine.LinkGpuUp(g), machine.LinkSwitchUp(s),
                         machine.LinkHostWrite()});
    for (int dst = 0; dst < num_gpus_; ++dst) {
      std::vector<int>& path = p2p_[g * num_gpus_ + dst];
      const int ds = machine.gpu_to_switch[dst];
      if (dst == g) {
        path.clear();
      } else if (machine.nvlink_bw > 0) {
        // Dedicated NVLink ports: p2p bypasses the PCIe tree entirely.
        path.assign({machine.LinkNvlinkOut(g), machine.LinkNvlinkIn(dst)});
      } else if (s == ds) {
        path.assign({machine.LinkGpuUp(g), machine.LinkGpuDown(dst)});
      } else {
        // Cross-switch p2p bounces through the root complex (no DRAM hop).
        path.assign({machine.LinkGpuUp(g), machine.LinkSwitchUp(s),
                     machine.LinkSwitchDown(ds), machine.LinkGpuDown(dst)});
      }
    }
  }
}

const std::vector<int>& Interconnect::SwapInPath(int gpu) const {
  HARMONY_CHECK(gpu >= 0 && gpu < num_gpus_);
  return swap_in_[gpu];
}

const std::vector<int>& Interconnect::SwapOutPath(int gpu) const {
  HARMONY_CHECK(gpu >= 0 && gpu < num_gpus_);
  return swap_out_[gpu];
}

const std::vector<int>& Interconnect::P2pPath(int src_gpu, int dst_gpu) const {
  HARMONY_CHECK_NE(src_gpu, dst_gpu);
  HARMONY_CHECK(src_gpu >= 0 && src_gpu < num_gpus_ && dst_gpu >= 0 &&
                dst_gpu < num_gpus_);
  return p2p_[src_gpu * num_gpus_ + dst_gpu];
}

std::string Interconnect::LinkName(int link) const {
  // Inverts MachineSpec's link-id layout: GPU PCIe pairs, switch uplink
  // pairs, host DRAM write/read, then NVLink pairs.
  HARMONY_CHECK(link >= 0 && link < num_links());
  const int gpu_links = 2 * num_gpus_;
  const int host = gpu_links + 2 * num_switches_;
  const bool second = link % 2 == 1;
  if (link < gpu_links) {
    return "gpu" + std::to_string(link / 2) + (second ? ".down" : ".up");
  }
  if (link < host) {
    return "sw" + std::to_string((link - gpu_links) / 2) +
           (second ? ".down" : ".up");
  }
  if (link < host + 2) return second ? "hostmem.read" : "hostmem.write";
  return "gpu" + std::to_string((link - host - 2) / 2) +
         (second ? ".nvl.in" : ".nvl.out");
}

}  // namespace harmony::sim
