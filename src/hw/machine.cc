#include "hw/machine.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace harmony::hw {

MachineSpec MachineSpec::Commodity4Gpu() {
  MachineSpec m;
  m.name = "4x GTX-1080Ti commodity server";
  m.num_gpus = 4;
  m.num_switches = 2;
  m.gpu_to_switch = {0, 0, 1, 1};
  m.host_memory = GiB(374.0);
  return m;
}

MachineSpec MachineSpec::Commodity8Gpu() {
  MachineSpec m;
  m.name = "8x GTX-1080Ti commodity server";
  m.num_gpus = 8;
  m.num_switches = 2;
  m.gpu_to_switch = {0, 0, 0, 0, 1, 1, 1, 1};
  m.host_memory = GiB(750.0);
  // Dual-socket box: twice the DMA-visible DRAM bandwidth and CPU update rate.
  m.host_mem_bw = GiBps(32.0);
  m.cpu_update_bw = GiBps(40.0);
  return m;
}

MachineSpec MachineSpec::WithNumGpus(int n) const {
  HARMONY_CHECK_GE(n, 1);
  HARMONY_CHECK_LE(n, num_gpus);
  MachineSpec m = *this;
  m.num_gpus = n;
  m.gpu_to_switch.assign(gpu_to_switch.begin(), gpu_to_switch.begin() + n);
  int max_switch = 0;
  for (int s : m.gpu_to_switch) max_switch = std::max(max_switch, s);
  m.num_switches = max_switch + 1;
  // Restriction changes the link-id layout: keep the surviving GPUs'
  // overrides, but any per-link scales are re-derived by the caller (the
  // old indices do not translate).
  if (!per_gpu.empty()) {
    m.per_gpu.assign(per_gpu.begin(), per_gpu.begin() + n);
  }
  m.link_bw_scale.clear();
  return m;
}

MachineSpec MachineSpec::WithNvlink(BytesPerSec bandwidth) const {
  HARMONY_CHECK_GT(bandwidth, 0.0);
  MachineSpec m = *this;
  m.nvlink_bw = bandwidth;
  return m;
}

// ---------------------------------------------------------------------------
// Heterogeneous fleets
// ---------------------------------------------------------------------------

Bytes MachineSpec::MinUsableMemory() const {
  if (per_gpu.empty()) return gpu.usable_memory();
  Bytes m = per_gpu[0].usable_memory();
  for (const GpuSpec& g : per_gpu) m = std::min(m, g.usable_memory());
  return m;
}

const GpuSpec& MachineSpec::PlanningGpu() const {
  if (per_gpu.empty()) return gpu;
  const GpuSpec* slowest = &per_gpu[0];
  for (const GpuSpec& g : per_gpu) {
    if (g.peak_flops < slowest->peak_flops) slowest = &g;
  }
  return *slowest;
}

double MachineSpec::MinGpuLinkScale() const {
  if (link_bw_scale.empty()) return 1.0;
  double m = 1.0;
  for (int g = 0; g < num_gpus; ++g) {
    m = std::min({m, LinkScaleAt(LinkGpuUp(g)), LinkScaleAt(LinkGpuDown(g))});
  }
  return m;
}

double MachineSpec::MinSwitchLinkScale() const {
  if (link_bw_scale.empty()) return 1.0;
  double m = 1.0;
  for (int s = 0; s < num_switches; ++s) {
    m = std::min(
        {m, LinkScaleAt(LinkSwitchUp(s)), LinkScaleAt(LinkSwitchDown(s))});
  }
  return m;
}

double MachineSpec::MinHostMemScale() const {
  if (link_bw_scale.empty()) return 1.0;
  return std::min(LinkScaleAt(LinkHostWrite()), LinkScaleAt(LinkHostRead()));
}

BytesPerSec MachineSpec::EffectiveSwapBw(int active_gpus) const {
  BytesPerSec bw =
      std::min(pcie_bw * MinGpuLinkScale(),
               host_mem_bw * MinHostMemScale() / std::max(1, active_gpus));
  // A degraded switch uplink sits on every swap path; fold it in only when
  // degraded so the nominal value stays bit-identical to the historical
  // two-term min regardless of the uplink_bw calibration.
  const double s = MinSwitchLinkScale();
  if (s < 1.0) bw = std::min(bw, uplink_bw * s);
  return bw;
}

BytesPerSec MachineSpec::EffectiveP2pBw() const {
  BytesPerSec bw = pcie_bw * MinGpuLinkScale();
  const double s = MinSwitchLinkScale();
  if (s < 1.0) bw = std::min(bw, uplink_bw * s);
  return bw;
}

MachineSpec MachineSpec::WithGpuOverride(int g, const GpuSpec& spec) const {
  HARMONY_CHECK_GE(g, 0);
  HARMONY_CHECK_LT(g, num_gpus);
  MachineSpec m = *this;
  if (m.per_gpu.empty()) m.per_gpu.assign(num_gpus, gpu);
  m.per_gpu[g] = spec;
  return m;
}

MachineSpec MachineSpec::WithLinkScale(int link, double factor) const {
  HARMONY_CHECK_GE(link, 0);
  HARMONY_CHECK_LT(link, NumLinks());
  HARMONY_CHECK_GT(factor, 0.0);
  MachineSpec m = *this;
  if (m.link_bw_scale.empty()) m.link_bw_scale.assign(NumLinks(), 1.0);
  m.link_bw_scale[link] *= factor;
  return m;
}

Status MachineSpec::Validate() const {
  if (num_gpus < 1) return Status::InvalidArgument("machine: num_gpus < 1");
  if (num_gpus > kMaxGpus) {
    return Status::InvalidArgument("machine: num_gpus > " +
                                   std::to_string(kMaxGpus));
  }
  if (num_switches < 1) {
    return Status::InvalidArgument("machine: num_switches < 1");
  }
  if (static_cast<int>(gpu_to_switch.size()) != num_gpus) {
    return Status::InvalidArgument("machine: gpu_to_switch size != num_gpus");
  }
  for (int s : gpu_to_switch) {
    if (s < 0 || s >= num_switches) {
      return Status::InvalidArgument(
          "machine: gpu_to_switch entry " + std::to_string(s) +
          " outside [0, " + std::to_string(num_switches) + ")");
    }
  }
  // Written so that NaN fails too; a non-finite rate prices every transfer
  // at zero or NaN seconds.
  auto positive = [](double x) { return x > 0 && std::isfinite(x); };
  if (!positive(pcie_bw) || !positive(uplink_bw) || !positive(host_mem_bw) ||
      !positive(cpu_update_bw) || !(nvlink_bw >= 0 && std::isfinite(nvlink_bw))) {
    return Status::InvalidArgument(
        "machine: bandwidth not positive and finite");
  }
  if (host_memory <= 0) {
    return Status::InvalidArgument("machine: non-positive host memory");
  }
  auto check_gpu = [](const GpuSpec& g, const std::string& which) -> Status {
    if (g.memory_capacity <= 0) {
      return Status::InvalidArgument("machine: " + which +
                                     " has non-positive memory capacity");
    }
    if (!(g.peak_flops > 0) || !std::isfinite(g.peak_flops)) {
      return Status::InvalidArgument("machine: " + which +
                                     " peak flops not positive and finite");
    }
    if (!(g.usable_fraction > 0.0 && g.usable_fraction <= 1.0)) {
      return Status::InvalidArgument("machine: " + which +
                                     " usable_fraction outside (0, 1]");
    }
    return Status::Ok();
  };
  HARMONY_RETURN_IF_ERROR(check_gpu(gpu, "gpu"));
  if (!per_gpu.empty() && static_cast<int>(per_gpu.size()) != num_gpus) {
    return Status::InvalidArgument("machine: per_gpu size != num_gpus");
  }
  for (size_t g = 0; g < per_gpu.size(); ++g) {
    HARMONY_RETURN_IF_ERROR(
        check_gpu(per_gpu[g], "per_gpu[" + std::to_string(g) + "]"));
  }
  if (!link_bw_scale.empty() &&
      static_cast<int>(link_bw_scale.size()) != NumLinks()) {
    return Status::InvalidArgument("machine: link_bw_scale size " +
                                   std::to_string(link_bw_scale.size()) +
                                   " != NumLinks() " +
                                   std::to_string(NumLinks()));
  }
  for (size_t l = 0; l < link_bw_scale.size(); ++l) {
    const double f = link_bw_scale[l];
    if (!(f > 0.0) || f > 1e3) {
      return Status::InvalidArgument("machine: link_bw_scale[" +
                                     std::to_string(l) + "] outside (0, 1e3]");
    }
  }
  return Status::Ok();
}

}  // namespace harmony::hw
