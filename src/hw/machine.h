#ifndef HARMONY_HW_MACHINE_H_
#define HARMONY_HW_MACHINE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace harmony::hw {

/// A single accelerator. Defaults approximate an NVIDIA GTX-1080Ti, the GPU
/// used throughout the paper's evaluation (Sec 5.1).
struct GpuSpec {
  std::string name = "GTX-1080Ti";
  Bytes memory_capacity = GiB(11.0);
  /// Peak FP32 throughput.
  Flops peak_flops = 11.34e12;
  /// Fraction of `memory_capacity` usable for tensors (the rest is framework
  /// workspace / CUDA context, which the paper counts separately in Fig 8).
  double usable_fraction = 0.92;

  Bytes usable_memory() const {
    return static_cast<Bytes>(static_cast<double>(memory_capacity) * usable_fraction);
  }
};

/// Identifies an endpoint in the PCIe tree.
struct DeviceId {
  enum class Kind { kHost, kGpu };
  Kind kind = Kind::kHost;
  int index = 0;  // GPU ordinal; 0 for host.

  static DeviceId Host() { return {Kind::kHost, 0}; }
  static DeviceId Gpu(int i) { return {Kind::kGpu, i}; }

  bool is_gpu() const { return kind == Kind::kGpu; }
  bool operator==(const DeviceId& o) const { return kind == o.kind && index == o.index; }
};

/// Directed link in the interconnect. Links come in pairs (one per PCIe
/// direction); contention is modeled per direction, matching the paper's
/// "16GB/s per direction" characterization.
struct LinkId {
  int id = -1;
  bool operator==(const LinkId& o) const { return id == o.id; }
};

/// Most GPUs one machine may have: the runtime keeps sets of devices as
/// 32-bit masks.
inline constexpr int kMaxGpus = 32;

/// A commodity multi-GPU server: GPUs hang off PCIe switches which share
/// uplinks into the host root complex (Fig 2a). `gpu_to_switch[g]` gives the
/// switch for GPU g; each switch has one uplink. When every GPU swaps
/// simultaneously the shared uplinks become the bottleneck — the 4:1 / 8:1
/// oversubscription the paper calls out in Sec 2.
struct MachineSpec {
  std::string name;
  GpuSpec gpu;
  int num_gpus = 4;
  std::vector<int> gpu_to_switch;  // size num_gpus
  int num_switches = 2;

  /// Heterogeneous-fleet overrides. Empty = homogeneous (every GPU is `gpu`,
  /// every link runs at its spec bandwidth) — the common case, and the one
  /// every pre-existing code path must reproduce bit-for-bit. When non-empty,
  /// `per_gpu` has exactly `num_gpus` entries (GpuAt) and `link_bw_scale` has
  /// exactly NumLinks() entries of positive capacity multipliers indexed by
  /// the canonical link-id layout below (LinkScaleAt). The health monitor
  /// synthesizes degraded machines through these fields; planners consume
  /// them through MinUsableMemory()/PlanningGpu()/EffectiveSwapBw().
  std::vector<GpuSpec> per_gpu;        // empty or size num_gpus
  std::vector<double> link_bw_scale;   // empty or size NumLinks()

  /// Effective per-direction bandwidth of one PCIe 3.0 x16 hop (16 GB/s raw,
  /// ~85% achievable after protocol overhead).
  BytesPerSec pcie_bw = GiBps(13.6);
  /// Per-direction bandwidth of each switch->host uplink.
  BytesPerSec uplink_bw = GiBps(13.6);
  /// Aggregate host DRAM bandwidth available to DMA traffic (all GPUs
  /// share): bounded by the root complex and pinned-buffer copies, well
  /// below raw DDR4 bandwidth.
  BytesPerSec host_mem_bw = GiBps(16.0);

  /// Per-direction bandwidth of a dedicated GPU<->GPU NVLink port (0 = the
  /// machine has no NVLink; the paper's commodity boxes do not, and footnote
  /// 3 notes NVLink "will only enhance Harmony's advantages due to p2p
  /// transfers" — WithNvlink() lets experiments test exactly that).
  BytesPerSec nvlink_bw = 0;

  Bytes host_memory = GiB(374.0);
  /// Effective rate at which the CPU applies optimizer updates (bytes of
  /// parameter state touched per second); models CPU-offloaded Adam.
  BytesPerSec cpu_update_bw = GiBps(20.0);

  /// True if p2p between two GPUs stays under a single switch (full-bandwidth
  /// path that does not consume host uplinks).
  bool SameSwitch(int gpu_a, int gpu_b) const {
    return gpu_to_switch[gpu_a] == gpu_to_switch[gpu_b];
  }

  /// The 4-GPU GTX-1080Ti server of Sec 5.1 (two switches, two GPUs each,
  /// 374 GB host RAM).
  static MachineSpec Commodity4Gpu();

  /// The 8-GPU server of Sec 5.7 (two switches, four GPUs each — 4:1
  /// oversubscription — 750 GB host RAM).
  static MachineSpec Commodity8Gpu();

  /// A copy of this machine restricted to the first `n` GPUs (used by the
  /// Fig 16 scalability sweep).
  MachineSpec WithNumGpus(int n) const;

  /// A copy of this machine with NVLink p2p ports of the given per-direction
  /// bandwidth (e.g. GiBps(22) for NVLink 1.0 as on a DGX-1).
  MachineSpec WithNvlink(BytesPerSec bandwidth) const;

  // --- heterogeneous fleets -------------------------------------------------

  /// The spec of GPU `g` (the shared `gpu` unless overridden).
  const GpuSpec& GpuAt(int g) const {
    return per_gpu.empty() ? gpu : per_gpu[g];
  }

  /// Smallest usable memory across the fleet — what packing must fit, since
  /// Harmony assigns the same capacity budget to every device.
  Bytes MinUsableMemory() const;

  /// The GPU the planner profiles compute costs on: the slowest device of a
  /// heterogeneous fleet (lowest peak_flops, ties to the lowest index), so a
  /// uniform schedule never underestimates a pack's compute time. Returns
  /// `gpu` exactly on a homogeneous machine.
  const GpuSpec& PlanningGpu() const;

  /// Canonical link-id layout, the one definition sim::Interconnect builds
  /// its links from: per-GPU PCIe up/down pairs, per-switch uplink up/down
  /// pairs, host DRAM write/read, then (NVLink machines only) per-GPU NVLink
  /// out/in pairs.
  int LinkGpuUp(int g) const { return 2 * g; }
  int LinkGpuDown(int g) const { return 2 * g + 1; }
  int LinkSwitchUp(int s) const { return 2 * num_gpus + 2 * s; }
  int LinkSwitchDown(int s) const { return 2 * num_gpus + 2 * s + 1; }
  int LinkHostWrite() const { return 2 * num_gpus + 2 * num_switches; }
  int LinkHostRead() const { return 2 * num_gpus + 2 * num_switches + 1; }
  int LinkNvlinkOut(int g) const {
    return 2 * num_gpus + 2 * num_switches + 2 + 2 * g;
  }
  int LinkNvlinkIn(int g) const { return LinkNvlinkOut(g) + 1; }
  int NumLinks() const {
    return 2 * num_gpus + 2 * num_switches + 2 +
           (nvlink_bw > 0 ? 2 * num_gpus : 0);
  }

  /// Capacity multiplier of `link` (1.0 unless overridden).
  double LinkScaleAt(int link) const {
    return link_bw_scale.empty() ? 1.0 : link_bw_scale[link];
  }

  /// Smallest scale across the per-GPU PCIe links / the switch uplink
  /// pairs / the host DRAM links — the conservative factors the planner
  /// folds into its two effective bandwidths. All are exactly 1.0 on a
  /// homogeneous machine.
  double MinGpuLinkScale() const;
  double MinSwitchLinkScale() const;
  double MinHostMemScale() const;

  /// The planner's effective per-device swap bandwidth with `active_gpus`
  /// devices swapping concurrently: min(scaled PCIe hop, fair share of the
  /// scaled host DRAM bandwidth). Every swap (and cross-switch p2p) hop
  /// also crosses a switch uplink, so a *degraded* uplink is folded in as
  /// an extra min term — but only when its scale is < 1.0: at nominal the
  /// uplink never binds tighter than what planning already assumed, which
  /// keeps this bit-identical to the historical min(pcie_bw,
  /// host_mem_bw / N) when no link scales are set.
  BytesPerSec EffectiveSwapBw(int active_gpus) const;
  /// The planner's effective p2p bandwidth (scaled PCIe hop, degraded
  /// uplink folded in the same way).
  BytesPerSec EffectiveP2pBw() const;

  /// A copy with GPU `g` overridden to `spec` (materializes `per_gpu`).
  MachineSpec WithGpuOverride(int g, const GpuSpec& spec) const;
  /// A copy with `link`'s bandwidth scaled by `factor` (materializes
  /// `link_bw_scale`; factors compose multiplicatively with existing ones).
  MachineSpec WithLinkScale(int link, double factor) const;

  /// Structural validation of the descriptor — topology sizes, positive
  /// bandwidths and capacities, override-vector sizes, link-scale ranges.
  /// Every wire ingestion point and every synthesized degraded machine goes
  /// through this before planning.
  Status Validate() const;
};

}  // namespace harmony::hw

#endif  // HARMONY_HW_MACHINE_H_
