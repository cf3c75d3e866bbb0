#ifndef HARMONY_BASELINES_BASELINES_H_
#define HARMONY_BASELINES_BASELINES_H_

#include "core/config.h"
#include "core/task_graph.h"
#include "hw/machine.h"
#include "model/layer.h"
#include "profile/profiler.h"

namespace harmony::baselines {

/// The per-GPU-swap baselines of Sec 5.1, lowered to the same TaskGraph IR
/// the Harmony Runtime executes. All of them model per-GPU memory
/// virtualization a la IBM-LMS: eviction always transfers (no clean drops),
/// no input-batch grouping, weight updates at iteration end on the GPU.

/// Conventional data parallelism with gradient accumulation (per-microbatch
/// forward+backward over the whole model) and LMS virtualization.
core::TaskGraph DpSwap(const profile::ProfileDb& profiles, int num_devices,
                       int minibatch, int microbatch);

/// GPipe: N compute-balanced stages pinned to GPUs; all microbatch forwards,
/// then all backwards (pipeline flush), update at the end. `recompute`
/// selects the "(R)" variant that checkpoints stage inputs instead of
/// stashing every layer's activations.
core::TaskGraph GpipeSwap(const profile::ProfileDb& profiles, int num_devices,
                          int minibatch, int microbatch, bool recompute);

/// PipeDream-2BW: same stages but a 1F1B interleaved schedule (bounded stash
/// depth, no mid-iteration flush) at the cost of a second resident weight
/// version per stage.
core::TaskGraph PipeDream2bwSwap(const profile::ProfileDb& profiles,
                                 int num_devices, int minibatch, int microbatch,
                                 bool recompute);

/// ZeRO-Infinity-style enhanced data parallelism: model and optimizer state
/// live in host memory, each layer's weights stream in per microbatch on
/// every GPU (no input-batch grouping), gradients push to host per
/// microbatch, and the optimizer runs on the CPU. Shares Harmony's
/// configuration (microbatch size and recompute pack sizes), per Sec 5.3.
core::TaskGraph ZeroInfinity(const profile::ProfileDb& profiles,
                             const core::Configuration& harmony_config,
                             int num_devices, int minibatch);

/// Host-memory overhead of ZeRO-Infinity's pinned staging buffers
/// (contiguous parameter + gradient staging), used for the Fig 15 host-OOM
/// experiment.
Bytes ZeroInfinityHostOverhead(const model::SequentialModel& model);

/// Splits layers into exactly `num_stages` contiguous stages minimizing the
/// maximum per-stage compute time (fwd+bwd at microbatch u) — the classic
/// compute-balanced pipeline partition (exposed for tests).
core::PackList BalancedStages(int num_stages, int microbatch,
                              const profile::ProfileDb& profiles);

/// Largest microbatch size (capped at `cap`) whose per-layer working set
/// leaves headroom on the GPU *and* whose in-flight activation stash fits in
/// host memory across `concurrent_stash_replicas` simultaneous holders (N
/// for data-parallel schemes); the baselines' per-GPU batch size.
int MaxFeasibleMicrobatch(const profile::ProfileDb& profiles,
                          const hw::MachineSpec& machine,
                          int concurrent_stash_replicas = 1, int cap = 32);

}  // namespace harmony::baselines

#endif  // HARMONY_BASELINES_BASELINES_H_
