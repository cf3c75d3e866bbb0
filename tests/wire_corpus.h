#ifndef HARMONY_TESTS_WIRE_CORPUS_H_
#define HARMONY_TESTS_WIRE_CORPUS_H_

// The seeded request corpus behind Fingerprint.SeededCorpusIsPinned, shared
// with the plan-frame mutation corpus. It covers every ModelSpec kind,
// heterogeneous machines, both modes, every PolicyMode, fractional doubles,
// integers past 2^53 and names that need escaping. The draw order is part
// of the pinned hashes: append, never reorder.

#include <iterator>
#include <string>

#include "common/rng.h"
#include "hw/machine.h"
#include "serve/wire.h"

namespace harmony::wire_corpus {

inline std::string CorpusName(Rng* rng, const std::string& stem) {
  static const char* kOddities[] = {"\"", "\\", "\n", "\x01", "\xc3\xa9",
                                    "\xe2\x82\xac", "\t", "/"};
  std::string name = stem;
  const int extras = static_cast<int>(rng->NextBounded(3));
  for (int i = 0; i < extras; ++i) {
    name += kOddities[rng->NextBounded(std::size(kOddities))];
    name += std::to_string(rng->NextBounded(100));
  }
  return name;
}

inline hw::GpuSpec CorpusGpu(Rng* rng) {
  hw::GpuSpec g;
  g.name = CorpusName(rng, "gpu");
  g.memory_capacity = rng->NextBounded(4) == 0
                          ? static_cast<Bytes>(rng->NextInt(int64_t{1} << 53,
                                                            int64_t{1} << 60))
                          : static_cast<Bytes>(rng->NextInt(1, int64_t{1} << 40));
  g.peak_flops = 1e12 + rng->NextDouble() * 1e14;
  g.usable_fraction = 0.5 + rng->NextDouble() / 2;
  return g;
}

inline serve::PlanRequest CorpusRequest(Rng* rng, int i) {
  using serve::ModelSpec;
  serve::PlanRequest r;
  switch (i % 3) {
    case 0: {
      static const char* kBuiltins[] = {"BERT-Large", "BERT96", "GPT2",
                                        "GPT2-Medium", "VGG416", "ResNet1K"};
      r.model.kind = ModelSpec::Kind::kBuiltin;
      r.model.name = rng->NextBounded(4) == 0
                         ? CorpusName(rng, "custom")
                         : kBuiltins[rng->NextBounded(std::size(kBuiltins))];
      break;
    }
    case 1:
      r.model.kind = ModelSpec::Kind::kGpt2Custom;
      r.model.billions = 0.1 + rng->NextDouble() * 40;
      r.model.name = "GPT2-" + std::to_string(r.model.billions) + "B";
      break;
    default:
      r.model.kind = ModelSpec::Kind::kTransformer;
      r.model.transformer.name = CorpusName(rng, "tx");
      r.model.name = r.model.transformer.name;
      r.model.transformer.num_blocks = static_cast<int>(rng->NextInt(1, 96));
      r.model.transformer.hidden = static_cast<int>(rng->NextInt(64, 8192));
      r.model.transformer.seq_len = static_cast<int>(rng->NextInt(16, 2048));
      r.model.transformer.heads = static_cast<int>(rng->NextInt(1, 64));
      r.model.transformer.vocab = static_cast<int>(rng->NextInt(100, 60000));
      r.model.transformer.is_bert = rng->NextBounded(2) == 0;
      break;
  }
  r.machine = rng->NextBounded(2) == 0 ? hw::MachineSpec::Commodity4Gpu()
                                       : hw::MachineSpec::Commodity8Gpu();
  r.machine.name = CorpusName(rng, r.machine.name);
  r.machine.gpu = CorpusGpu(rng);
  r.machine.pcie_bw *= 0.5 + rng->NextDouble();
  r.machine.host_memory = static_cast<Bytes>(rng->NextInt(1, int64_t{1} << 42));
  r.machine.cpu_update_bw = rng->NextDouble() * 1e11;
  if (i % 4 == 1 || i % 4 == 3) {
    r.machine.per_gpu.clear();
    for (int g = 0; g < r.machine.num_gpus; ++g) {
      r.machine.per_gpu.push_back(CorpusGpu(rng));
    }
  }
  if (i % 4 >= 2) {
    r.machine.link_bw_scale.clear();
    for (int l = 0; l < r.machine.NumLinks(); ++l) {
      r.machine.link_bw_scale.push_back(0.05 + rng->NextDouble());
    }
  }
  r.mode = i % 2 == 0 ? core::HarmonyMode::kPipelineParallel
                      : core::HarmonyMode::kDataParallel;
  r.minibatch = static_cast<int>(rng->NextInt(1, 512));
  r.flags.input_batch_grouping = rng->NextBounded(2) == 0;
  r.flags.jit_update = rng->NextBounded(2) == 0;
  r.flags.jit_compute = rng->NextBounded(2) == 0;
  r.flags.p2p_transfers = rng->NextBounded(2) == 0;
  r.flags.prefetch = rng->NextBounded(2) == 0;
  r.flags.cpu_optimizer = rng->NextBounded(2) == 0;
  r.flags.smart_eviction = rng->NextBounded(2) == 0;
  r.options.u_fwd_max = static_cast<int>(rng->NextInt(1, 64));
  r.options.u_bwd_max = static_cast<int>(rng->NextInt(1, 64));
  r.options.capacity_fraction = 0.05 + rng->NextDouble() * 0.95;
  r.options.equi_fb = rng->NextBounded(2) == 0;
  r.options.num_threads = static_cast<int>(rng->NextInt(1, 8));
  r.options.keep_explored = rng->NextBounded(2) == 0;
  r.options.policy_mode = static_cast<core::PolicyMode>(i % 6);
  r.run_iteration = rng->NextBounded(2) == 0;
  r.deadline_ms = static_cast<int>(rng->NextInt(0, 100000));
  r.bypass_cache = rng->NextBounded(2) == 0;
  return r;
}

}  // namespace harmony::wire_corpus

#endif  // HARMONY_TESTS_WIRE_CORPUS_H_
