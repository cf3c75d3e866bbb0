#ifndef HARMONY_SERVE_PROFILED_MODEL_H_
#define HARMONY_SERVE_PROFILED_MODEL_H_

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "profile/profiler.h"
#include "serve/wire.h"

namespace harmony::serve {

/// A model ready to plan (Fig 3's Profiler output): the sequentialized graph
/// a ModelSpec builds, its profile on one GPU (Sec 4.2), and the optimizer
/// the paper trains it with (Sec 5.1).
struct ProfiledModel {
  model::SequentialModel model;
  profile::ProfileDb profiles;
  model::Optimizer optimizer;
};

/// Builds, sequentializes and profiles `spec` on `gpu`; uncached.
Result<ProfiledModel> ProfileModel(const ModelSpec& spec,
                                   const hw::GpuSpec& gpu);

/// Memoizes ProfileModel, a pure function of (spec, GPU). The key is the
/// bytes WriteModelSpec + WriteGpuSpec write, compared in full, so specs
/// whose hashes collide never share a profile. At most kCapacity entries
/// are kept, the oldest evicted first; pointers already handed out stay
/// valid. Thread-safe.
class ProfileMemo {
 public:
  static constexpr size_t kCapacity = 256;

  Result<std::shared_ptr<const ProfiledModel>> Resolve(const ModelSpec& spec,
                                                       const hw::GpuSpec& gpu);
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const ProfiledModel>>
      entries_;
  std::deque<std::string> order_;  // keys of entries_, oldest first
};

}  // namespace harmony::serve

#endif  // HARMONY_SERVE_PROFILED_MODEL_H_
