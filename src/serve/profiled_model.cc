#include "serve/profiled_model.h"

#include <utility>

#include "common/json.h"

namespace harmony::serve {

Result<ProfiledModel> ProfileModel(const ModelSpec& spec,
                                   const hw::GpuSpec& gpu) {
  auto graph = BuildModel(spec);
  HARMONY_RETURN_IF_ERROR(graph.status());
  model::SequentialModel seq = model::Sequentialize(graph.value());
  const profile::Profiler profiler(gpu, profile::ProfilerOptions{});
  profile::ProfileDb db = profiler.Profile(seq);
  return ProfiledModel{std::move(seq), std::move(db), DefaultOptimizer(spec)};
}

Result<std::shared_ptr<const ProfiledModel>> ProfileMemo::Resolve(
    const ModelSpec& spec, const hw::GpuSpec& gpu) {
  std::string key;
  json::Writer w(&key);
  w.BeginObject();
  w.Key("model");
  WriteModelSpec(spec, &w);
  w.Key("gpu");
  WriteGpuSpec(gpu, &w);
  w.EndObject();

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
  }
  auto built = ProfileModel(spec, gpu);
  HARMONY_RETURN_IF_ERROR(built.status());
  auto entry = std::make_shared<const ProfiledModel>(std::move(built).value());

  std::lock_guard<std::mutex> lock(mu_);
  // A racing resolver may have inserted first; keep the existing entry so
  // outstanding references stay unique per key.
  auto [it, inserted] = entries_.emplace(key, std::move(entry));
  std::shared_ptr<const ProfiledModel> out = it->second;
  if (inserted) order_.push_back(std::move(key));
  for (; entries_.size() > kCapacity; order_.pop_front()) {
    entries_.erase(order_.front());
  }
  return out;
}

}  // namespace harmony::serve
