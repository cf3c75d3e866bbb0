// The cold half of the residency layer: host-copy hooks used by CPU update
// steps, and the diagnostics that describe what a stuck device is waiting
// for. Split from residency.cc so the per-step allocation/eviction state
// machine stays a compact TU.

#include "common/units.h"
#include "runtime/residency.h"

namespace harmony::runtime {

// ---------------------------------------------------------------------------
// Host-side hooks
// ---------------------------------------------------------------------------

bool Residency::HostReady(TensorId id) {
  const TensorState& st = table_.Get(id);
  return st.exists && st.on_host;
}

void Residency::ReleaseHostCopy(TensorId id) {
  TensorState& st = table_.Get(id);
  if (st.on_host) {
    DropHostBuffer(&st);
    st.on_host = false;
  }
  if (st.resident_gpus == 0) st.exists = false;
}


std::string Residency::DescribePendingAllocs(int d) const {
  std::string out;
  for (const AllocReq& req : alloc_queue_[d]) {
    if (!out.empty()) out += ", ";
    out += KeyOf(req.id).ToString() + "(" + FormatBytes(req.bytes) + ")";
  }
  return out;
}

std::string Residency::DescribeWait(int d, const Step& step) {
  std::string out;
  auto add = [&out, this](TensorId id, const std::string& why) {
    if (!out.empty()) out += ", ";
    out += KeyOf(id).ToString() + " [" + why + "]";
  };
  for (const NeedSpec& n : step.needs) {
    TensorState& st = table_.Get(n.id);
    if (st.UsableOn(d)) continue;  // this need is satisfied
    if (!st.exists) {
      add(n.id, "unproduced");
    } else if (st.EvictingOn(d)) {
      add(n.id, "evicting from d" + std::to_string(d));
    } else if (st.fetch_in_flight) {
      add(n.id, "fetch in flight to d" + std::to_string(st.inflight_dst));
    } else if (st.on_host) {
      add(n.id, "on host, not fetched");
    } else if (int peer = st.StableGpu(); peer >= 0) {
      add(n.id, "resident on d" + std::to_string(peer));
    } else {
      add(n.id, "no stable copy");
    }
  }
  for (const ProduceSpec& p : step.produces) {
    if (!mem_[d].IsResident(p.id)) {
      add(p.id, "allocation not granted");
    }
  }
  if (out.empty()) {
    // Every need is resident and every allocation granted: the step is
    // stream-bound (e.g. a permanently stalled compute op under chaos).
    // Name the tensors anyway so a watchdog report pins the step's inputs.
    std::string keys;
    for (const NeedSpec& n : step.needs) {
      if (!keys.empty()) keys += ", ";
      keys += KeyOf(n.id).ToString();
    }
    out = "no unmet tensor waits; stream-bound with resident needs [" + keys +
          "]";
  }
  return out;
}

}  // namespace harmony::runtime
