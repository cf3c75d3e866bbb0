#include "model/policy.h"

#include <sstream>

#include "common/logging.h"

namespace harmony::model {

const char* StashPolicyName(StashPolicy p) {
  switch (p) {
    case StashPolicy::kKeep: return "keep";
    case StashPolicy::kSwap: return "swap";
    case StashPolicy::kRecompute: return "recompute";
  }
  return "?";
}

char StashPolicyCode(StashPolicy p) {
  switch (p) {
    case StashPolicy::kKeep: return 'k';
    case StashPolicy::kSwap: return 's';
    case StashPolicy::kRecompute: return 'r';
  }
  return '?';
}

PolicyTable PolicyTable::Uniform(int num_layers, StashPolicy fill) {
  PolicyTable t;
  t.AssignUniform(num_layers, fill);
  return t;
}

void PolicyTable::AssignUniform(int num_layers, StashPolicy fill) {
  HARMONY_CHECK_GE(num_layers, 1);
  entries_.assign(num_layers, fill);
}

void PolicyTable::Set(int layer, StashPolicy p) {
  HARMONY_CHECK_GE(layer, 0);
  HARMONY_CHECK_LT(layer, num_layers());
  entries_[layer] = p;
}

bool PolicyTable::IsUniform(StashPolicy p) const {
  if (entries_.empty()) return false;
  for (StashPolicy e : entries_) {
    if (e != p) return false;
  }
  return true;
}

int PolicyTable::Count(StashPolicy p) const {
  int n = 0;
  for (StashPolicy e : entries_) n += e == p ? 1 : 0;
  return n;
}

std::string PolicyTable::ToString() const {
  std::ostringstream os;
  const int n = num_layers();
  for (int lo = 0; lo < n;) {
    int hi = lo;
    while (hi + 1 < n && entries_[hi + 1] == entries_[lo]) ++hi;
    if (lo > 0) os << ",";
    os << StashPolicyCode(entries_[lo]) << lo;
    if (hi > lo) os << "-" << hi;
    lo = hi + 1;
  }
  return os.str();
}

Result<PolicyTable> PolicyTable::FromString(const std::string& s) {
  PolicyTable t;
  if (s.empty()) return t;
  size_t pos = 0;
  int expected_lo = 0;
  while (pos < s.size()) {
    StashPolicy p;
    switch (s[pos]) {
      case 'k': p = StashPolicy::kKeep; break;
      case 's': p = StashPolicy::kSwap; break;
      case 'r': p = StashPolicy::kRecompute; break;
      default:
        return Status::InvalidArgument("policy table: bad code at '" +
                                       s.substr(pos) + "'");
    }
    ++pos;
    auto parse_int = [&](int* out) -> bool {
      size_t start = pos;
      while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') ++pos;
      if (pos == start) return false;
      *out = std::stoi(s.substr(start, pos - start));
      return true;
    };
    int lo = 0, hi = 0;
    if (!parse_int(&lo)) {
      return Status::InvalidArgument("policy table: missing layer index");
    }
    hi = lo;
    if (pos < s.size() && s[pos] == '-') {
      ++pos;
      if (!parse_int(&hi)) {
        return Status::InvalidArgument("policy table: missing range end");
      }
    }
    if (lo != expected_lo || hi < lo) {
      return Status::InvalidArgument(
          "policy table: runs must be contiguous from layer 0");
    }
    for (int l = lo; l <= hi; ++l) t.entries_.push_back(p);
    expected_lo = hi + 1;
    if (pos < s.size()) {
      if (s[pos] != ',') {
        return Status::InvalidArgument("policy table: expected ','");
      }
      ++pos;
      if (pos == s.size()) {
        return Status::InvalidArgument("policy table: trailing ','");
      }
    }
  }
  return t;
}

LayerResidencyCost ResidencyCost(const CostModel& cost, const LayerSpec& layer,
                                 int u, double swap_bw) {
  LayerResidencyCost c;
  c.recompute_time = cost.FwdTime(layer, u);
  c.stash_bytes = static_cast<Bytes>(u) * layer.stash_bytes_per_sample;
  c.swap_stall =
      swap_bw > 0 ? static_cast<double>(c.stash_bytes) / swap_bw : 0.0;
  return c;
}

StashPolicy DominantPolicy(const LayerResidencyCost& cost) {
  if (cost.stash_bytes == 0) return StashPolicy::kKeep;
  return cost.recompute_time < cost.swap_stall ? StashPolicy::kRecompute
                                               : StashPolicy::kSwap;
}

}  // namespace harmony::model
