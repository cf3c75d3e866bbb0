#include "cluster/hash_ring.h"

#include <algorithm>

#include "common/json.h"

namespace harmony::cluster {

namespace {

/// Rendezvous weight of (member, fingerprint): hash both together so each
/// fingerprint induces an independent pseudo-random permutation of members.
uint64_t RendezvousScore(const std::string& id, uint64_t fingerprint) {
  return json::Fnv1a(json::FingerprintHex(fingerprint) + "@" + id);
}

/// Ring position of a member's i-th point. FNV-1a of strings that differ
/// only in their last characters ("...#0", "...#1") leaves the top bits
/// nearly unchanged, so the raw hashes cluster and one member can own
/// almost the whole ring; the SplitMix64 finalizer spreads them.
uint64_t PointOf(const std::string& id, int i) {
  uint64_t z = json::Fnv1a(id + "#" + std::to_string(i));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

HashRing::HashRing(int vnodes_per_node) : vnodes_(vnodes_per_node) {
  if (vnodes_ < 0) vnodes_ = 0;
}

void HashRing::AddNode(const std::string& id) {
  if (!nodes_.insert(id).second) return;
  for (int i = 0; i < vnodes_; ++i) {
    ring_.emplace(PointOf(id, i), id);
  }
}

void HashRing::RemoveNode(const std::string& id) {
  if (nodes_.erase(id) == 0) return;
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = it->second == id ? ring_.erase(it) : std::next(it);
  }
}

std::string HashRing::OwnerOf(uint64_t fingerprint) const {
  if (nodes_.empty()) return "";
  if (ring_.empty()) {
    // No points to walk (vnodes == 0): rendezvous hashing decides.
    return RankedNodes(fingerprint).front();
  }
  auto it = ring_.lower_bound(fingerprint);
  if (it == ring_.end()) it = ring_.begin();  // wrap past 2^64
  return it->second;
}

std::vector<std::string> HashRing::RankedNodes(uint64_t fingerprint) const {
  std::vector<std::pair<uint64_t, std::string>> scored;
  scored.reserve(nodes_.size());
  for (const std::string& id : nodes_) {
    scored.emplace_back(RendezvousScore(id, fingerprint), id);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<std::string> ranked;
  ranked.reserve(scored.size());
  for (auto& [score, id] : scored) ranked.push_back(std::move(id));
  return ranked;
}

}  // namespace harmony::cluster
