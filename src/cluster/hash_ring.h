#ifndef HARMONY_CLUSTER_HASH_RING_H_
#define HARMONY_CLUSTER_HASH_RING_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace harmony::cluster {

/// Consistent-hash ring over daemon endpoints, keyed by the canonical
/// request fingerprint serve::wire already produces. Placement is a pure
/// function of (member set, vnodes), so every client and daemon that agrees
/// on the member list agrees on each fingerprint's owner — no coordinator.
///
/// Each member contributes `vnodes_per_node` points at
/// SplitMix64-finalized FNV-1a(id + "#" + i); a fingerprint's owner is the
/// first point clockwise from it. Virtual nodes bound rebalance churn:
/// removing one of N members remaps only the keys the departed member owned
/// (~1/N of the space), a bound cluster_test asserts.
///
/// When the ring has no points (vnodes_per_node == 0 — a degenerate but
/// legal configuration), ownership falls back to rendezvous (highest-
/// random-weight) hashing over the member set, which is also what
/// RankedNodes uses to order failover candidates: the HRW ranking is a
/// deterministic permutation of the members per fingerprint, so every
/// client walks dead daemons in the same order.
///
/// Not thread-safe: build the membership up front (it changes at deploy
/// time, not per request) and share it read-only.
class HashRing {
 public:
  explicit HashRing(int vnodes_per_node = 64);

  void AddNode(const std::string& id);
  void RemoveNode(const std::string& id);

  bool empty() const { return nodes_.empty(); }
  size_t num_nodes() const { return nodes_.size(); }
  int vnodes_per_node() const { return vnodes_; }

  /// The member owning `fingerprint`; "" when the ring is empty.
  std::string OwnerOf(uint64_t fingerprint) const;

  /// Every member ordered by rendezvous weight for `fingerprint` (best
  /// first). The failover walk: try RankedNodes[0], then [1], ...
  std::vector<std::string> RankedNodes(uint64_t fingerprint) const;

 private:
  int vnodes_;
  std::set<std::string> nodes_;
  std::map<uint64_t, std::string> ring_;  // point -> member id
};

}  // namespace harmony::cluster

#endif  // HARMONY_CLUSTER_HASH_RING_H_
