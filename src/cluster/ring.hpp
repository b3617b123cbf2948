#pragma once
// Consistent-hash ring for the cluster router (src/cluster/): maps a
// request's 64-bit routing key — spec_key() of its tree spec — to one of
// N backend nodes so that identical specs always land on the same node —
// and its warm result cache — while adding or removing a node remaps
// only ~1/N of the key space (the classic Karger ring property; pinned
// by test_cluster).
//
// Each node is hashed onto the ring at `vnodes` pseudo-random points
// (virtual nodes), which smooths per-node load to a relative spread of
// about 1/sqrt(vnodes). A key routes to the first node point at or
// clockwise-after its own hash point.
//
// The ring is pure placement policy: it knows node NAMES, not sockets,
// health, or load. The router layers those on top through walk() —
// bounded-load routing ("skip a node already past its fair share of
// in-flight work") and failover ("skip a node that is down") are both
// just predicates applied to the clockwise node sequence, so the
// fallback order a key sees is deterministic and shared by every
// decision about it (primary pick, retry-on-alternate, re-pick after a
// node dies).
//
// Determinism is a wire-level contract here: the router and the tests
// (and any future second router in front of the same nodes) must agree
// on placement given the same node list, so both the spec key and the
// point hash are FNV-1a folded through the repo's fixed splitmix64
// mixer — never std::hash, whose value is implementation-defined.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace treesched::cluster {

/// The routing key of a tree spec: FNV-1a over its raw text, folded
/// through mix64. The text is not canonicalised, so two spellings of
/// one tree are two keys (and may compute on two nodes, with
/// bit-identical answers).
[[nodiscard]] std::uint64_t spec_key(std::string_view spec);

class HashRing {
 public:
  /// `vnodes` virtual points per node; 64 keeps the per-node load
  /// spread near 12% while the whole 8-node ring is still ~512 points.
  explicit HashRing(int vnodes = 64);

  /// Adds `node` (idempotent). Returns its dense index — stable for the
  /// ring's lifetime, which is what the router keys per-node state by.
  std::size_t add(std::string_view node);

  /// Removes `node`'s points from the ring (the index stays allocated,
  /// so other nodes' indices — and their keys' placements — never
  /// shift). Unknown names are ignored.
  void remove(std::string_view node);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::string& node_name(std::size_t index) const {
    return nodes_[index];
  }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  /// The primary node for `key`: the first point clockwise. nullopt on
  /// an empty ring.
  [[nodiscard]] std::optional<std::size_t> pick(std::uint64_t key) const;

  /// Visits the DISTINCT nodes clockwise from `key`'s point — the
  /// primary first, then each failover alternate exactly once, in the
  /// deterministic order every placement decision about `key` shares.
  /// Stops early when `visit` returns true; returns whether it did.
  bool walk(std::uint64_t key,
            const std::function<bool(std::size_t node)>& visit) const;

  /// The point a node name contributes for virtual node `replica` —
  /// exposed so tests can pin the placement function itself.
  [[nodiscard]] static std::uint64_t point_hash(std::string_view node,
                                                int replica);

 private:
  struct Point {
    std::uint64_t at;
    std::uint32_t node;
  };

  int vnodes_;
  std::vector<std::string> nodes_;      ///< dense index -> name
  std::vector<bool> present_;           ///< index currently on the ring
  std::vector<Point> points_;           ///< sorted by `at`
};

}  // namespace treesched::cluster
