#pragma once
// Tree interning for the scheduling service (layer 1 of src/service/).
//
// Trees are identified by a 64-bit content fingerprint over structure and
// weights; interning a tree whose fingerprint (and, on the rare collision,
// full content) matches an already-stored instance returns a handle to the
// shared immutable copy instead of storing a duplicate. Every downstream
// layer — the result cache key, request logs — speaks fingerprints,
// never tree copies.
//
// Each interned tree owns one TreeAnalysis (sched/analysis.hpp), in the
// same allocation as the tree, so every handle to the instance shares it
// under the one reference count a handle already holds. The analysis is
// lazy: interning builds nothing (intern runs on a front-end's I/O
// thread), and the first computed miss that needs the optimal postorder
// builds it once, on a pool worker, for every later miss of the tree.
//
// The store can be byte-budgeted (InstanceStoreConfig::max_bytes): an
// intern that would push the held bytes past the budget is rejected with
// the typed StoreFull error through the Result path instead of growing
// without bound — a service fed unboundedly many distinct trees stays
// bounded. The bytes counted include what the analysis retains once
// built. Already-interned trees always resolve (a hit stores nothing).

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/tree.hpp"
#include "sched/analysis.hpp"
#include "service/errors.hpp"
#include "util/result.hpp"

namespace treesched {

using TreeHash = std::uint64_t;

/// Content fingerprint of `tree`: parents, output/exec sizes, and the bit
/// patterns of the work values, mixed with splitmix64. Structural and
/// weight changes both change the hash; node order matters (two
/// relabelings of the same tree are distinct instances).
///
/// The fingerprint is 64 bits, and at production scale that is NOT
/// collision-free: the birthday bound puts 50% collision odds near 2^32
/// distinct trees, and an adversary who knows the (unkeyed, invertible)
/// mixer can construct colliding pairs outright — tests do exactly that.
/// Every consumer must therefore treat it as a ROUTING key, never an
/// identity:
///  * intern time: InstanceStore::try_intern verifies full structural
///    equality (trees_identical) on every fingerprint match before
///    aliasing, so two colliding trees get two distinct uids — the
///    comparison only runs on hash matches, i.e. it is free until the
///    day a collision actually happens;
///  * cache keys: the result cache is keyed by the store-assigned uid,
///    not the fingerprint, so colliding trees can never share a cached
///    schedule;
///  * the wire: response lines spell the fingerprint (tree=<hex>) as a
///    human-checkable label only;
///  * the cluster: the router shards requests across nodes by
///    fingerprint (cluster/ring.hpp). A collision there merely lands
///    two distinct trees on the same node, where the node's own store
///    disambiguates them — placement is allowed to collide, identity is
///    not. Widening to 128 bits would shrink the placement-collision
///    rate but is deliberately NOT a correctness requirement anywhere.
[[nodiscard]] TreeHash tree_fingerprint(const Tree& tree);

/// Exact content equality (used to disambiguate fingerprint collisions).
[[nodiscard]] bool trees_identical(const Tree& a, const Tree& b);

/// Approximate in-memory footprint of interning `tree` (node arrays, CSR
/// children and what its built analysis retains), the unit the store
/// budget is accounted in.
[[nodiscard]] std::size_t tree_bytes(const Tree& tree);

/// A shared, immutable, interned tree plus its fingerprint, its
/// store-assigned identity and its analysis.
struct TreeHandle {
  std::shared_ptr<const Tree> tree;
  TreeHash hash = 0;
  /// Unique per distinct tree within its InstanceStore (1, 2, ...;
  /// 0 = null handle). Downstream keys (the result cache's) use this,
  /// not the raw fingerprint, so a fingerprint collision can
  /// never alias two different trees onto one cache entry — the store
  /// disambiguates collisions by full content comparison at intern time.
  std::uint64_t uid = 0;
  /// The tree's one analysis. It lives in the allocation `tree` points
  /// into, so `tree`'s reference keeps it alive.
  const TreeAnalysis* analysis = nullptr;

  explicit operator bool() const { return tree != nullptr; }
  const Tree& operator*() const { return *tree; }
  const Tree* operator->() const { return tree.get(); }
};

struct InstanceStoreConfig {
  /// Byte budget for stored trees; 0 = unbudgeted. An intern of a new
  /// (not yet stored) tree that would exceed the budget returns the
  /// typed kStoreFull error; live handles keep already-stored trees
  /// valid regardless.
  std::size_t max_bytes = 0;
};

/// Thread-safe interning store. Handles stay valid after clear(): the
/// store drops its reference, existing handles keep theirs.
class InstanceStore {
 public:
  struct Stats {
    std::size_t unique_trees = 0;  ///< distinct instances currently stored
    std::uint64_t hits = 0;        ///< interns resolved to an existing tree
    std::uint64_t misses = 0;      ///< interns that stored a new tree
    std::uint64_t rejected = 0;    ///< interns refused by the byte budget
    std::size_t bytes = 0;         ///< approximate bytes currently held
  };

  explicit InstanceStore(InstanceStoreConfig config = {});

  /// Interns `tree` (copied in when passed an lvalue, moved from an
  /// rvalue) and returns the shared handle, or the typed kStoreFull
  /// error when storing it would exceed the byte budget.
  [[nodiscard]] Result<TreeHandle, ServiceError> try_intern(Tree tree);

  /// Legacy surface: try_intern that throws StoreFull on rejection.
  TreeHandle intern(Tree tree);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const InstanceStoreConfig& config() const { return config_; }
  void clear();

 private:
  InstanceStoreConfig config_;
  mutable std::mutex mutex_;
  std::unordered_multimap<TreeHash, TreeHandle> by_hash_;
  std::uint64_t next_uid_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t rejected_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace treesched
