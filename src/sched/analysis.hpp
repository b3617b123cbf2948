#pragma once
// Per-tree data that several schedulers read: today the memory-optimal
// postorder (Liu 1986, sequential/postorder.hpp), which ParSubtrees,
// ParSubtreesOptim, ParInnerFirst, ParDeepestFirst, BestPostorder,
// MemoryBounded and CappedSubtrees all start from.
//
// A TreeAnalysis refers to its tree and builds each part on first use,
// once, under std::call_once, so any number of threads may share one
// analysis. The scheduling service keeps one per interned tree
// (service/instance_store.hpp), so the misses of one tree build its
// postorder once; a direct Scheduler::schedule() call builds a local one,
// so a scheduler that never asks for the postorder (Liu,
// NaturalPostorder) never pays for it.

#include <cstddef>
#include <mutex>

#include "core/tree.hpp"
#include "sequential/postorder.hpp"

namespace treesched {

class TreeAnalysis {
 public:
  /// `tree` must outlive the analysis.
  explicit TreeAnalysis(const Tree& tree) : tree_(tree) {}

  /// postorder(tree, PostorderPolicy::kOptimal), built on first use.
  [[nodiscard]] const PostorderResult& optimal_postorder() const;

  /// What a built analysis retains per node (the postorder's order), for
  /// byte budgets that count it before it is built.
  static constexpr std::size_t kBytesPerNode = sizeof(NodeId);

 private:
  const Tree& tree_;
  mutable std::once_flag postorder_once_;
  mutable PostorderResult postorder_;
};

}  // namespace treesched
