#pragma once
// ParSubtrees and ParSubtreesOptim (paper §5.1, Algorithms 1 and 2).
//
// SplitSubtrees repeatedly splits the heaviest subtree (by total work W_i)
// until it is a leaf, evaluating at every step the resulting makespan
//   C(s) = W_head(PQ) + sum_{i in seqSet} w_i + sum_{beyond the p largest} W_i
// and keeps the best split (Lemma 1: this split is makespan-optimal for
// the ParSubtrees execution scheme). The PQ is a sorted array of its p
// largest entries over a binary heap of the rest, so each split costs
// O(log n) for the heap plus O(p) to shift the array and re-add the top-p
// sum in PQ order; the chosen split is rebuilt from the recorded splits.
// Complexity O(n (log n + p)).
//
// ParSubtrees then processes the p largest subtrees concurrently (each with
// a sequential memory-minimizing traversal) and everything else — the split
// nodes and the surplus subtrees — sequentially afterwards. All of these
// traversals come from ONE traversal of the whole tree: restricted to a
// subtree, the whole-tree optimal postorder, Liu order or natural
// postorder is that subtree's own. group_by_subtree cuts that traversal
// into the per-subtree slices and layout_slice runs one slice on one
// processor; CappedSubtrees (parallel/capped_subtrees.hpp) lays out its
// subtrees with both too. Complexity O(n (log n + p)) with the
// postorder; no subtree is ever copied, so wide trees (a fork's n - 1
// subtrees) stay near-linear.
// Guarantees: p-approximation for makespan, (p+1)-approximation for peak
// memory.
//
// ParSubtreesOptim instead packs ALL produced subtrees onto the p
// processors LPT-style (longest processing time first, each onto the least
// loaded processor, lowest id on ties, via a heap of processor loads),
// which improves the makespan but can increase memory (more subtrees in
// flight at once).

#include <cstddef>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "core/tree.hpp"

namespace treesched {

/// Which sequential traversal the subtree/sequential phases use.
enum class SequentialAlgo {
  kOptimalPostorder,  ///< Liu'86 optimal postorder (the paper's choice)
  kLiuExact,          ///< Liu'87 exact optimal traversal
  kNaturalPostorder,  ///< naive postorder (ablation baseline)
};

/// Outcome of SplitSubtrees (Algorithm 2).
struct SplitResult {
  std::vector<NodeId> subtree_roots;  ///< roots of the produced subtrees
  std::vector<NodeId> seq_nodes;      ///< split nodes processed sequentially
  double predicted_makespan = 0.0;    ///< C(x) of the selected split
};

/// Algorithm 2. `p` >= 1. subtree_roots are in PQ order: non-increasing
/// W, then non-increasing w, then increasing id.
SplitResult split_subtrees(const Tree& tree, int p);

/// A whole-tree traversal cut into slices: slice k < roots.size() is the
/// subtree of roots[k], the last slice (the tail) every node in none of
/// those subtrees, each in traversal order. Restricted to a subtree, a
/// children-before-parents traversal of the whole tree is a traversal of
/// that subtree, and restricted to the tail it keeps children before
/// parents.
struct SubtreeLayout {
  std::vector<NodeId> order;       ///< the traversal, slice after slice
  std::vector<std::size_t> first;  ///< slice k is [first[k], first[k + 1])
};

/// Cuts `traversal` (children before parents, every node once) by the
/// subtrees of `roots`, none of which may lie in another's subtree. O(n).
SubtreeLayout group_by_subtree(const Tree& tree,
                               const std::vector<NodeId>& traversal,
                               std::span<const NodeId> roots);

/// Runs slice k of `layout` back to back on processor `proc` from time
/// `t`, writing its tasks into `s`; returns the time it ends.
double layout_slice(const Tree& tree, const SubtreeLayout& layout,
                    std::size_t k, int proc, double t, Schedule& s);

struct ParSubtreesOptions {
  SequentialAlgo sequential = SequentialAlgo::kOptimalPostorder;
  /// false: Algorithm 1 (only the p largest subtrees in parallel).
  /// true:  ParSubtreesOptim (all subtrees LPT-packed onto p processors).
  bool optimized_packing = false;
};

/// Full heuristic. The returned schedule is feasible by construction and its
/// simulated makespan equals SplitResult::predicted_makespan for the
/// non-optimized variant.
Schedule par_subtrees(const Tree& tree, int p, ParSubtreesOptions opts = {});

/// Convenience wrapper for the optimized variant.
Schedule par_subtrees_optim(const Tree& tree, int p,
                            SequentialAlgo seq = SequentialAlgo::kOptimalPostorder);

}  // namespace treesched
