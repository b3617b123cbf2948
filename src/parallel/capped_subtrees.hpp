#pragma once
// Static, reservation-based memory-capped scheduling: the ParSubtrees
// philosophy under a memory budget.
//
// Where memory_bounded_schedule (the banker) admits individual tasks with
// a dynamic audit, this scheduler reserves memory at SUBTREE granularity:
// the tree is split with SplitSubtrees (Algorithm 2), each subtree's
// sequential-postorder peak m_r is measured, and a subtree may start on an
// idle processor only if
//     sum of peaks of running subtrees
//   + sum of outputs of completed subtrees
//   + m_r                                  <= cap.
// Because a running subtree is accounted at its full peak, the bound is
// conservative and the cap can never be exceeded during the parallel
// phase; the sequential tail is laid out afterwards and checked exactly.
//
// The layout is ParSubtrees' (group_by_subtree, parallel/par_subtrees.hpp):
// one optimal postorder of the whole tree, cut into one slice per subtree
// and a tail of the split nodes. A slice is its subtree's own optimal
// postorder, so m_r is the slice's sequential peak, and no subtree is
// copied.
//
// Compared to the banker this trades schedule quality for O(n log n)
// runtime and a trivially auditable invariant -- the classic static
// reservation vs dynamic admission trade-off (see bench_memory_bounded).

#include <optional>
#include <vector>

#include "core/schedule.hpp"
#include "core/tree.hpp"
#include "parallel/par_subtrees.hpp"

namespace treesched {

/// What the floor and the schedule both read, for one (tree, p): build it
/// once to derive a cap from the floor and schedule under it.
struct CappedSubtreesPlan {
  int p = 1;
  /// The subtrees by non-increasing total work (then id), one slice each;
  /// the tail slice holds the split nodes.
  std::vector<NodeId> roots;
  SubtreeLayout layout;
  std::vector<MemSize> peak;  ///< m_r: the sequential peak of slice k
  MemSize postorder_peak = 0;  ///< the whole traversal's peak
};

struct CappedSubtreesResult {
  Schedule schedule;
  /// Highest number of subtrees ever running concurrently.
  int max_parallelism = 0;
};

/// SplitSubtrees on `p` >= 1 processors, laid out from the whole tree's
/// optimal postorder.
CappedSubtreesPlan capped_subtrees_plan(const Tree& tree, int p);

/// Schedules with peak memory <= cap, or nullopt when the cap is too small
/// for this (conservative) scheme. Any cap >= capped_subtrees_min_cap()
/// is feasible.
std::optional<CappedSubtreesResult> capped_subtrees_schedule(
    const Tree& tree, const CappedSubtreesPlan& plan, MemSize cap);
std::optional<CappedSubtreesResult> capped_subtrees_schedule(
    const Tree& tree, int p, MemSize cap);

/// The smallest cap the scheme accepts: the peak of its fully serialized
/// execution (subtrees one at a time in weight order, then the tail).
MemSize capped_subtrees_min_cap(const Tree& tree,
                                const CappedSubtreesPlan& plan);
MemSize capped_subtrees_min_cap(const Tree& tree, int p);

}  // namespace treesched
