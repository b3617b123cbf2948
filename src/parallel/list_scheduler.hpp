#pragma once
// Generic event-driven list scheduler (Algorithm 3 of the paper).
//
// At every task-finish event, newly ready tasks enter a priority queue and
// every idle processor is handed the queue's head. The heuristics
// (ParInnerFirst, ParDeepestFirst, the memory-bounded extension) only differ
// in the priority they assign to ready nodes, expressed here as a
// per-node lexicographic key computed once up front.
//
// Any schedule produced this way is a list schedule, hence a (2 - 1/p)
// approximation of the optimal makespan (Graham 1966) and satisfies
// C_max <= W/p + (1 - 1/p) * CP.
//
// An optional AdmissionHook adds admission control: MemoryBounded
// (parallel/memory_bounded.hpp) is its one user, and it builds the hook
// from its memory bookkeeping and banker's audit. Without a hook the loop
// is compiled on its own and starts every popped task, so ParInnerFirst
// and ParDeepestFirst pay nothing for it.

#include <tuple>
#include <vector>

#include "core/schedule.hpp"
#include "core/tree.hpp"

namespace treesched {

/// Lexicographic priority: lower key = scheduled earlier. The node id is
/// the explicit final tie-break, so ordering is total and list schedules
/// are fully deterministic even when k1-k3 collide.
struct PriorityKey {
  double k1 = 0.0;
  double k2 = 0.0;
  double k3 = 0.0;
  NodeId node = kNoNode;  ///< set by list_schedule; kNoNode compares equal

  friend bool operator<(const PriorityKey& a, const PriorityKey& b) {
    return std::tie(a.k1, a.k2, a.k3, a.node) <
           std::tie(b.k1, b.k2, b.k3, b.node);
  }
};

/// What an AdmissionHook decides for a ready task popped in priority order.
enum class Admission {
  kStart,     ///< start it now on an idle processor
  kDefer,     ///< leave it ready for the next round and pop the next one
  kEndRound,  ///< leave it ready and end this round
};

/// Admission control over Algorithm 3. A round is one pass over the ready
/// queue at an event time, after that time's finishes; it ends when no
/// processor is idle, the queue is empty or the hook ends it. Deferred
/// tasks return to the queue when the round ends. Every round but the
/// first follows at least one finish, so a hook that counts within a
/// round resets its count in finished().
class AdmissionHook {
 public:
  virtual ~AdmissionHook() = default;
  /// Decides whether ready task `v` starts now. kStart is final: `v`
  /// starts at once on an idle processor, so a hook books the start here.
  virtual Admission admit(NodeId v) = 0;
  /// `v` finished.
  virtual void finished(NodeId v) = 0;
};

/// Runs Algorithm 3 with the given per-node priorities (size n).
/// `p` >= 1 processors. O(n log n) plus the hook's cost. Throws
/// std::logic_error if the hook refuses every ready task while no task
/// runs (the schedule could never complete).
Schedule list_schedule(const Tree& tree, int p,
                       const std::vector<PriorityKey>& priority,
                       AdmissionHook* hook = nullptr);

}  // namespace treesched
