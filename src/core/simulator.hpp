#pragma once
// Event-driven replay of a schedule, producing the exact memory profile.
//
// Memory accounting (paper §3.1):
//  * when task i STARTS, its inputs (the outputs f_c of its children) are
//    already resident; the simulator additionally allocates n_i + f_i;
//  * when task i FINISHES, n_i and all the children outputs f_c are freed;
//    f_i stays resident until the parent finishes (forever for the root).
//
// Peak memory can only change at task starts (allocations) so the peak is
// sampled there; the full step profile is also available for plotting and
// for the memory-bounded scheduler's audits.
//
// Equal times: finishes apply before starts, so a task may start the
// instant its child ends, and starts apply in id order. A zero-length
// task is the exception: its own start applies before its finish, and it
// starts and finishes before its parent starts.
//
// The replay also counts the tasks running at once: a task runs from its
// start event to its finish event, so a task that ends when another
// starts does not overlap it. A zero-length task counts at its instant,
// after the tasks that finish then and before the tasks that start then
// (the order its own processor runs them in), one at a time.
//
// Complexity O(n): the start and finish event streams are ordered by a
// stable LSD radix sort over an order-preserving 64-bit image of each time
// (at most 8 byte passes, fewer when keys share bytes), ties in id order,
// and the sweep that follows is linear.

#include <cstdint>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "core/tree.hpp"

namespace treesched {

/// One memory-profile step: memory level `mem` holds from `time` until the
/// next event's time.
struct MemoryEvent {
  double time;
  MemSize mem;
};

struct SimulationResult {
  double makespan = 0.0;
  MemSize peak_memory = 0;
  /// Resident bytes after everything completed (= f_root).
  MemSize final_memory = 0;
  /// Most tasks ever running at once, in the event order above (set by
  /// simulate()).
  int max_concurrency = 0;
  /// Time-ordered profile; only filled when requested.
  std::vector<MemoryEvent> profile;
};

struct SimulationOptions {
  bool record_profile = false;
};

/// Replays `s` on `tree` and computes makespan and exact peak memory.
/// The schedule must be feasible (see validate_schedule); the simulator
/// checks precedences as it replays and throws std::invalid_argument on
/// violations, so scoring an infeasible schedule is impossible. A NaN
/// start or finish time has no place in the event order and also throws
/// std::invalid_argument; -0.0 and +0.0 are the same time.
SimulationResult simulate(const Tree& tree, const Schedule& s,
                          const SimulationOptions& opts = {});

/// Peak memory of a sequential traversal (children-before-parents order)
/// of the whole tree or of whole subtrees: every child of a listed task is
/// listed before it. For the whole tree it equals
/// simulate(tree, sequential_schedule(tree, order)).peak_memory when no
/// task has zero work (a zero-length task shares its start time with the
/// next one, and the replay orders such ties by id, not by `order`), but
/// is O(n) with no event machinery; used in algorithm inner loops.
MemSize sequential_peak_memory(const Tree& tree,
                               std::span<const NodeId> order);

}  // namespace treesched
