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
//
// score_schedule gives the same result for a schedule that runs a known
// traversal back to back without sorting anything, when its starts
// strictly rise along the traversal, and replays it otherwise.

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
/// simulate(tree, sequential_schedule(tree, order)).peak_memory when the
/// starts strictly rise along `order` (see score_schedule), but is O(n)
/// with no event machinery; used in algorithm inner loops.
MemSize sequential_peak_memory(const Tree& tree,
                               std::span<const NodeId> order);

/// simulate(tree, s) without a profile, in O(n) with no event machinery
/// when `s` runs `traversal` (every task once) in order on one processor,
/// as sequential_schedule lays it out: every start strictly greater than
/// the one before (tested as !(next > prev), so a tie, a NaN or an
/// infinity fails it) and no earlier than the finish before it, every
/// task started after its children, and the last finish not NaN. Then it
/// returns makespan = s.makespan(tree), peak_memory =
/// sequential_peak_memory(tree, traversal), final_memory = f_root and
/// max_concurrency = 1.
///
/// Under that condition the two are equal bit for bit: with strictly
/// increasing starts the replay visits the traversal in order, and every
/// task before the current one has finished by its start, so the replay
/// samples the same memory at each start as the sequential sweep. In
/// every other case (an empty traversal included) it returns
/// simulate(tree, s), whose replay orders equal-time starts by id, not by
/// the traversal: that happens with zero work, and with work small
/// enough to be lost in rounding (2^60 + 1 == 2^60).
SimulationResult score_schedule(const Tree& tree, const Schedule& s,
                                std::span<const NodeId> traversal);

}  // namespace treesched
