#pragma once
// Standalone schedule validation against the paper's invariants — the
// independent referee between the schedulers and everything that trusts
// their output (property tests, the campaign runner, the service's
// validate mode, schedule_tool --validate).
//
// check_schedule() layers three independent checks:
//  1. feasibility (core/schedule.hpp validate_schedule): every task
//     scheduled exactly once with a finite non-negative start, processors
//     within [0, p), children finish before their parent starts, no two
//     tasks overlap on one processor;
//  2. parallelism: at no instant do more than p tasks run simultaneously,
//     counted by the simulator's replay independently of the processor
//     assignment (a schedule could respect per-processor disjointness yet
//     claim p+1 concurrent tasks through out-of-range or duplicated
//     processors — 1. rejects that; this check would also catch it on its
//     own). A task runs from its start to its finish event, so a
//     zero-length task counts at its instant;
//  3. memory: the same replay's exact peak (paper §3.1 accounting) stays
//     within `memory_cap` when one is given.
//
// The report carries the replay's makespan and peak so callers get the
// score and the verdict from one pass.

#include <string>

#include "core/schedule.hpp"
#include "core/tree.hpp"

namespace treesched {

/// Outcome of check_schedule. On failure `error` names the first violated
/// invariant; the scores are only meaningful when `ok`.
struct ScheduleCheck {
  bool ok = true;
  std::string error;            ///< empty when ok
  double makespan = 0.0;        ///< simulator makespan (when feasible)
  MemSize peak_memory = 0;      ///< simulator exact peak (when feasible)
  int max_concurrency = 0;      ///< most tasks ever running at once

  explicit operator bool() const { return ok; }
};

/// Validates `s` as a p-processor schedule of `tree`; with a nonzero
/// `memory_cap` additionally requires the exact peak memory to stay within
/// it (pass the cap actually given to a memory-capped scheduler; 0 skips
/// the memory check, matching schedulers that had no cap to honor).
[[nodiscard]] ScheduleCheck check_schedule(const Tree& tree,
                                           const Schedule& s, int p,
                                           MemSize memory_cap = 0);

}  // namespace treesched
