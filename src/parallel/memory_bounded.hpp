#pragma once
// Memory-bounded list scheduling — the extension the paper names as future
// work ("designing scheduling algorithms that take as input a cap on the
// memory usage", §7).
//
// The scheduler is Algorithm 3 (parallel/list_scheduler.hpp) with
// ParDeepestFirst's priorities and an admission hook that guarantees the
// peak memory never exceeds a user-provided cap:
//  * a reference sequential traversal sigma with peak M_sigma <= cap is
//    fixed up front (the optimal postorder);
//  * a ready task may start only if (a) the instantaneous memory after
//    allocating its n_i + f_i stays within the cap, and (b) a banker's-style
//    audit succeeds: assuming all running tasks complete, finishing the
//    remaining tree sequentially in sigma order stays within the cap.
// Invariant (b) holds initially (cap >= M_sigma) and is preserved by every
// admission, and when nothing is running the next sigma task always passes
// the audit, so the scheduler never deadlocks and always completes.
//
// The audit costs O(n), so a round stops auditing after kAuditWindow
// refused candidates (memory_bounded.cpp), unless nothing runs. Admissions
// do not count: a round audits at most p + kAuditWindow candidates, and
// with room for every ready task it starts as many as Algorithm 3 does.
// The priority and the window are fixed; there are no options.
//
// Cap = infinity degenerates to ParDeepestFirst, the same schedule bit for
// bit; cap = M_sigma degenerates to the sequential traversal. Sweeping the
// cap between the two traces the memory/makespan trade-off curve
// (bench_memory_bounded).

#include <optional>

#include "core/schedule.hpp"
#include "core/tree.hpp"
#include "sequential/postorder.hpp"

namespace treesched {

/// Schedules `tree` on `p` processors with peak memory <= cap.
/// Returns std::nullopt if cap < peak(sigma) (infeasible for this method;
/// use min_feasible_cap to query the threshold).
std::optional<Schedule> memory_bounded_schedule(const Tree& tree, int p,
                                                MemSize cap);

/// The same, with sigma = postorder(tree, PostorderPolicy::kOptimal)
/// already computed (its peak is the floor a derived cap scales).
std::optional<Schedule> memory_bounded_schedule(const Tree& tree, int p,
                                                MemSize cap,
                                                const PostorderResult& sigma);

/// Smallest cap the scheduler accepts: the optimal-postorder peak.
MemSize min_feasible_cap(const Tree& tree);

}  // namespace treesched
