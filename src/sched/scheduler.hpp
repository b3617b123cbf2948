#pragma once
// Unified scheduling interface: every algorithm in the repository -- the
// paper's four parallel heuristics (§5), the memory-bounded extensions
// (§7), the sequential baselines (Liu '87, best postorder) and the
// brute-force oracle -- is invoked through the same `Scheduler` contract.
//
// A Scheduler is a stateless strategy object: `run()` is const and must
// be safe to call concurrently, on distinct trees or on one tree and its
// one shared analysis (the campaign runner and the service share one
// instance across worker threads). Algorithms advertise their
// constraints through `capabilities()` so callers (campaigns, CLIs,
// benches) can filter rather than hardcode algorithm lists.
//
// run() reads the tree's per-tree data from a TreeAnalysis
// (sched/analysis.hpp) instead of rebuilding it: the service passes the
// interned tree's own analysis, so the misses of one tree build its
// optimal postorder once. A sequential scheduler also hands back the
// traversal its schedule runs back to back on processor 0, which lets a
// caller score the answer in O(n) (score_schedule, core/simulator.hpp)
// instead of replaying it. schedule() is the direct call: it builds a
// local analysis and returns the schedule alone, and is what benches,
// examples and tests call.

#include <memory>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "core/tree.hpp"
#include "sched/analysis.hpp"

namespace treesched {

/// Execution resources offered to a scheduler.
struct Resources {
  int p = 1;  ///< available processors (>= 1)
  /// Peak-memory cap for memory-capped schedulers; 0 = none requested
  /// (such schedulers derive a default cap from the tree). Passing a
  /// nonzero cap to a scheduler without the memory_capped capability is
  /// rejected by validate_resources() (std::invalid_argument), not
  /// silently ignored.
  MemSize memory_cap = 0;
};

/// Static properties of an algorithm, used for filtering.
struct SchedulerCapabilities {
  /// Ignores Resources::p and emits a single-processor schedule (the
  /// sequential baselines). Still valid on any p >= 1.
  bool sequential_only = false;
  /// Guarantees peak memory <= the (explicit or derived) cap.
  bool memory_capped = false;
  /// 0 = scales to any tree; > 0 = exponential oracle usable only up to
  /// this many nodes (it throws beyond).
  NodeId max_nodes = 0;

  [[nodiscard]] bool is_oracle() const { return max_nodes > 0; }
};

/// What a scheduler hands back: the schedule and, when it runs one
/// processor's traversal back to back (sequential_schedule), that
/// traversal; empty otherwise.
struct ScheduleRun {
  Schedule schedule;
  std::vector<NodeId> traversal;
};

/// Abstract scheduling algorithm. Implementations self-register with the
/// SchedulerRegistry (see sched/registry.hpp).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Registry key and display name (paper spelling, e.g. "ParSubtrees").
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual SchedulerCapabilities capabilities() const = 0;

  /// Computes a feasible schedule of `tree` under `res`, reading the
  /// per-tree data from `analysis`, which must be `tree`'s. Throws
  /// std::invalid_argument when the resources are unusable (p < 1, an
  /// explicit memory cap below the algorithm's feasibility floor, or a
  /// tree beyond an oracle's max_nodes).
  [[nodiscard]] virtual ScheduleRun run(const Tree& tree,
                                        const Resources& res,
                                        const TreeAnalysis& analysis) const = 0;

  /// run() with a local analysis, returning the schedule alone: the same
  /// schedule, bit for bit, as run() with any analysis of `tree`.
  [[nodiscard]] Schedule schedule(const Tree& tree,
                                  const Resources& res) const {
    const TreeAnalysis analysis(tree);
    return run(tree, res, analysis).schedule;
  }
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

/// Shared Resources validation used by every registered scheduler (and by
/// the scheduling service before it consults its cache). Throws
/// std::invalid_argument with a uniform message, prefixed by `who`:
///  * p must be >= 1;
///  * a nonzero memory cap is only meaningful for schedulers with the
///    memory_capped capability — passing one to any other scheduler is a
///    caller error, not a silently ignored field.
/// Cap-vs-feasibility-floor checks stay with the individual schedulers
/// (the floor depends on the tree).
void validate_resources(const Resources& res,
                        const SchedulerCapabilities& caps,
                        const std::string& who);

}  // namespace treesched
