// The built-in algorithm roster behind the SchedulerRegistry, in the
// paper's presentation order: the four Table 1 heuristics first (§5), then
// the memory-capped schedulers (§7 future work, implemented here), then
// the sequential baselines (§4) and the exponential oracle.
//
// Each adapter is a thin, stateless shim from the Scheduler contract onto
// the algorithm's native entry point; the algorithms themselves stay
// independently callable.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/simulator.hpp"
#include "parallel/capped_subtrees.hpp"
#include "parallel/memory_bounded.hpp"
#include "parallel/par_deepest_first.hpp"
#include "parallel/par_inner_first.hpp"
#include "parallel/par_subtrees.hpp"
#include "sched/registry.hpp"
#include "sequential/bruteforce.hpp"
#include "sequential/liu.hpp"
#include "sequential/postorder.hpp"

namespace treesched {

namespace detail {
void link_builtin_schedulers() {}
}  // namespace detail

namespace {

/// The processor count the parallel schedulers are run with. No schedule
/// of n tasks runs more than n at once, and every scheduler here draws
/// processors from the low ids up, so processors beyond max(1, n) are
/// never used: the schedule is the one the requested p gives, while the
/// per-processor state stays O(n) however large p is.
int usable_procs(const Tree& tree, const Resources& res) {
  return std::min(res.p, std::max<NodeId>(1, tree.size()));
}

// ---------------------------------------------------------------------------
// Parallel heuristics (paper §5, Table 1 order).
// ---------------------------------------------------------------------------

class ParSubtreesSched final : public Scheduler {
 public:
  std::string name() const override { return "ParSubtrees"; }
  SchedulerCapabilities capabilities() const override { return {}; }
  Schedule schedule(const Tree& tree, const Resources& res) const override {
    validate_resources(res, capabilities(), name());
    return par_subtrees(tree, usable_procs(tree, res));
  }
};

class ParSubtreesOptimSched final : public Scheduler {
 public:
  std::string name() const override { return "ParSubtreesOptim"; }
  SchedulerCapabilities capabilities() const override { return {}; }
  Schedule schedule(const Tree& tree, const Resources& res) const override {
    validate_resources(res, capabilities(), name());
    return par_subtrees_optim(tree, usable_procs(tree, res));
  }
};

class ParInnerFirstSched final : public Scheduler {
 public:
  std::string name() const override { return "ParInnerFirst"; }
  SchedulerCapabilities capabilities() const override { return {}; }
  Schedule schedule(const Tree& tree, const Resources& res) const override {
    validate_resources(res, capabilities(), name());
    return par_inner_first(tree, usable_procs(tree, res));
  }
};

class ParDeepestFirstSched final : public Scheduler {
 public:
  std::string name() const override { return "ParDeepestFirst"; }
  SchedulerCapabilities capabilities() const override { return {}; }
  Schedule schedule(const Tree& tree, const Resources& res) const override {
    validate_resources(res, capabilities(), name());
    return par_deepest_first(tree, usable_procs(tree, res));
  }
};

// ---------------------------------------------------------------------------
// Memory-capped schedulers. With no explicit Resources::memory_cap they
// derive cap = kDefaultCapFactor * (their own feasibility floor), tracing
// the middle of the memory/makespan trade-off curve.
// ---------------------------------------------------------------------------

constexpr double kDefaultCapFactor = 2.0;

/// The derived default cap: kDefaultCapFactor x the best-postorder peak.
MemSize derived_cap(MemSize postorder_peak) {
  return static_cast<MemSize>(
      std::ceil(kDefaultCapFactor * static_cast<double>(postorder_peak)));
}

[[noreturn]] void throw_below_floor(const std::string& name, MemSize cap,
                                    MemSize floor) {
  throw std::invalid_argument(name + ": cap " + std::to_string(cap) +
                              " below the feasibility floor " +
                              std::to_string(floor));
}

class MemoryBoundedSched final : public Scheduler {
 public:
  std::string name() const override { return "MemoryBounded"; }
  SchedulerCapabilities capabilities() const override {
    SchedulerCapabilities caps;
    caps.memory_capped = true;
    return caps;
  }
  Schedule schedule(const Tree& tree, const Resources& res) const override {
    validate_resources(res, capabilities(), name());
    const PostorderResult sigma = postorder(tree, PostorderPolicy::kOptimal);
    const MemSize cap = res.memory_cap != 0 ? res.memory_cap
                                            : derived_cap(sigma.peak);
    auto s = memory_bounded_schedule(tree, usable_procs(tree, res), cap,
                                     sigma);
    if (!s) throw_below_floor(name(), cap, sigma.peak);
    return std::move(*s);
  }
};

class CappedSubtreesSched final : public Scheduler {
 public:
  std::string name() const override { return "CappedSubtrees"; }
  SchedulerCapabilities capabilities() const override {
    SchedulerCapabilities caps;
    caps.memory_capped = true;
    return caps;
  }
  Schedule schedule(const Tree& tree, const Resources& res) const override {
    validate_resources(res, capabilities(), name());
    const CappedSubtreesPlan plan =
        capped_subtrees_plan(tree, usable_procs(tree, res));
    // The scheme's own floor can exceed kDefaultCapFactor x the postorder
    // peak, so the derived cap takes the max; the floor is only computed
    // when a cap is actually derived or reported.
    const MemSize cap = res.memory_cap != 0
                            ? res.memory_cap
                            : std::max(capped_subtrees_min_cap(tree, plan),
                                       derived_cap(plan.postorder_peak));
    auto r = capped_subtrees_schedule(tree, plan, cap);
    if (!r) {
      throw_below_floor(name(), cap, capped_subtrees_min_cap(tree, plan));
    }
    return std::move(r->schedule);
  }
};

// ---------------------------------------------------------------------------
// Sequential baselines and the oracle.
// ---------------------------------------------------------------------------

class SequentialSched : public Scheduler {
 public:
  SchedulerCapabilities capabilities() const override {
    SchedulerCapabilities caps;
    caps.sequential_only = true;
    caps.memory_capped = true;  // a sequential run is its own cap
    return caps;
  }
  Schedule schedule(const Tree& tree, const Resources& res) const override {
    validate_resources(res, capabilities(), name());
    std::vector<NodeId> ord = order(tree);
    // The traversal's peak IS this scheduler's derived cap; an explicit
    // cap below it is infeasible (same contract as the other
    // memory-capped schedulers), not silently exceeded.
    if (res.memory_cap != 0) {
      const MemSize peak = sequential_peak_memory(tree, ord);
      if (peak > res.memory_cap) {
        throw_below_floor(name(), res.memory_cap, peak);
      }
    }
    return sequential_schedule(tree, ord);
  }

 protected:
  [[nodiscard]] virtual std::vector<NodeId> order(const Tree& tree) const = 0;
};

class LiuSched final : public SequentialSched {
 public:
  std::string name() const override { return "Liu"; }

 protected:
  std::vector<NodeId> order(const Tree& tree) const override {
    return liu_optimal_traversal(tree).order;
  }
};

class BestPostorderSched final : public SequentialSched {
 public:
  std::string name() const override { return "BestPostorder"; }

 protected:
  std::vector<NodeId> order(const Tree& tree) const override {
    return postorder(tree, PostorderPolicy::kOptimal).order;
  }
};

class NaturalPostorderSched final : public SequentialSched {
 public:
  std::string name() const override { return "NaturalPostorder"; }

 protected:
  std::vector<NodeId> order(const Tree& tree) const override {
    return postorder(tree, PostorderPolicy::kNatural).order;
  }
};

class BruteForceSeqSched final : public SequentialSched {
 public:
  std::string name() const override { return "BruteForceSeq"; }
  SchedulerCapabilities capabilities() const override {
    SchedulerCapabilities caps = SequentialSched::capabilities();
    caps.max_nodes = 20;
    return caps;
  }

 protected:
  std::vector<NodeId> order(const Tree& tree) const override {
    if (tree.size() > capabilities().max_nodes) {
      throw std::invalid_argument(
          name() + ": tree of size " + std::to_string(tree.size()) +
          " exceeds the oracle limit of " +
          std::to_string(capabilities().max_nodes) + " nodes");
    }
    return bruteforce_optimal_traversal(tree).order;
  }
};

}  // namespace

TREESCHED_REGISTER_SCHEDULER(par_subtrees, "ParSubtrees",
                             new ParSubtreesSched)
TREESCHED_REGISTER_SCHEDULER(par_subtrees_optim, "ParSubtreesOptim",
                             new ParSubtreesOptimSched)
TREESCHED_REGISTER_SCHEDULER(par_inner_first, "ParInnerFirst",
                             new ParInnerFirstSched)
TREESCHED_REGISTER_SCHEDULER(par_deepest_first, "ParDeepestFirst",
                             new ParDeepestFirstSched)
TREESCHED_REGISTER_SCHEDULER(memory_bounded, "MemoryBounded",
                             new MemoryBoundedSched)
TREESCHED_REGISTER_SCHEDULER(capped_subtrees, "CappedSubtrees",
                             new CappedSubtreesSched)
TREESCHED_REGISTER_SCHEDULER(liu, "Liu", new LiuSched)
TREESCHED_REGISTER_SCHEDULER(best_postorder, "BestPostorder",
                             new BestPostorderSched)
TREESCHED_REGISTER_SCHEDULER(natural_postorder, "NaturalPostorder",
                             new NaturalPostorderSched)
TREESCHED_REGISTER_SCHEDULER(bruteforce_seq, "BruteForceSeq",
                             new BruteForceSeqSched)

}  // namespace treesched
